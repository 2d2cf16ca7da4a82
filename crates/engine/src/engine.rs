//! The engine facade: configuration, admission, batch replay, shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use oaq_exec::Executor;

use crate::error::{EngineError, RejectReason};
use crate::eval::{DefaultEvaluator, Evaluator, QosValue};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::query::{CapacityKey, QosQuery, QueryKey};
use crate::shard::{resolve_shards, CacheShardStats, ShardedCache, ShardedFlight};
use crate::shed::{ShedPolicy, Shedder};
use crate::singleflight::{Flight, Slot};
use crate::tenant::{QuotaPolicy, TenantSnapshot, TenantTable};
use crate::worker::{serve_job, EngineResult, Job, Shared};

/// Engine sizing and serving-policy knobs. `Default` gives a
/// production-shaped engine with every fault-tolerance limit disabled
/// (no quotas, no SLO shedding); tests shrink the fair share and turn
/// individual policies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Concurrent callers [`Engine::run_all`] fans [`Engine::evaluate`]
    /// out to on the [`oaq_exec::Executor`]; `0` means one per available
    /// core. [`Engine::evaluate`] itself always runs on its caller.
    pub workers: usize,
    /// Base of the per-tenant fair share: a tenant may have at most
    /// `ceil(queue_capacity · queue_share)` flight leaders
    /// solving at once (see [`QuotaPolicy::queue_share`]).
    pub queue_capacity: usize,
    /// Capacity of the completed-result LRU (level 1).
    pub result_cache: usize,
    /// Capacity of the `P(k)` capacity-solve LRU (level 2).
    pub pk_cache: usize,
    /// Shard count for both cache layers and both in-flight tables; `0`
    /// means the default (8), other values round up to a power of two
    /// (clamped to 256). One shard reproduces the old single-lock engine.
    pub cache_shards: usize,
    /// Per-tenant admission quotas (rate bucket + queue fair share).
    pub quota: QuotaPolicy,
    /// SLO-aware load shedding policy.
    pub shed: ShedPolicy,
    /// Seed of the shedder's deterministic accept/reject coin.
    pub shed_seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_capacity: 1024,
            result_cache: 4096,
            pk_cache: 256,
            cache_shards: 0,
            quota: QuotaPolicy::default(),
            shed: ShedPolicy::default(),
            shed_seed: 0x5EED,
        }
    }
}

impl EngineConfig {
    /// The [`Engine::run_all`] worker count after resolving `0` to the
    /// core count ([`oaq_exec::effective_workers`]).
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        oaq_exec::effective_workers(self.workers)
    }

    /// The shard count after resolving `0` to the default and rounding to
    /// a power of two.
    #[must_use]
    pub fn effective_shards(&self) -> usize {
        resolve_shards(self.cache_shards, 8)
    }
}

/// Per-shard counters of both cache layers — the observability that makes
/// the warm-path lock split measurable (`hits`/`misses` localize the hot
/// key space; `contended` counts lock acquisitions that had to wait).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Result-cache (level 1) shards, in shard order.
    pub result: Vec<CacheShardStats>,
    /// `P(k)` capacity-cache (level 2) shards, in shard order.
    pub pk: Vec<CacheShardStats>,
}

impl CacheStatsSnapshot {
    /// Total contended lock acquisitions across both layers.
    #[must_use]
    pub fn total_contended(&self) -> u64 {
        self.result
            .iter()
            .chain(&self.pk)
            .map(|s| s.contended)
            .sum()
    }
}

/// What admission decided for one query.
enum Admitted {
    /// A result-cache hit, answered on the spot.
    Hit(EngineResult),
    /// An identical query is in flight; its answer lands in this slot.
    Follower(Arc<Slot<EngineResult>>),
    /// The caller leads the query's flight and holds a tenant queue slot:
    /// the job must run on the caller, or else be unwound.
    Leader(Job),
}

/// The in-process QoS query-serving engine.
///
/// One admission path: validate ([`crate::QuerySpec::build`]) → level-1
/// result-cache lookup (free for quotas) → per-tenant token bucket → SLO
/// shed coin → single-flight coalescing with any identical in-flight
/// query → per-tenant fair share. A flight leader then solves on the
/// thread that called [`Self::evaluate`], with the level-2 `P(k)` cache
/// inside the solve; [`Self::run_all`] fans a batch of such calls out on
/// the [`oaq_exec::Executor`], the workspace's one thread primitive. The
/// engine owns no thread.
///
/// Every solve is supervised: an evaluator panic becomes a typed
/// [`crate::QueryError::EvalPanicked`] answer for every waiter, and the
/// calling thread carries on.
#[derive(Debug)]
pub struct Engine {
    shared: Shared,
    config: EngineConfig,
}

impl Engine {
    /// Builds an engine with the production evaluator.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Engine::with_evaluator(config, Arc::new(DefaultEvaluator))
    }

    /// Builds an engine whose leaf compute is `evaluator` — the hook the
    /// fault-injection harness uses to wrap the real analytic stack with
    /// seeded panics and latency spikes.
    #[must_use]
    pub fn with_evaluator(config: EngineConfig, evaluator: Arc<dyn Evaluator>) -> Self {
        let shards = config.effective_shards();
        let shared = Shared {
            shutting_down: AtomicBool::new(false),
            results: ShardedCache::new(config.result_cache, shards),
            flight: ShardedFlight::new(shards),
            pk_cache: ShardedCache::new(config.pk_cache, shards),
            pk_flight: ShardedFlight::new(shards),
            metrics: Metrics::new(),
            tenants: TenantTable::new(config.quota, config.queue_capacity),
            shedder: Shedder::new(config.shed, config.shed_seed),
            evaluator,
            epoch: Instant::now(),
        };
        Engine { shared, config }
    }

    /// Runs every admission step up to the point where a flight leader
    /// must solve: result cache, quota, shed, single flight, fair share. A returned [`Admitted::Leader`] holds a tenant queue slot
    /// and an open flight; [`Self::unwind_leader`] gives both back.
    fn admit(&self, query: QosQuery) -> Result<Admitted, EngineError> {
        let key = query.key();
        let tenant = query.tenant();
        let now_s = self.shared.now_s();
        if let Some(result) = self.shared.results.get(&key) {
            self.shared.tenants.admit(tenant, now_s, true);
            self.shared.metrics.on_submitted();
            self.shared.metrics.on_result_cache_hit();
            self.shared.metrics.on_served();
            return Ok(Admitted::Hit(result));
        }
        // Quota gate: a cache-missing submission costs one rate token.
        if !self.shared.tenants.admit(tenant, now_s, false) {
            self.shared.metrics.on_quota_rejected();
            self.shared.metrics.on_rejected();
            return Err(EngineError::Rejected(RejectReason::QuotaExceeded {
                tenant,
            }));
        }
        // SLO gate: probabilistically shed new work while the end-to-end
        // p99 breaches the configured target. The p99 read takes the
        // metrics lock, so it is skipped when shedding is off.
        if self.shared.shedder.is_enabled()
            && self
                .shared
                .shedder
                .should_shed(self.shared.metrics.e2e_p99())
        {
            self.shared.metrics.on_shed();
            self.shared.metrics.on_rejected();
            return Err(EngineError::Rejected(RejectReason::Overloaded));
        }
        match self.shared.flight.join(key) {
            Flight::Follower(slot) => {
                self.shared.metrics.on_submitted();
                self.shared.metrics.on_coalesced();
                self.shared.tenants.on_coalesced(tenant, now_s);
                Ok(Admitted::Follower(slot))
            }
            Flight::Leader(slot) => {
                // Fair-share gate: the tenant must hold a queue slot
                // within its share before the job may run.
                if !self.shared.tenants.try_reserve_queue_slot(tenant, now_s) {
                    self.shared.flight.abandon(&key, &slot);
                    self.shared.metrics.on_quota_rejected();
                    self.shared.metrics.on_rejected();
                    return Err(EngineError::Rejected(RejectReason::QuotaExceeded {
                        tenant,
                    }));
                }
                Ok(Admitted::Leader(Job {
                    query,
                    key,
                    slot,
                    submitted: Instant::now(),
                }))
            }
        }
    }

    /// Rejects an admitted leader after [`Self::shutdown`]: releases its
    /// tenant queue slot and retires its flight. Any follower that slipped
    /// in during this window wakes with `WorkerLost`.
    fn unwind_leader(&self, job: Job) -> EngineError {
        let tenant = job.query.tenant();
        let (key, slot) = (job.key, Arc::clone(&job.slot));
        // The rejected Job abandons the slot on drop, before the table
        // entry is retired.
        drop(job);
        self.shared.tenants.release_queue_slot(tenant);
        self.shared.flight.abandon(&key, &slot);
        self.shared.metrics.on_rejected();
        EngineError::Rejected(RejectReason::ShuttingDown)
    }

    /// Answers a query on the calling thread. A cache hit returns at
    /// once and a follower waits for its flight's leader; a leader solves
    /// here (deadline gates, `catch_unwind`, both cache layers, metrics).
    /// An evaluator panic is returned as a typed error; the calling
    /// thread carries on. Leaders are bounded by the number of calling
    /// threads and, per tenant, by the fair share.
    ///
    /// # Errors
    ///
    /// [`EngineError::Rejected`] with [`RejectReason::QuotaExceeded`]
    /// when the query's tenant is out of rate tokens or fair share
    /// (retryable after a refill interval), [`RejectReason::Overloaded`]
    /// when the SLO shedder rejects new work during a p99 breach, or
    /// [`RejectReason::ShuttingDown`] for a new leader after
    /// [`Self::shutdown`]. Cache hits are exempt from quotas and
    /// shedding — they cost nothing to serve. Otherwise any evaluation
    /// error.
    pub fn evaluate(&self, query: QosQuery) -> EngineResult {
        match self.admit(query)? {
            Admitted::Hit(result) => result,
            // An abandoned flight is `WorkerLost`.
            Admitted::Follower(slot) => slot.wait().unwrap_or(Err(EngineError::WorkerLost)),
            Admitted::Leader(job) => {
                // A shut-down engine starts no new computation.
                if self.shared.shutting_down.load(Ordering::Acquire) {
                    return Err(self.unwind_leader(job));
                }
                self.shared.metrics.on_submitted();
                let result = serve_job(&self.shared, &job);
                // Held through the solve: concurrent inline misses of one
                // tenant stay within its fair share.
                self.shared.tenants.release_queue_slot(job.query.tenant());
                result
            }
        }
    }

    /// Answers a whole batch through [`Self::evaluate`], fanned out on
    /// [`EngineConfig::workers`] executor workers; answers come back in
    /// input order. Rejections are answers like any other.
    #[must_use]
    pub fn run_all(&self, queries: &[QosQuery]) -> Vec<EngineResult> {
        Executor::new(self.config.workers).map_indexed(queries, |&q| self.evaluate(q))
    }

    /// A consistent snapshot of the engine's counters, including the
    /// shedder's live rejection-probability gauge.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot();
        snap.shed_probability = self.shared.shedder.probability();
        snap
    }

    /// Per-tenant admission counters, ordered by tenant id.
    #[must_use]
    pub fn tenant_metrics(&self) -> Vec<TenantSnapshot> {
        self.shared.tenants.snapshot()
    }

    /// The configuration this engine was started with.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Per-shard cache counters for both layers — the diagnosis surface
    /// for warm-path lock contention.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            result: self.shared.results.stats(),
            pk: self.shared.pk_cache.stats(),
        }
    }

    /// Every successfully computed result currently cached, sorted by
    /// encoded key for a deterministic snapshot order. Error outcomes are
    /// never cached, so every exported value is a [`QosValue`].
    #[must_use]
    pub fn export_result_cache(&self) -> Vec<(QueryKey, QosValue)> {
        let mut out = Vec::new();
        self.shared.results.for_each(|k, v| {
            if let Ok(value) = v {
                out.push((*k, value.clone()));
            }
        });
        out.sort_by_key(|(k, _)| k.encode());
        out
    }

    /// Every cached `P(k)` capacity distribution, sorted by encoded key.
    #[must_use]
    pub fn export_pk_cache(&self) -> Vec<(CapacityKey, Vec<f64>)> {
        let mut out = Vec::new();
        self.shared.pk_cache.for_each(|k, v| {
            out.push((*k, v.as_ref().clone()));
        });
        out.sort_by_key(|(k, _)| k.encode());
        out
    }

    /// Seeds the result cache with a previously exported entry (snapshot
    /// warm-start). Bypasses admission and metrics: preloading is
    /// provisioning, not serving.
    pub fn preload_result(&self, key: QueryKey, value: QosValue) {
        self.shared.results.insert(key, Ok(value));
    }

    /// Seeds the `P(k)` cache with a previously exported entry.
    pub fn preload_pk(&self, key: CapacityKey, pk: Vec<f64>) {
        self.shared.pk_cache.insert(key, Arc::new(pk));
    }

    /// Stops starting new solves: from now on a query that would lead a
    /// flight is rejected with [`RejectReason::ShuttingDown`]. Leaders
    /// already solving finish on their own threads, and cache hits and
    /// their followers are still served. Idempotent. Takes `&self` so an
    /// `Arc<Engine>` shared across connection handlers can still be wound
    /// down by its owner.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QueryError;
    use crate::eval::{direct_eval, QosValue};
    use crate::query::{Measure, QuerySpec, Scheme};
    use crate::tenant::TenantId;

    /// Parks the first `parked` solves until the gate opens; later solves
    /// run straight through, so an over-admitted miss cannot hang.
    struct Gate {
        parked: usize,
        /// (solves entered, gate open)
        state: std::sync::Mutex<(usize, bool)>,
        changed: std::sync::Condvar,
    }

    impl Gate {
        fn parking(parked: usize) -> Self {
            Gate {
                parked,
                state: std::sync::Mutex::new((0, false)),
                changed: std::sync::Condvar::new(),
            }
        }
        fn wait_until(&self, done: impl Fn(&(usize, bool)) -> bool) {
            let mut st = self.state.lock().unwrap();
            while !done(&st) {
                st = self.changed.wait(st).unwrap();
            }
        }
        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    impl Evaluator for Gate {
        fn solve_pk(&self, query: &QosQuery) -> Result<Vec<f64>, EngineError> {
            let parked = {
                let mut st = self.state.lock().unwrap();
                st.0 += 1;
                st.0 <= self.parked
            };
            if parked {
                self.changed.notify_all();
                self.wait_until(|st| st.1);
            }
            DefaultEvaluator.solve_pk(query)
        }
    }

    fn small_engine(workers: usize, queue: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            queue_capacity: queue,
            result_cache: 128,
            pk_cache: 16,
            ..EngineConfig::default()
        })
    }

    fn y2(lambda: f64) -> QosQuery {
        QuerySpec::paper_defaults(
            lambda,
            Measure::QosAtLeast {
                scheme: Scheme::Oaq,
                y: 2,
            },
        )
        .build()
        .unwrap()
    }

    #[test]
    fn serves_and_caches_bit_identically() {
        let engine = small_engine(2, 64);
        let q = y2(5e-5);
        let direct = direct_eval(&q).unwrap();
        let cold = engine.evaluate(q).unwrap();
        let warm = engine.evaluate(q).unwrap();
        assert_eq!(cold, direct, "cold engine answer == direct evaluation");
        assert_eq!(warm, direct, "cache hit == direct evaluation");
        let m = engine.metrics();
        assert_eq!(m.submitted, 2);
        assert_eq!(m.served, 2);
        assert_eq!(m.result_cache_hits, 1);
        assert_eq!(m.pk_solves, 1);
    }

    /// A batch of eight identical queries on four workers: one solves,
    /// the rest coalesce onto it or hit the cache, in input order.
    #[test]
    fn identical_inflight_queries_coalesce() {
        let engine = small_engine(4, 64);
        let q = y2(3e-5);
        let answers = engine.run_all(&[q; 8]);
        assert_eq!(answers.len(), 8);
        let first = answers[0].clone().unwrap();
        for a in &answers {
            assert_eq!(a.as_ref().unwrap(), &first);
        }
        let m = engine.metrics();
        assert_eq!(m.submitted, 8);
        assert!(
            m.coalesced + m.result_cache_hits >= 7,
            "at most one of 8 identical queries may compute: {m:?}"
        );
        assert_eq!(m.pk_solves, 1);
    }

    /// While a leader is solving, `shutdown` lets it answer correctly;
    /// a fresh miss is rejected with its flight and tenant slot unwound;
    /// a cached hit is still served.
    #[test]
    fn shutdown_lets_a_solving_leader_answer() {
        let gate = Arc::new(Gate::parking(1));
        let engine = Engine::with_evaluator(
            EngineConfig::default(),
            Arc::clone(&gate) as Arc<dyn Evaluator>,
        );
        let engine = &engine;
        let cached = y2(5e-5);
        engine.preload_result(cached.key(), direct_eval(&cached).unwrap());
        let leading = y2(2e-5);
        let fresh = y2(9e-5).for_tenant(TenantId(2));
        let in_queue = |t: TenantId| {
            engine
                .tenant_metrics()
                .into_iter()
                .find(|s| s.tenant == t)
                .map_or(0, |s| s.in_queue)
        };
        // Observe while the leader is parked, open the gate, and only
        // then assert, so a failure cannot strand the parked thread.
        let (rejected, flights, fresh_slots, hit, answer) = std::thread::scope(|s| {
            let leader = s.spawn(move || engine.evaluate(leading));
            gate.wait_until(|st| st.0 >= 1);
            engine.shutdown();
            let rejected = engine.evaluate(fresh);
            let flights = engine.shared.flight.len();
            let fresh_slots = in_queue(fresh.tenant());
            let hit = engine.evaluate(cached);
            gate.open();
            (rejected, flights, fresh_slots, hit, leader.join().unwrap())
        });
        assert!(
            matches!(
                rejected,
                Err(EngineError::Rejected(RejectReason::ShuttingDown))
            ),
            "a fresh miss after shutdown is rejected: {rejected:?}"
        );
        assert_eq!(flights, 1, "only the solving leader's flight is open");
        assert_eq!(fresh_slots, 0, "the rejected miss gave its slot back");
        assert_eq!(hit.unwrap(), direct_eval(&cached).unwrap());
        assert_eq!(answer.unwrap(), direct_eval(&leading).unwrap());
        assert!(engine.shared.flight.is_empty());
        assert_eq!(in_queue(leading.tenant()), 0);
        assert_eq!(engine.metrics().rejected, 1);
    }

    #[test]
    fn tau_sweep_reuses_one_capacity_solve() {
        // The two-level cache contract: sweeping τ at fixed (λ, φ, η)
        // must run exactly one CTMC solve.
        let engine = small_engine(1, 64);
        for i in 0..10u32 {
            let mut spec = QuerySpec::paper_defaults(
                5e-5,
                Measure::QosAtLeast {
                    scheme: Scheme::Oaq,
                    y: 2,
                },
            );
            spec.tau = 1.0 + f64::from(i) * 0.5;
            engine.evaluate(spec.build().unwrap()).unwrap();
        }
        let m = engine.metrics();
        assert_eq!(m.pk_solves, 1, "τ sweep at fixed scenario: one solve");
        assert_eq!(m.pk_cache_hits, 9);
        assert_eq!(m.result_cache_hits, 0, "all ten results are distinct");
    }

    /// Panics on every odd `P(k)` solve (the 1st, 3rd, …), counts calls.
    struct FlakyEvaluator {
        calls: std::sync::atomic::AtomicU64,
    }

    impl Evaluator for FlakyEvaluator {
        fn solve_pk(&self, query: &QosQuery) -> Result<Vec<f64>, EngineError> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            assert!(n < 1_000, "runaway respawn loop");
            if n.is_multiple_of(2) {
                std::panic::panic_any(crate::INJECTED_FAULT);
            }
            query
                .capacity_params()
                .distribution()
                .map_err(EngineError::from)
        }
    }

    fn flaky_engine() -> Engine {
        crate::silence_injected_panics();
        Engine::with_evaluator(
            EngineConfig {
                workers: 2,
                queue_capacity: 32,
                result_cache: 64,
                pk_cache: 16,
                ..EngineConfig::default()
            },
            Arc::new(FlakyEvaluator {
                calls: std::sync::atomic::AtomicU64::new(0),
            }),
        )
    }

    /// Supervision of inline misses: every injected panic is a typed
    /// `EvalPanicked` for the `evaluate` caller, whose thread carries on;
    /// every other answer is bit-identical.
    #[test]
    fn panicking_evaluator_inline_answers_typed_and_caller_survives() {
        let engine = flaky_engine();
        let mut panicked = 0;
        let mut ok = 0;
        for i in 0..20u32 {
            let q = y2(1e-5 + f64::from(i) * 1e-6);
            match engine.evaluate(q) {
                Ok(v) => {
                    assert_eq!(v, direct_eval(&q).unwrap(), "bit-identical");
                    ok += 1;
                }
                Err(EngineError::Query(QueryError::EvalPanicked)) => panicked += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // Twenty distinct scenarios, one solve each, alternately panicking.
        assert_eq!((ok, panicked), (10, 10));
        let m = engine.metrics();
        assert_eq!(m.eval_panics, 10, "one typed answer per injected panic");
        // The caller that absorbed ten panics still serves: a cached
        // answer, then a fresh scenario whose first solve panics and whose
        // retry succeeds.
        let q = y2(1e-5 + 1e-6);
        assert_eq!(engine.evaluate(q).unwrap(), direct_eval(&q).unwrap());
        let fresh = y2(4e-5);
        assert!(matches!(
            engine.evaluate(fresh),
            Err(EngineError::Query(QueryError::EvalPanicked))
        ));
        assert_eq!(
            engine.evaluate(fresh).unwrap(),
            direct_eval(&fresh).unwrap()
        );
    }

    /// Eight callers race on one fresh query: one leads and solves inline,
    /// the rest coalesce or hit the cache, all bit-identically.
    #[test]
    fn concurrent_inline_misses_solve_once() {
        let engine = small_engine(1, 64);
        let q = y2(6e-5);
        let direct = direct_eval(&q).unwrap();
        let barrier = std::sync::Barrier::new(8);
        let answers: Vec<EngineResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        engine.evaluate(q)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for a in answers {
            assert_eq!(a.unwrap(), direct, "bit-identical to direct_eval");
        }
        let m = engine.metrics();
        assert_eq!(m.pk_solves, 1, "one leader, one solve");
        assert_eq!(m.submitted, 8);
        assert_eq!(m.submitted, m.served + m.coalesced, "{m:?}");
    }

    /// After shutdown a new leader is rejected, and gives back its flight
    /// and tenant queue slot.
    #[test]
    fn evaluate_after_shutdown_is_rejected_and_unwound() {
        let engine = small_engine(1, 64);
        engine.shutdown();
        let q = y2(7e-5);
        assert!(matches!(
            engine.evaluate(q),
            Err(EngineError::Rejected(RejectReason::ShuttingDown))
        ));
        assert!(engine.shared.flight.is_empty(), "the flight was retired");
        let t = engine
            .tenant_metrics()
            .into_iter()
            .find(|t| t.tenant == q.tenant())
            .unwrap();
        assert_eq!(t.in_queue, 0, "the queue slot was released");
        assert_eq!(engine.metrics().rejected, 1);
    }

    /// Inline leaders hold their tenant queue slot for the whole solve:
    /// with a fair share of `ceil(8 · 0.25) = 2` slots, a third concurrent
    /// `evaluate` miss from the same tenant is a `QuotaExceeded`, while
    /// another tenant is still served.
    #[test]
    fn inline_misses_are_bounded_by_the_tenant_share() {
        let gate = Arc::new(Gate::parking(2));
        let engine = Engine::with_evaluator(
            EngineConfig {
                queue_capacity: 8,
                quota: QuotaPolicy {
                    queue_share: 0.25,
                    ..QuotaPolicy::default()
                },
                ..EngineConfig::default()
            },
            Arc::clone(&gate) as Arc<dyn Evaluator>,
        );
        let engine = &engine;
        let flooder = TenantId(1);
        let q = |i: u32| y2(1e-5 + f64::from(i) * 1e-6).for_tenant(flooder);
        let in_queue = |t: TenantId| {
            engine
                .tenant_metrics()
                .into_iter()
                .find(|s| s.tenant == t)
                .map_or(0, |s| s.in_queue)
        };
        let polite = y2(9e-5).for_tenant(TenantId(2));
        // Observe while the two leaders are parked, open the gate, and
        // only then assert, so a failure cannot strand the parked threads.
        let (held, third, other, answers) = std::thread::scope(|s| {
            let solving: Vec<_> = (0..2)
                .map(|i| s.spawn(move || engine.evaluate(q(i))))
                .collect();
            gate.wait_until(|st| st.0 >= 2);
            let held = in_queue(flooder);
            let third = engine.evaluate(q(2));
            let other = engine.evaluate(polite);
            gate.open();
            let answers: Vec<EngineResult> =
                solving.into_iter().map(|h| h.join().unwrap()).collect();
            (held, third, other, answers)
        });
        assert_eq!(held, 2, "both solving leaders hold a slot");
        assert!(
            matches!(
                third,
                Err(EngineError::Rejected(RejectReason::QuotaExceeded { tenant }))
                    if tenant == flooder
            ),
            "a miss beyond the share is rejected: {third:?}"
        );
        assert_eq!(
            other.unwrap(),
            direct_eval(&polite).unwrap(),
            "another tenant keeps its own share"
        );
        for (i, a) in (0..2).zip(answers) {
            assert_eq!(a.unwrap(), direct_eval(&q(i)).unwrap());
        }
        assert_eq!(
            in_queue(flooder),
            0,
            "answered leaders give their slots back"
        );
        // The share is free again: the rejected miss now goes through.
        assert_eq!(engine.evaluate(q(2)).unwrap(), direct_eval(&q(2)).unwrap());
    }

    /// An expired deadline is a typed per-query error; queries without a
    /// deadline are untouched.
    #[test]
    fn deadlines_are_enforced_per_query() {
        let engine = small_engine(1, 64);
        // A deadline far too short for a cold CTMC solve.
        let hurried = y2(4e-5).with_deadline_ms(1e-3).unwrap();
        match engine.evaluate(hurried) {
            Err(EngineError::Query(QueryError::DeadlineExceeded { waited_ms, .. })) => {
                assert!(waited_ms >= 1e-3);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        // A generous deadline passes untouched, bit-identically.
        let relaxed = y2(4e-5).with_deadline_ms(60_000.0).unwrap();
        let v = engine.evaluate(relaxed).unwrap();
        assert_eq!(v, direct_eval(&y2(4e-5)).unwrap());
        assert!(engine.metrics().deadline_expired >= 1);
    }

    /// Quota isolation: a flood from four concurrent callers collects
    /// `QuotaExceeded` while a polite tenant keeps being served.
    #[test]
    fn flooding_tenant_is_isolated_by_quota() {
        let engine = Engine::new(EngineConfig {
            workers: 4,
            queue_capacity: 16,
            result_cache: 1,
            pk_cache: 16,
            quota: QuotaPolicy {
                rate_per_sec: 0.0,
                burst: 5.0,
                queue_share: 0.25,
            },
            ..EngineConfig::default()
        });
        let flooder = TenantId(1);
        let polite = TenantId(2);
        let flood: Vec<QosQuery> = (0..50u32)
            .map(|i| y2(1e-5 + f64::from(i) * 1e-6).for_tenant(flooder))
            .collect();
        let mut flooder_rejected = 0;
        for r in engine.run_all(&flood) {
            match r {
                Ok(_) => {}
                Err(EngineError::Rejected(RejectReason::QuotaExceeded { tenant })) => {
                    assert_eq!(tenant, flooder);
                    flooder_rejected += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            flooder_rejected >= 45,
            "a 5-burst bucket must reject a 50-flood: {flooder_rejected}"
        );
        // The polite tenant (fresh bucket) is admitted and served.
        let q = y2(9e-5).for_tenant(polite);
        assert!(engine.evaluate(q).is_ok(), "other tenants keep their share");
        let snaps = engine.tenant_metrics();
        let f = snaps.iter().find(|s| s.tenant == flooder).unwrap();
        let p = snaps.iter().find(|s| s.tenant == polite).unwrap();
        assert_eq!(f.quota_rejected, flooder_rejected);
        assert_eq!(p.quota_rejected, 0);
    }

    /// The SLO shedder rejects with `Overloaded` during a breach and the
    /// gauge surfaces in the metrics snapshot.
    #[test]
    fn slo_breach_sheds_with_typed_rejection() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            queue_capacity: 64,
            result_cache: 1,
            pk_cache: 16,
            // An SLO no real solve can meet: every completion breaches.
            shed: ShedPolicy::with_slo(1e-12),
            ..EngineConfig::default()
        });
        let mut shed = 0;
        for i in 0..400u32 {
            let q = y2(1e-5 + f64::from(i) * 1e-6);
            match engine.evaluate(q) {
                Ok(_) => {}
                Err(EngineError::Rejected(RejectReason::Overloaded)) => shed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(shed > 0, "a breached SLO must shed some work");
        let m = engine.metrics();
        assert_eq!(m.shed, shed);
        assert!(m.shed_probability > 0.0, "the gauge reflects the breach");
    }

    /// The accounting invariant survives the admission gates under four
    /// concurrent callers: submitted == served + coalesced, with
    /// rejections outside.
    #[test]
    fn accounting_invariant_holds_with_policies_enabled() {
        let engine = Engine::new(EngineConfig {
            workers: 4,
            queue_capacity: 8,
            result_cache: 64,
            pk_cache: 16,
            quota: QuotaPolicy {
                rate_per_sec: 50.0,
                burst: 20.0,
                queue_share: 0.5,
            },
            ..EngineConfig::default()
        });
        let queries: Vec<QosQuery> = (0..60u32)
            .map(|i| y2(1e-5 + f64::from(i % 7) * 1e-6).for_tenant(TenantId(i % 3)))
            .collect();
        let answers = engine.run_all(&queries);
        let m = engine.metrics();
        assert_eq!(
            m.submitted,
            m.served + m.coalesced,
            "answered batch: submitted == served + coalesced ({m:?})"
        );
        let rejected = answers
            .iter()
            .filter(|r| matches!(r, Err(EngineError::Rejected(_))))
            .count() as u64;
        assert_eq!(m.rejected, rejected, "rejections sit outside: {m:?}");
    }

    /// `QosValue` answers delivered after supervision remain `Ok` results
    /// from the real evaluator — the wrapper never perturbs values.
    #[test]
    fn supervision_does_not_perturb_values() {
        let engine = small_engine(2, 64);
        for i in 0..10u32 {
            let q = y2(2e-5 + f64::from(i) * 1e-6);
            let got = engine.evaluate(q).unwrap();
            let QosValue::Scalar(x) = got else {
                panic!("scalar expected")
            };
            let QosValue::Scalar(want) = direct_eval(&q).unwrap() else {
                panic!("scalar expected")
            };
            assert!(
                x.to_bits() == want.to_bits(),
                "bit-identical: {x} vs {want}"
            );
        }
    }
}
