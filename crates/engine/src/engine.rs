//! The engine facade: configuration, submission, tickets, supervision,
//! shutdown.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use oaq_exec::{ExitKind, SupervisedPool};

use crate::error::{EngineError, RejectReason};
use crate::eval::{DefaultEvaluator, Evaluator, QosValue};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::query::{CapacityKey, QosQuery, QueryKey};
use crate::queue::SubmitQueue;
use crate::shard::{resolve_shards, CacheShardStats, ShardedCache, ShardedFlight};
use crate::shed::{ShedPolicy, Shedder};
use crate::singleflight::{Flight, Slot};
use crate::tenant::{QuotaPolicy, TenantId, TenantSnapshot, TenantTable};
use crate::worker::{serve_job, worker_loop, EngineResult, Job, Shared, WorkerExit};

/// Engine sizing and serving-policy knobs. `Default` gives a
/// production-shaped engine with every fault-tolerance limit disabled
/// (no quotas, no SLO shedding); tests shrink the queue to exercise
/// backpressure and turn individual policies on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Worker threads of the pool that serves queued work
    /// ([`Engine::submit`], [`Engine::run_all`]); `0` means one per
    /// available core. The pool starts with the first queued job, so an
    /// engine used only through [`Engine::evaluate`] spawns no thread.
    pub workers: usize,
    /// Bound of the submission queue — the backpressure point.
    pub queue_capacity: usize,
    /// Maximum queries a worker drains per wakeup.
    pub batch_size: usize,
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
            batch_size: 32,
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
    /// The worker count after resolving `0` to the core count
    /// ([`oaq_exec::effective_workers`]).
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

/// A handle to a submitted query's eventual answer.
#[derive(Debug)]
pub struct Ticket {
    inner: TicketInner,
}

#[derive(Debug)]
enum TicketInner {
    Ready(EngineResult),
    Waiting(Arc<Slot<EngineResult>>),
}

/// Blocks until `slot`'s leader publishes; an abandoned flight is
/// [`EngineError::WorkerLost`].
fn await_slot(slot: &Slot<EngineResult>) -> EngineResult {
    slot.wait().unwrap_or(Err(EngineError::WorkerLost))
}

impl Ticket {
    /// Blocks until the answer is available.
    pub fn wait(self) -> EngineResult {
        match self.inner {
            TicketInner::Ready(r) => r,
            TicketInner::Waiting(slot) => await_slot(&slot),
        }
    }

    /// Non-blocking poll: `Some` once the answer is in.
    #[must_use]
    pub fn try_get(&self) -> Option<EngineResult> {
        match &self.inner {
            TicketInner::Ready(r) => Some(r.clone()),
            TicketInner::Waiting(slot) => slot.try_get(),
        }
    }

    /// Whether the answer was already available at submission (a result
    /// cache hit).
    #[must_use]
    pub fn was_immediate(&self) -> bool {
        matches!(self.inner, TicketInner::Ready(_))
    }
}

/// What admission decided for one query.
enum Admitted {
    /// A result-cache hit, answered on the spot.
    Hit(EngineResult),
    /// An identical query is in flight; its answer lands in this slot.
    Follower(Arc<Slot<EngineResult>>),
    /// The caller leads the query's flight and holds a tenant queue slot:
    /// the job must be queued or run inline, or else unwound.
    Leader(Job),
}

/// The in-process QoS query-serving engine.
///
/// Admission, shared by both entry points: validate
/// ([`crate::QuerySpec::build`]) → level-1 result-cache lookup (free for
/// quotas) → per-tenant token bucket → SLO shed coin → single-flight
/// coalescing with any identical in-flight query → per-tenant queue fair
/// share. Then a flight leader runs in one of two places:
///
/// * [`Self::submit`] pushes it onto the bounded queue (typed
///   [`RejectReason::QueueFull`] when saturated) for the supervised,
///   batch-draining worker pool;
/// * [`Self::evaluate`] runs it on the calling thread — the same per-job
///   code a worker runs, without the hand-off to another thread.
///
/// Either way the level-2 `P(k)` cache sits inside the solve.
///
/// Every run is supervised: an evaluator panic becomes a typed
/// [`crate::QueryError::EvalPanicked`] answer for every waiter. A pool
/// worker that caught one is respawned so the pool keeps its configured
/// size. The threads belong to [`oaq_exec::SupervisedPool`], started on
/// the first queued job; this crate contributes only the semantics — the
/// respawn predicate ("work may still be flowing") and the heal metric.
/// Dropping the engine shuts the queue, drains what was admitted, and
/// joins every worker.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<Shared>,
    config: EngineConfig,
    pool: OnceLock<SupervisedPool>,
}

impl Engine {
    /// Builds an engine with the production evaluator. No thread starts
    /// until the first job is queued.
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
        let shared = Arc::new(Shared {
            queue: SubmitQueue::new(config.queue_capacity),
            results: ShardedCache::new(config.result_cache, shards),
            flight: ShardedFlight::new(shards),
            pk_cache: ShardedCache::new(config.pk_cache, shards),
            pk_flight: ShardedFlight::new(shards),
            metrics: Metrics::new(),
            tenants: TenantTable::new(config.quota, config.queue_capacity),
            shedder: Shedder::new(config.shed, config.shed_seed),
            evaluator,
            epoch: Instant::now(),
            batch_size: config.batch_size.max(1),
        });
        Engine {
            shared,
            config,
            pool: OnceLock::new(),
        }
    }

    /// Starts the supervised worker pool unless it already runs.
    fn start_pool(&self) {
        self.pool.get_or_init(|| {
            let work_shared = Arc::clone(&self.shared);
            let respawn_shared = Arc::clone(&self.shared);
            let heal_shared = Arc::clone(&self.shared);
            SupervisedPool::start(
                self.config.effective_workers(),
                move || match worker_loop(&work_shared) {
                    WorkerExit::Drained => ExitKind::Clean,
                    WorkerExit::Panicked => ExitKind::Panicked,
                },
                // A worker died with work (potentially) still flowing:
                // replace it so the pool heals to its configured size. (A
                // panic during the final drain retires the slot instead.)
                move || !respawn_shared.queue.is_drained(),
                move || heal_shared.metrics.on_worker_respawn(),
            )
        });
    }

    /// An engine with default sizing.
    #[must_use]
    pub fn with_defaults() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// Runs every admission step up to the point where a flight leader
    /// needs a thread: result cache, quota, shed, single flight, fair
    /// share. A returned [`Admitted::Leader`] holds a tenant queue slot
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
                // within its weighted share before the job may run.
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

    /// Rejects an admitted leader that cannot run: releases its tenant
    /// queue slot and retires its flight. Any follower that slipped in
    /// during this window wakes with `WorkerLost` and should resubmit.
    fn unwind_leader(&self, job: Job, reason: RejectReason) -> EngineError {
        let tenant = job.query.tenant();
        let (key, slot) = (job.key, Arc::clone(&job.slot));
        // The rejected Job abandons the slot on drop, before the table
        // entry is retired.
        drop(job);
        self.shared.tenants.release_queue_slot(tenant);
        self.shared.flight.abandon(&key, &slot);
        self.shared.metrics.on_rejected();
        EngineError::Rejected(reason)
    }

    /// Submits a validated query to the worker pool, starting the pool if
    /// this is the first queued job.
    ///
    /// Returns immediately: a [`Ticket`] (possibly already resolved, on a
    /// cache hit) or a typed rejection. Never blocks on a full queue —
    /// backpressure is the caller's to handle.
    ///
    /// # Errors
    ///
    /// [`EngineError::Rejected`] with
    /// [`RejectReason::QuotaExceeded`] when the query's tenant is out of
    /// rate tokens or queue share (retryable after a refill interval),
    /// [`RejectReason::Overloaded`] when the SLO shedder rejects new work
    /// during a p99 breach, [`RejectReason::QueueFull`] when the
    /// submission queue is at capacity, or [`RejectReason::ShuttingDown`]
    /// during teardown. Cache hits are exempt from quotas and shedding —
    /// they cost nothing to serve.
    pub fn submit(&self, query: QosQuery) -> Result<Ticket, EngineError> {
        let job = match self.admit(query)? {
            Admitted::Hit(result) => {
                return Ok(Ticket {
                    inner: TicketInner::Ready(result),
                })
            }
            Admitted::Follower(slot) => {
                return Ok(Ticket {
                    inner: TicketInner::Waiting(slot),
                })
            }
            Admitted::Leader(job) => job,
        };
        let slot = Arc::clone(&job.slot);
        // Start the pool before the push: a concurrent `shutdown` that
        // finds the queue closed after a successful push then also finds
        // the pool, and drains and joins it. A refused push leaves an
        // idle pool behind, which is harmless.
        self.start_pool();
        match self.shared.queue.try_push(job) {
            Ok(()) => {
                self.shared.metrics.on_submitted();
                Ok(Ticket {
                    inner: TicketInner::Waiting(slot),
                })
            }
            Err((job, reason)) => Err(self.unwind_leader(job, reason)),
        }
    }

    /// Answers a query synchronously. A cache hit returns at once and a
    /// follower waits for its flight's leader; a leader runs the job on
    /// the calling thread — the same supervised per-job code a pool
    /// worker runs (deadline gates, `catch_unwind`, both cache layers,
    /// metrics) — so a miss pays no thread hand-off and needs no pool.
    /// An evaluator panic is returned as a typed error; the calling
    /// thread carries on.
    ///
    /// Inline leaders never enter the submission queue: they are bounded
    /// by the number of calling threads and, per tenant, by the queue
    /// fair share, but never see [`RejectReason::QueueFull`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::submit`] except `QueueFull`, plus any evaluation
    /// error.
    pub fn evaluate(&self, query: QosQuery) -> EngineResult {
        match self.admit(query)? {
            Admitted::Hit(result) => result,
            Admitted::Follower(slot) => await_slot(&slot),
            Admitted::Leader(job) => {
                // Where `submit` would push: a shut-down engine starts
                // no new computation.
                if self.shared.queue.is_shut_down() {
                    return Err(self.unwind_leader(job, RejectReason::ShuttingDown));
                }
                self.shared.metrics.on_submitted();
                serve_job(&self.shared, &job);
                // Held through the solve: concurrent inline misses of one
                // tenant stay within its fair share.
                self.shared.tenants.release_queue_slot(job.query.tenant());
                await_slot(&job.slot)
            }
        }
    }

    /// Replays a whole batch: submits every query in order — absorbing
    /// queue backpressure by yielding to the workers and retrying — then
    /// waits for every answer. Answers come back in submission order.
    /// Quota and shed rejections are terminal here (they are the policy
    /// speaking, not transient backpressure) and surface in the output.
    #[must_use]
    pub fn run_all(&self, queries: &[QosQuery]) -> Vec<EngineResult> {
        let mut tickets = Vec::with_capacity(queries.len());
        for &q in queries {
            loop {
                match self.submit(q) {
                    Ok(t) => {
                        tickets.push(t);
                        break;
                    }
                    Err(EngineError::Rejected(RejectReason::QueueFull { .. })) => {
                        std::thread::yield_now();
                    }
                    Err(e) => {
                        tickets.push(Ticket {
                            inner: TicketInner::Ready(Err(e)),
                        });
                        break;
                    }
                }
            }
        }
        tickets.into_iter().map(Ticket::wait).collect()
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

    /// Sets a tenant's fair-share weight (default `1.0`). Non-finite or
    /// non-positive weights are coerced back to `1.0`.
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: f64) {
        self.shared
            .tenants
            .set_weight(tenant, weight, self.shared.now_s());
    }

    /// The configuration this engine was started with.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Queries currently waiting in the submission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
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

    /// Stops admission, drains already-admitted work, and joins every
    /// worker if the pool ever started. Idempotent; called automatically
    /// on drop. Takes `&self` so an `Arc<Engine>` shared across connection
    /// handlers can still be wound down by its owner. Inline leaders
    /// already admitted finish on their own threads.
    pub fn shutdown(&self) {
        self.shared.queue.shutdown();
        if let Some(pool) = self.pool.get() {
            pool.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QueryError;
    use crate::eval::{direct_eval, QosValue};
    use crate::query::{Measure, QuerySpec, Scheme};

    fn small_engine(workers: usize, queue: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            queue_capacity: queue,
            batch_size: 4,
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

    #[test]
    fn queue_full_is_a_typed_rejection() {
        // No workers draining: the supervisor spawns 1 worker, but a full
        // queue of slow jobs forces rejection of the overflow.
        let engine = small_engine(1, 2);
        let mut tickets = Vec::new();
        let mut rejected = 0;
        // Distinct lambdas defeat the caches so every job needs a solve.
        for i in 0..40u32 {
            match engine.submit(y2(1e-5 + f64::from(i) * 1e-6)) {
                Ok(t) => tickets.push(t),
                Err(EngineError::Rejected(RejectReason::QueueFull { capacity })) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejected > 0, "a 2-slot queue must reject under a 40-burst");
        let m = engine.metrics();
        assert_eq!(m.rejected, rejected);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn identical_inflight_queries_coalesce() {
        let engine = small_engine(1, 64);
        let q = y2(3e-5);
        let tickets: Vec<Ticket> = (0..8).map(|_| engine.submit(q).unwrap()).collect();
        let answers: Vec<EngineResult> = tickets.into_iter().map(Ticket::wait).collect();
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

    #[test]
    fn shutdown_drains_admitted_work() {
        let engine = small_engine(2, 64);
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| engine.submit(y2(2e-5 + f64::from(i) * 1e-6)).unwrap())
            .collect();
        engine.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "admitted work survives shutdown");
        }
        assert!(matches!(
            engine.submit(y2(9e-5)),
            Err(EngineError::Rejected(RejectReason::ShuttingDown))
        ));
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
                batch_size: 4,
                result_cache: 64,
                pk_cache: 16,
                ..EngineConfig::default()
            },
            Arc::new(FlakyEvaluator {
                calls: std::sync::atomic::AtomicU64::new(0),
            }),
        )
    }

    /// End-to-end supervision of queued work: a panicking evaluator
    /// yields typed `EvalPanicked` answers for every submission, the pool
    /// respawns, and healthy queries afterwards still get correct answers.
    #[test]
    fn panicking_evaluator_heals_and_keeps_serving() {
        let engine = flaky_engine();
        let mut panicked = 0;
        let mut ok = 0;
        for i in 0..20u32 {
            let q = y2(1e-5 + f64::from(i) * 1e-6);
            match engine.submit(q).and_then(Ticket::wait) {
                Ok(v) => {
                    assert_eq!(v, direct_eval(&q).unwrap(), "bit-identical");
                    ok += 1;
                }
                Err(EngineError::Query(QueryError::EvalPanicked))
                | Err(EngineError::WorkerLost) => panicked += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(ok + panicked, 20, "every submit reaches a terminal outcome");
        assert!(ok >= 9, "even solves succeed: {ok}");
        assert!(panicked >= 9, "odd solves panic: {panicked}");
        let m = engine.metrics();
        assert!(m.eval_panics >= 9);
        assert!(
            m.worker_respawns >= m.eval_panics.saturating_sub(2),
            "the pool heals after panics: {} respawns for {} panics",
            m.worker_respawns,
            m.eval_panics
        );
    }

    /// Supervision of inline misses: every injected panic is a typed
    /// `EvalPanicked` for the `evaluate` caller, whose thread carries on;
    /// every other answer is bit-identical; no pool worker is involved.
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
        assert_eq!(m.worker_respawns, 0, "no worker ran, none respawned");
        assert_eq!(m.batch_count, 0);
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

    /// After shutdown an inline leader is rejected where `submit`'s push
    /// would fail, and gives back its flight and tenant queue slot.
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
        use std::sync::{Condvar, Mutex};

        /// Parks the first two solves until the gate opens; later solves
        /// run straight through, so an over-admitted miss cannot hang.
        #[derive(Default)]
        struct Gate {
            /// (solves entered, gate open)
            state: Mutex<(usize, bool)>,
            changed: Condvar,
        }
        impl Gate {
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
                    st.0 <= 2
                };
                if parked {
                    self.changed.notify_all();
                    self.wait_until(|st| st.1);
                }
                DefaultEvaluator.solve_pk(query)
            }
        }

        let gate = Arc::new(Gate::default());
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
        assert_eq!(engine.metrics().batch_count, 0);
    }

    /// An engine used only through `evaluate` starts no pool; a later
    /// `submit` starts it and is served; the engine then drops cleanly.
    #[test]
    fn pool_starts_on_first_queued_job() {
        let engine = small_engine(2, 64);
        for i in 0..4u32 {
            let q = y2(2e-5 + f64::from(i) * 1e-6);
            assert_eq!(engine.evaluate(q).unwrap(), direct_eval(&q).unwrap());
        }
        assert!(
            engine.pool.get().is_none(),
            "evaluate alone spawns no thread"
        );
        let m = engine.metrics();
        assert_eq!(m.batch_count, 0);
        assert_eq!(m.queue_wait.count, 0, "inline misses never queued");
        assert_eq!(m.solve.count, 4);
        assert_eq!(m.end_to_end.count, 4);
        let q = y2(8e-5);
        let got = engine.submit(q).unwrap().wait().unwrap();
        assert_eq!(got, direct_eval(&q).unwrap());
        assert!(engine.pool.get().is_some());
        assert_eq!(engine.metrics().batch_count, 1);
        drop(engine);
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

    /// Quota isolation: a flooding tenant collects `QuotaExceeded` while
    /// a polite tenant keeps being served.
    #[test]
    fn flooding_tenant_is_isolated_by_quota() {
        use crate::tenant::TenantId;

        let engine = Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 16,
            batch_size: 4,
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
        let mut flooder_rejected = 0;
        for i in 0..50u32 {
            let q = y2(1e-5 + f64::from(i) * 1e-6).for_tenant(flooder);
            match engine.submit(q) {
                Ok(t) => drop(t),
                Err(EngineError::Rejected(RejectReason::QuotaExceeded { tenant })) => {
                    assert_eq!(tenant, flooder);
                    flooder_rejected += 1;
                }
                Err(EngineError::Rejected(RejectReason::QueueFull { .. })) => {}
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
            batch_size: 4,
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
                Err(EngineError::Rejected(RejectReason::QueueFull { .. })) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(shed > 0, "a breached SLO must shed some work");
        let m = engine.metrics();
        assert_eq!(m.shed, shed);
        assert!(m.shed_probability > 0.0, "the gauge reflects the breach");
    }

    /// The drained-engine accounting invariant survives the new gates:
    /// submitted == served + coalesced, with rejections outside.
    #[test]
    fn accounting_invariant_holds_with_policies_enabled() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 8,
            batch_size: 4,
            result_cache: 64,
            pk_cache: 16,
            quota: QuotaPolicy {
                rate_per_sec: 50.0,
                burst: 20.0,
                queue_share: 0.5,
            },
            ..EngineConfig::default()
        });
        let mut tickets = Vec::new();
        for i in 0..60u32 {
            let q = y2(1e-5 + f64::from(i % 7) * 1e-6).for_tenant(TenantId(i % 3));
            if let Ok(t) = engine.submit(q) {
                tickets.push(t);
            }
        }
        for t in tickets {
            let _ = t.wait();
        }
        engine.shutdown();
        let m = engine.metrics();
        assert_eq!(
            m.submitted,
            m.served + m.coalesced,
            "drained engine: submitted == served + coalesced ({m:?})"
        );
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
