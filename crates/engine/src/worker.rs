//! The solving side of the engine: shared state and the supervised
//! per-job code a flight leader runs on its caller's thread.
//!
//! ## Fault model
//!
//! Every query evaluation runs under `catch_unwind`: an evaluator panic
//! is converted into a typed [`QueryError::EvalPanicked`] delivered to
//! the leader *and* every coalesced follower — no waiter ever hangs on a
//! dead computation — and the leader's thread carries on. As a last
//! backstop, [`Job`] abandons its slot on drop — a job discarded without
//! delivery (an unwinding caller, a rejected leader) still wakes its
//! followers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{EngineError, QueryError};
use crate::eval::{Evaluator, QosValue};
use crate::metrics::Metrics;
use crate::query::{CapacityKey, QosQuery, QueryKey};
use crate::shard::{ShardedCache, ShardedFlight};
use crate::shed::Shedder;
use crate::singleflight::{Flight, Slot};
use crate::tenant::TenantTable;

/// The outcome delivered for a query.
pub type EngineResult = Result<QosValue, EngineError>;

type PkResult = Result<Arc<Vec<f64>>, EngineError>;

/// One unit of work: a query that became the leader of its single-flight
/// and must be computed.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) query: QosQuery,
    pub(crate) key: QueryKey,
    pub(crate) slot: Arc<Slot<EngineResult>>,
    pub(crate) submitted: Instant,
}

impl Job {
    /// The serving deadline as a duration, if the query set one.
    fn deadline(&self) -> Option<Duration> {
        self.query
            .deadline_ms()
            .map(|ms| Duration::from_secs_f64(ms / 1e3))
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // Backstop: a job discarded without delivery (a rejected leader, a
        // caller unwinding before completion) must not leave followers
        // blocked. `abandon` is a no-op once the slot resolved,
        // and the stale flight-table entry self-heals on the next join.
        self.slot.abandon();
    }
}

/// The engine's state, shared by every thread that calls into it. Both cache layers and
/// both in-flight tables are key-hash sharded so the warm path (a
/// result-cache hit per query) stops serializing on one mutex — see
/// [`crate::shard`].
#[derive(Debug)]
pub(crate) struct Shared {
    /// Set by [`crate::Engine::shutdown`] (`Release`) and read by every
    /// new leader in [`crate::Engine::evaluate`] (`Acquire`): once it is
    /// set, no new leader may solve.
    pub(crate) shutting_down: AtomicBool,
    pub(crate) results: ShardedCache<QueryKey, EngineResult>,
    pub(crate) flight: ShardedFlight<QueryKey, EngineResult>,
    pub(crate) pk_cache: ShardedCache<CapacityKey, Arc<Vec<f64>>>,
    pub(crate) pk_flight: ShardedFlight<CapacityKey, PkResult>,
    pub(crate) metrics: Metrics,
    pub(crate) tenants: TenantTable,
    pub(crate) shedder: Shedder,
    pub(crate) evaluator: Arc<dyn Evaluator>,
    pub(crate) epoch: Instant,
}

impl Shared {
    /// Seconds since the engine started — the injected clock the tenant
    /// token buckets refill against.
    pub(crate) fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Abandons a flight when dropped without [`complete`](Self::complete) —
/// the panic safety net that keeps followers from blocking forever.
struct AbandonGuard<'a, K: Eq + std::hash::Hash + Copy, V: Clone> {
    flight: &'a ShardedFlight<K, V>,
    key: K,
    slot: Arc<Slot<V>>,
    armed: bool,
}

impl<'a, K: Eq + std::hash::Hash + Copy, V: Clone> AbandonGuard<'a, K, V> {
    fn new(flight: &'a ShardedFlight<K, V>, key: K, slot: Arc<Slot<V>>) -> Self {
        AbandonGuard {
            flight,
            key,
            slot,
            armed: true,
        }
    }

    /// Publishes `value` and retires the flight normally.
    fn complete(mut self, value: V) {
        self.flight.complete(&self.key, &self.slot, value);
        self.armed = false;
    }
}

impl<K: Eq + std::hash::Hash + Copy, V: Clone> Drop for AbandonGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            self.flight.abandon(&self.key, &self.slot);
        }
    }
}

/// The capacity distribution for `query`'s (λ, φ, η) scenario: LRU cache
/// first, then single-flight so concurrent misses of the same scenario run
/// one CTMC solve.
///
/// A panic inside the evaluator's solve unwinds through the leader arm;
/// the guard abandons the pk flight so followers (other callers) observe
/// [`EngineError::WorkerLost`] instead of blocking — a terminal, typed
/// outcome for their queries too.
fn capacity_pk(shared: &Shared, query: &QosQuery) -> PkResult {
    let key = query.capacity_key();
    if let Some(pk) = shared.pk_cache.get(&key) {
        shared.metrics.on_pk_cache_hit();
        return Ok(pk);
    }
    match shared.pk_flight.join(key) {
        Flight::Follower(slot) => {
            shared.metrics.on_pk_cache_hit();
            slot.wait().unwrap_or(Err(EngineError::WorkerLost))
        }
        Flight::Leader(slot) => {
            let guard = AbandonGuard::new(&shared.pk_flight, key, slot);
            shared.metrics.on_pk_solve();
            let result: PkResult = shared.evaluator.solve_pk(query).map(Arc::new);
            if let Ok(pk) = &result {
                shared.pk_cache.insert(key, Arc::clone(pk));
            }
            guard.complete(result.clone());
            result
        }
    }
}

/// Computes one query through the engine's evaluator, reusing the cached
/// `P(k)` layer when the measure needs it.
fn compute(shared: &Shared, query: &QosQuery) -> EngineResult {
    if query.measure().needs_capacity_solve() {
        let pk = capacity_pk(shared, query)?;
        Ok(shared.evaluator.eval_with_pk(query, &pk))
    } else {
        Ok(shared.evaluator.eval_cheap(query))
    }
}

/// Delivers one job on the thread of the [`crate::Engine::evaluate`]
/// caller that leads its flight: deadline gates, supervised compute,
/// caching and metrics. Returns the result it published to the job's
/// followers, so the leader does not read its own slot back. The tenant
/// queue slot is the caller's to release once the job is answered, so the
/// solve counts against the tenant's fair share.
pub(crate) fn serve_job(shared: &Shared, job: &Job) -> EngineResult {
    let waited = job.submitted.elapsed();
    let guard = AbandonGuard::new(&shared.flight, job.key, Arc::clone(&job.slot));

    // Deadline gate 1: shed already-late work before paying for a solve.
    let deadline = job.deadline();
    if let Some(d) = deadline {
        if waited > d {
            shared.metrics.on_deadline_expired();
            shared.metrics.on_served();
            shared.tenants.on_completed(job.query.tenant());
            let late = Err(EngineError::Query(QueryError::DeadlineExceeded {
                deadline_ms: d.as_secs_f64() * 1e3,
                waited_ms: waited.as_secs_f64() * 1e3,
            }));
            guard.complete(late.clone());
            return late;
        }
    }

    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| compute(shared, &job.query)));
    shared.metrics.record_solve(t0.elapsed().as_secs_f64());
    let result = match outcome {
        Ok(r) => r,
        Err(_) => {
            shared.metrics.on_eval_panic();
            Err(EngineError::Query(QueryError::EvalPanicked))
        }
    };
    if result.is_ok() {
        // Cache even when the deadline lapsed mid-solve: the work is done
        // and the next identical query should not pay for it again.
        shared.results.insert(job.key, result.clone());
    }
    let elapsed = job.submitted.elapsed();
    let result = match deadline {
        Some(d) if elapsed > d => {
            // Deadline gate 2: the solve finished too late to honour.
            shared.metrics.on_deadline_expired();
            Err(EngineError::Query(QueryError::DeadlineExceeded {
                deadline_ms: d.as_secs_f64() * 1e3,
                waited_ms: elapsed.as_secs_f64() * 1e3,
            }))
        }
        _ => result,
    };
    // Count before publishing: a waiter that wakes on the publish must
    // already observe this query in the served counters.
    shared.metrics.on_served();
    shared.tenants.on_completed(job.query.tenant());
    shared.metrics.record_end_to_end(elapsed.as_secs_f64());
    guard.complete(result.clone());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DefaultEvaluator;
    use crate::query::{Measure, QuerySpec, Scheme};
    use crate::shed::ShedPolicy;
    use crate::tenant::QuotaPolicy;

    fn shared() -> Shared {
        Shared {
            shutting_down: AtomicBool::new(false),
            results: ShardedCache::new(64, 4),
            flight: ShardedFlight::new(4),
            pk_cache: ShardedCache::new(8, 4),
            pk_flight: ShardedFlight::new(4),
            metrics: Metrics::new(),
            tenants: TenantTable::new(QuotaPolicy::default(), 16),
            shedder: Shedder::new(ShedPolicy::default(), 0),
            evaluator: Arc::new(DefaultEvaluator),
            epoch: Instant::now(),
        }
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
    fn pk_layer_solves_once_per_scenario() {
        let sh = shared();
        let mut spec = QuerySpec::paper_defaults(
            5e-5,
            Measure::QosAtLeast {
                scheme: Scheme::Oaq,
                y: 2,
            },
        );
        let a = compute(&sh, &spec.build().unwrap()).unwrap();
        spec.tau = 7.0; // same (λ, φ, η): the capacity solve must be reused
        let b = compute(&sh, &spec.build().unwrap()).unwrap();
        assert_ne!(a, b);
        let m = sh.metrics.snapshot();
        assert_eq!(m.pk_solves, 1, "one scenario, one CTMC solve");
        assert_eq!(m.pk_cache_hits, 1);
    }

    #[test]
    fn abandon_guard_wakes_followers_on_panic() {
        let sh = shared();
        let q = y2(5e-5);
        let key = q.key();
        let Flight::Leader(slot) = sh.flight.join(key) else {
            panic!("leader expected")
        };
        let Flight::Follower(follower) = sh.flight.join(key) else {
            panic!("follower expected")
        };
        // std's scope propagates the child panic at scope exit; contain it
        // so the test observes only the guard's effect.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _guard = AbandonGuard::new(&sh.flight, key, slot);
                    panic!("worker dies mid-compute");
                });
            });
        }));
        assert_eq!(follower.wait(), None, "follower must not block forever");
        assert!(sh.flight.is_empty());
    }

    /// A panicking evaluator is converted into `EvalPanicked` for the
    /// leader and its followers, and the leader's thread carries on.
    #[test]
    fn supervised_panic_becomes_a_typed_answer() {
        struct Bomb;
        impl Evaluator for Bomb {
            fn solve_pk(&self, _query: &QosQuery) -> Result<Vec<f64>, EngineError> {
                std::panic::panic_any(crate::INJECTED_FAULT);
            }
        }

        let mut sh = shared();
        sh.evaluator = Arc::new(Bomb);
        let q = y2(5e-5);
        let key = q.key();
        let Flight::Leader(slot) = sh.flight.join(key) else {
            panic!("leader expected")
        };
        let Flight::Follower(follower) = sh.flight.join(key) else {
            panic!("follower expected")
        };
        let job = Job {
            query: q,
            key,
            slot: Arc::clone(&slot),
            submitted: Instant::now(),
        };
        crate::silence_injected_panics();
        let returned = serve_job(&sh, &job);
        assert!(matches!(
            returned,
            Err(EngineError::Query(QueryError::EvalPanicked))
        ));
        assert!(matches!(
            slot.wait(),
            Some(Err(EngineError::Query(QueryError::EvalPanicked)))
        ));
        assert!(matches!(
            follower.wait(),
            Some(Err(EngineError::Query(QueryError::EvalPanicked)))
        ));
        let m = sh.metrics.snapshot();
        assert_eq!(m.eval_panics, 1);
        assert_eq!(m.served, 1, "a panicked query still counts as answered");
        assert!(sh.flight.is_empty(), "the flight was retired");
    }

    /// A job whose deadline lapsed before its solve starts is shed: its
    /// waiters get `DeadlineExceeded` and no solve runs.
    #[test]
    fn expired_deadline_is_shed_before_solving() {
        let sh = shared();
        let q = y2(5e-5).with_deadline_ms(0.01).unwrap();
        let key = q.key();
        let Flight::Leader(slot) = sh.flight.join(key) else {
            panic!("leader expected")
        };
        let job = Job {
            query: q,
            key,
            slot: Arc::clone(&slot),
            submitted: Instant::now() - Duration::from_millis(50),
        };
        let returned = serve_job(&sh, &job);
        assert_eq!(
            slot.wait().as_ref(),
            Some(&returned),
            "returns what it published"
        );
        match slot.wait() {
            Some(Err(EngineError::Query(QueryError::DeadlineExceeded {
                deadline_ms,
                waited_ms,
            }))) => {
                assert!((deadline_ms - 0.01).abs() < 1e-9);
                assert!(waited_ms >= 50.0);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let m = sh.metrics.snapshot();
        assert_eq!(m.deadline_expired, 1);
        assert_eq!(m.pk_solves, 0, "late work must not pay for a solve");
        assert_eq!(m.served, 1);
    }

    /// A dropped job (a rejected leader) abandons its slot so followers
    /// wake.
    #[test]
    fn dropped_job_wakes_its_waiters() {
        let sh = shared();
        let q = y2(5e-5);
        let key = q.key();
        let Flight::Leader(slot) = sh.flight.join(key) else {
            panic!("leader expected")
        };
        let job = Job {
            query: q,
            key,
            slot: Arc::clone(&slot),
            submitted: Instant::now(),
        };
        drop(job);
        assert_eq!(slot.wait(), None, "drop abandons the pending slot");
    }
}
