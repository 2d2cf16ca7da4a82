//! # oaq-engine — a cached, fault-tolerant multi-tenant QoS
//! query-serving engine
//!
//! Turns the closed-form stack of `oaq-analytic` into an in-process
//! serving layer: validated [`QosQuery`] requests pass one admission
//! path, then a cache miss is solved on the calling thread
//! ([`Engine::evaluate`]), with two levels of memoization in between.
//! [`Engine::run_all`] answers a batch by fanning `evaluate` out on the
//! [`oaq_exec::Executor`]; the engine owns no thread of its own.
//!
//! * **Admission** — [`Engine::evaluate`] never queues: a cache hit
//!   returns at once, an identical in-flight query is joined, and a new
//!   leader solves inline with supervision, deadlines, caching and
//!   metrics. Overload is answered by the per-tenant quotas and the SLO
//!   shedder below, each with a typed rejection.
//! * **Multi-tenancy** — every query carries a [`TenantId`]; a
//!   [`QuotaPolicy`] enforces per-tenant token-bucket rates and equal
//!   fair shares of concurrently solving leaders (a miss holds its
//!   share's slot while it solves), so one flooding tenant collects retryable
//!   [`RejectReason::QuotaExceeded`] rejections while the others keep
//!   their latency.
//! * **Supervision** — evaluator panics are caught per query and become
//!   typed [`QueryError::EvalPanicked`] answers for the leader *and*
//!   every coalesced waiter, and the caller's thread carries on.
//! * **Deadlines & SLO shedding** — queries may carry a serving deadline
//!   (checked before and after the solve —
//!   [`QueryError::DeadlineExceeded`]), and a [`ShedPolicy`] watches the
//!   streaming end-to-end p99 against an SLO, probabilistically shedding
//!   new work ([`RejectReason::Overloaded`]) during a breach with
//!   hysteretic recovery.
//! * **Level 1, results** — an LRU of completed solves keyed by the
//!   *bit-exact* parameter tuple. Identical in-flight queries coalesce
//!   onto one computation (single-flight).
//! * **Level 2, capacity** — the expensive `P(k)` CTMC solve is cached
//!   independently, keyed by (λ, φ, η) alone, so sweeps over the protocol
//!   parameters τ/µ/ν/δ_eff at a fixed failure scenario reuse one solve.
//! * **Bit-identity** — the direct evaluation path
//!   ([`direct_eval`]) and the cached path execute the same
//!   floating-point code ([`oaq_analytic::EvaluationConfig::qos_distribution_with_pk`]),
//!   so a cache hit equals a recompute down to the last bit; the property
//!   tests in `tests/properties.rs` enforce this for arbitrary seeded
//!   workloads. Tenant identity and deadlines are serving metadata,
//!   excluded from cache keys — they never perturb a cached value.
//!
//! ## Example
//!
//! ```
//! use oaq_engine::{Engine, EngineConfig, Measure, QuerySpec, Scheme};
//!
//! // `evaluate` solves a miss on this thread.
//! let engine = Engine::new(EngineConfig::default());
//! let query = QuerySpec::paper_defaults(1e-5, Measure::QosAtLeast { scheme: Scheme::Oaq, y: 2 })
//!     .build()
//!     .unwrap();
//! let p = engine.evaluate(query).unwrap().scalar();
//! assert!(p > 0.7, "P(Y ≥ 2) at the paper's low failure rate");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod eval;
pub mod metrics;
pub mod query;
pub mod shard;
pub mod shed;
pub mod singleflight;
pub mod tenant;
pub mod workload;

mod worker;

pub use engine::{CacheStatsSnapshot, Engine, EngineConfig};
pub use error::{EngineError, QueryError, RejectReason};
pub use eval::{direct_eval, eval_cheap, eval_with_pk, DefaultEvaluator, Evaluator, QosValue};
pub use metrics::{LatencySnapshot, MetricsSnapshot, RobustQuantile};
pub use query::{CapacityKey, Measure, QosQuery, QueryKey, QuerySpec, Scheme};
pub use shard::{shard_of, CacheShardStats};
pub use shed::ShedPolicy;
pub use tenant::{QuotaPolicy, TenantId, TenantSnapshot, TokenBucket};
pub use worker::EngineResult;
pub use workload::{multi_tenant_workload, zipf_workload, WorkloadConfig};

/// The panic payload fault-injection harnesses throw inside an
/// [`Evaluator`] (`std::panic::panic_any(INJECTED_FAULT)`). Payloads with
/// this exact value are muted by [`silence_injected_panics`] so a bench
/// sweeping thousands of injected faults does not drown its output in
/// backtraces; the supervision path treats them like any other panic.
pub const INJECTED_FAULT: &str = "injected evaluator fault";

/// Installs (once, process-wide) a panic hook that suppresses the report
/// for panics whose payload is exactly [`INJECTED_FAULT`] and forwards
/// everything else to the previously installed hook. Idempotent.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| *s == INJECTED_FAULT);
            if !injected {
                previous(info);
            }
        }));
    });
}
