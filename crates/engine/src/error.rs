//! Typed errors of the serving engine.

use std::fmt;

use oaq_analytic::params::ParamError;
use oaq_san::ctmc::CtmcError;

use crate::tenant::TenantId;

/// A per-query failure: either the [`crate::QuerySpec`] failed validation
/// (the query never entered the engine), or the engine accepted the query
/// but could not produce its answer (the evaluation panicked, or the
/// serving deadline expired before an answer was ready).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum QueryError {
    /// A scalar or integer parameter is non-finite or out of domain.
    Param(ParamError),
    /// The delivery overhead consumes the whole deadline: the effective
    /// deadline `τ − δ_eff` must stay strictly positive.
    DeadlineConsumed {
        /// The requested deadline τ.
        tau: f64,
        /// The effective delivery overhead δ_eff.
        delta_eff: f64,
    },
    /// The evaluation of this query panicked. Every coalesced waiter of
    /// the query receives this error; the query may simply be
    /// resubmitted.
    EvalPanicked,
    /// The per-query serving deadline expired before the answer was ready
    /// — either shed before the solve (it never ran) or detected right
    /// after the solve (the stale answer is cached but not served).
    DeadlineExceeded {
        /// The configured serving deadline, milliseconds.
        deadline_ms: f64,
        /// Submission-to-detection wall-clock time, milliseconds.
        waited_ms: f64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            QueryError::Param(e) => write!(f, "invalid query: {e}"),
            QueryError::DeadlineConsumed { tau, delta_eff } => write!(
                f,
                "delivery overhead delta_eff = {delta_eff} consumes the deadline tau = {tau}"
            ),
            QueryError::EvalPanicked => write!(f, "evaluation panicked"),
            QueryError::DeadlineExceeded {
                deadline_ms,
                waited_ms,
            } => write!(
                f,
                "serving deadline of {deadline_ms} ms exceeded after {waited_ms:.3} ms"
            ),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Param(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamError> for QueryError {
    fn from(e: ParamError) -> Self {
        QueryError::Param(e)
    }
}

/// Why an accepted-shape query was turned away at admission. Every
/// variant except [`RejectReason::ShuttingDown`] is retryable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The engine is shutting down and no longer accepts work.
    ShuttingDown,
    /// The submitting tenant is over its admission quota — its token
    /// bucket is empty or it already has its full fair share of leaders
    /// solving. Other tenants are unaffected; retry after a back-off.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: TenantId,
    },
    /// The SLO-aware shedder is rejecting a fraction of new non-cached
    /// work because the end-to-end p99 latency breached the configured
    /// SLO. Retry after a back-off; cached answers still flow.
    Overloaded,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RejectReason::ShuttingDown => write!(f, "engine is shutting down"),
            RejectReason::QuotaExceeded { tenant } => {
                write!(f, "tenant {tenant} is over its admission quota")
            }
            RejectReason::Overloaded => {
                write!(f, "shed: end-to-end p99 latency breached the SLO")
            }
        }
    }
}

/// An error answering a query that the engine did accept (or explicitly
/// refused at admission).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// Admission control turned the query away; it never ran.
    Rejected(RejectReason),
    /// The capacity CTMC solve failed.
    Solver(CtmcError),
    /// The flight this query waited on was abandoned without an answer
    /// (its leader panicked mid-solve, or was rejected after a follower
    /// joined); the query should be resubmitted.
    WorkerLost,
    /// A per-query failure after admission: the evaluation panicked or
    /// the serving deadline expired.
    Query(QueryError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Rejected(r) => write!(f, "rejected: {r}"),
            EngineError::Solver(e) => write!(f, "solver failure: {e}"),
            EngineError::WorkerLost => write!(f, "worker lost before completing the query"),
            EngineError::Query(e) => write!(f, "query failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Solver(e) => Some(e),
            EngineError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CtmcError> for EngineError {
    fn from(e: CtmcError) -> Self {
        EngineError::Solver(e)
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = EngineError::Rejected(RejectReason::ShuttingDown);
        assert!(e.to_string().contains("shutting down"));
        assert!(EngineError::WorkerLost.to_string().contains("worker"));
        let q = QueryError::DeadlineConsumed {
            tau: 5.0,
            delta_eff: 5.0,
        };
        assert!(q.to_string().contains("consumes"));
    }

    #[test]
    fn fault_errors_render_and_convert() {
        let p = EngineError::from(QueryError::EvalPanicked);
        assert!(p.to_string().contains("panicked"));
        let d = EngineError::Query(QueryError::DeadlineExceeded {
            deadline_ms: 10.0,
            waited_ms: 12.5,
        });
        assert!(d.to_string().contains("10 ms"));
        let quota = RejectReason::QuotaExceeded {
            tenant: TenantId(3),
        };
        assert!(quota.to_string().contains("tenant 3"));
        assert!(RejectReason::Overloaded.to_string().contains("SLO"));
    }

    #[test]
    fn param_errors_convert() {
        let p = ParamError::NonPositive {
            name: "tau",
            value: 0.0,
        };
        assert!(matches!(QueryError::from(p), QueryError::Param(_)));
    }
}
