//! Output-analysis statistics for simulation runs.
//!
//! * [`Counter`] — monotone event counts and rates.
//! * [`Tally`] — streaming mean/variance/min/max of observations (Welford).
//! * [`TimeWeighted`] — time-averaged level of a piecewise-constant signal,
//!   the estimator behind steady-state probabilities such as the paper's
//!   P(k) (fraction of time an orbital plane holds `k` active satellites).
//! * [`P2Quantile`] — streaming quantile estimation (P² algorithm), for
//!   latency percentiles.
//!
//! Every collector has an order-stable `merge`, so per-worker partial
//! statistics reduce deterministically under the parallel replication
//! engine ([`crate::par::Replicator`]); all of them also implement the
//! [`crate::par::Merge`] trait.

mod counter;
mod quantile;
mod tally;
mod timeweighted;

pub use counter::Counter;
pub use quantile::P2Quantile;
pub use tally::Tally;
pub use timeweighted::TimeWeighted;
