//! # oaq-san — stochastic activity networks and Markov solvers
//!
//! The paper computes the orbital-plane capacity distribution P(k) with
//! UltraSAN, a (closed-source) stochastic-activity-network tool supporting
//! deterministic activity times. This crate is the substitute substrate: a
//! SAN modeling formalism plus three solution methods, cross-validated
//! against each other by this workspace's tests and experiments:
//!
//! * [`model`] — places, markings, timed activities (exponential with
//!   marking-dependent rates, deterministic) with enabling
//!   predicates and output gates ([`gate`]);
//! * [`sim`] — discrete-event simulation on the `oaq-sim` kernel
//!   (enabling-memory execution policy): step-by-step runs and long-run
//!   time-fraction estimation of steady-state class probabilities;
//! * [`ctmc`] / [`solver`] — exact numerical solution for all-exponential
//!   models: reachability exploration, stationary distribution by direct
//!   linear solve, transient distribution by uniformization;
//! * [`phase_type`] — Erlang phase-type machinery for approximating
//!   deterministic activities inside the CTMC path;
//! * [`plane`] — the paper's orbital-plane spare-deployment model
//!   (scheduled restore every φ hours + threshold-triggered policy at
//!   k = η), ready to solve for P(k) — the Figure 7 experiment.
//!
//! ## Example
//!
//! A two-state failure/repair SAN solved both ways:
//!
//! ```
//! use oaq_san::model::{Delay, SanBuilder};
//! use oaq_san::sim::{SteadyStateOptions, steady_state_distribution};
//! use oaq_san::ctmc::Ctmc;
//!
//! let mut b = SanBuilder::new();
//! let up = b.add_place("up", 1);
//! let fail = Delay::exponential_rate(1.0);
//! let repair = Delay::exponential_rate(4.0);
//! b.add_activity("fail", fail, move |m| m.tokens(up) == 1, move |m| m.set_tokens(up, 0));
//! b.add_activity("repair", repair, move |m| m.tokens(up) == 0, move |m| m.set_tokens(up, 1));
//! let model = b.build();
//!
//! // Exact: availability = 4/5.
//! let ctmc = Ctmc::explore(&model, 100).unwrap();
//! let pi = ctmc.stationary().unwrap();
//! let avail: f64 = ctmc.expected_reward(&pi, |m| f64::from(m.tokens(up)));
//! assert!((avail - 0.8).abs() < 1e-10);
//!
//! // Simulated: agrees within noise.
//! let dist = steady_state_distribution(
//!     &model, |m| m.tokens(up) as usize, 2,
//!     &SteadyStateOptions { warmup: 100.0, horizon: 20_000.0, seed: 1 });
//! assert!((dist[1] - 0.8).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctmc;
pub mod gate;
pub mod model;
pub mod phase_type;
pub mod plane;
pub mod sim;
pub mod solver;

pub use ctmc::Ctmc;
pub use model::{ActivityId, Delay, Marking, PlaceId, SanBuilder, SanModel};
