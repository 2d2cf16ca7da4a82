//! # oaq-sim — deterministic discrete-event simulation kernel
//!
//! A minimal, allocation-light discrete-event simulation (DES) kernel used by
//! every stochastic component of the OAQ reproduction: the stochastic activity
//! network solvers in `oaq-san`, the crosslink network in `oaq-net`, and the
//! full protocol simulator in `oaq-core`.
//!
//! The kernel is deliberately *deterministic*: given the same model and the
//! same seed, a run replays event-for-event. Determinism is what makes the
//! cross-validation experiments of this repository (analytic model vs.
//! protocol simulation) debuggable.
//!
//! ## Architecture
//!
//! * [`SimTime`] / [`SimDuration`] — total-ordered virtual time (minutes by
//!   convention throughout the workspace; the kernel itself is unit-agnostic).
//! * [`Model`] — user models implement one `handle` method over their own
//!   event enum.
//! * [`Simulation`] — owns the model, the event queue and the clock; drives
//!   the run to a horizon or event budget.
//! * [`Context`] — handed to the model inside `handle`; allows scheduling,
//!   cancellation and random sampling.
//! * [`rng::SimRng`] — seeded random streams with the distributions used in
//!   the paper (exponential, uniform, deterministic), plus counter-based
//!   substream derivation for parallel replication.
//! * [`stats`] — counters, tallies, time-weighted averages and streaming
//!   quantiles; every collector merges, so partial results from parallel
//!   workers reduce deterministically.
//! * [`par`] — the deterministic parallel Monte Carlo replication engine
//!   ([`par::Replicator`]): substream-seeded replications fanned across a
//!   scoped worker pool, bit-identical for any worker count.
//!
//! ## Example
//!
//! A one-server queue sketch:
//!
//! ```
//! use oaq_sim::{Model, Simulation, Context, SimTime, SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Arrival, Departure }
//!
//! #[derive(Default)]
//! struct Queue { in_system: u32, served: u32 }
//!
//! impl Model for Queue {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, ctx: &mut Context<Ev>) {
//!         match ev {
//!             Ev::Arrival => {
//!                 self.in_system += 1;
//!                 let dt = ctx.rng().exp(0.5);
//!                 ctx.schedule_in(SimDuration::new(dt), Ev::Arrival);
//!                 if self.in_system == 1 {
//!                     let s = ctx.rng().exp(1.0);
//!                     ctx.schedule_in(SimDuration::new(s), Ev::Departure);
//!                 }
//!             }
//!             Ev::Departure => {
//!                 self.in_system -= 1;
//!                 self.served += 1;
//!                 if self.in_system > 0 {
//!                     let s = ctx.rng().exp(1.0);
//!                     ctx.schedule_in(SimDuration::new(s), Ev::Departure);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Queue::default(), 42);
//! sim.schedule_at(SimTime::ZERO, Ev::Arrival);
//! sim.run_until(SimTime::new(1000.0));
//! assert!(sim.model().served > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod engine;
pub mod par;
mod queue;
pub mod rng;
pub mod stats;

pub use clock::{SimDuration, SimTime};
pub use engine::{Context, Model, RunOutcome, Simulation};
pub use par::{Merge, Replicator};
pub use queue::{EventHandle, EventQueue};
pub use rng::SimRng;
