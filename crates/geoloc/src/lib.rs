//! # oaq-geoloc — RF-emitter geolocation by sequential localization
//!
//! The OAQ paper builds on the satellite-literature result (Levanon '98;
//! Chan & Towers '92) that measurements accumulated by satellites that
//! *successively* fly over an emitter support an iterative weighted
//! least-squares estimator, so each additional pass improves position
//! accuracy — the mechanism the paper calls **sequential localization** and
//! exploits for fault tolerance.
//!
//! This crate implements that machinery end to end:
//!
//! * [`emitter::Emitter`] — a ground RF source with an (unknown to the
//!   estimator) carrier frequency;
//! * [`satstate::SatelliteState`] — satellite position/velocity in
//!   earth-centered coordinates, derivable from an `oaq-orbit` circular
//!   orbit;
//! * [`doppler::DopplerMeasurement`] / [`toa::ToaMeasurement`] — noisy
//!   measurement models with synthetic generators (**substitution**: no real
//!   RF front-end is available, so physically-modeled synthetic measurements
//!   exercise the same estimator code path);
//! * [`wls`] — damped Gauss–Newton iterative weighted least squares over the
//!   state `[latitude, longitude, carrier frequency]`;
//! * [`sequential::SequentialLocalizer`] — accumulates passes and re-solves,
//!   exposing the error history that OAQ's termination condition TC-1
//!   (estimated error below threshold) consumes.
//!
//! ## Example
//!
//! ```
//! use oaq_geoloc::emitter::Emitter;
//! use oaq_geoloc::scenario::PassScenario;
//! use oaq_geoloc::sequential::SequentialLocalizer;
//! use oaq_orbit::units::Degrees;
//! use oaq_sim::SimRng;
//!
//! let emitter = Emitter::new(
//!     oaq_orbit::GroundPoint::from_degrees(Degrees(30.0), Degrees(10.0)),
//!     400.0e6,
//! );
//! let mut rng = SimRng::seed_from(1);
//! let scenario = PassScenario::reference(&emitter);
//! let mut loc = SequentialLocalizer::new(emitter.initial_guess_nearby(1.0));
//! loc.add_pass(scenario.synthesize_pass(0, &mut rng));
//! let first = loc.estimate().expect("pass 1 converges");
//! loc.add_pass(scenario.synthesize_pass(1, &mut rng));
//! let second = loc.estimate().expect("pass 2 converges");
//! let e1 = first.position_error_km(&emitter.position());
//! let e2 = second.position_error_km(&emitter.position());
//! assert!(e2 < e1, "second pass must improve accuracy: {e1} -> {e2}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod doppler;
pub mod emitter;
pub mod error;
pub mod satstate;
pub mod scenario;
pub mod sequential;
pub mod toa;
pub mod wls;

pub use batch::{BatchObservation, BatchSolver, SoaColumns};
pub use emitter::Emitter;
pub use error::MeasurementError;
pub use sequential::SequentialLocalizer;
pub use wls::{Estimate, FdJacobian, InformationPrior, Observation, SolveError, WlsSolver};

/// Speed of light in km/s.
pub const SPEED_OF_LIGHT_KM_S: f64 = 299_792.458;

/// Earth gravitational parameter, km³/s².
pub const MU_EARTH: f64 = 398_600.441_8;
