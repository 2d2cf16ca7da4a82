//! Discrete-event simulation of SAN models.
//!
//! Execution policy: *enabling memory*. When the marking changes, an
//! activity that stays enabled keeps its scheduled completion time; an
//! activity that becomes disabled forgets it; an activity that becomes
//! enabled samples a fresh delay. This is the policy UltraSAN applies to
//! its timed activities and is what makes the deterministic
//! scheduled-deployment clock of the plane model behave like a wall clock.

use std::collections::HashMap;

use oaq_sim::stats::TimeWeighted;
use oaq_sim::{EventHandle, EventQueue, SimRng, SimTime};

use crate::model::{ActivityId, Delay, Marking, SanModel};

/// Options for steady-state estimation.
#[derive(Debug, Clone, Copy)]
pub struct SteadyStateOptions {
    /// Simulated time discarded before measurement starts.
    pub warmup: f64,
    /// Total simulated time (must exceed `warmup`).
    pub horizon: f64,
    /// RNG seed.
    pub seed: u64,
}

/// A running SAN simulation (step-by-step API; [`steady_state_distribution`]
/// covers the whole-run steady-state use).
pub struct SanSimulation<'m> {
    model: &'m SanModel,
    marking: Marking,
    now: SimTime,
    queue: EventQueue<ActivityId>,
    /// Pending completion per activity, with the rate it was sampled at
    /// (`None` for non-exponential delays).
    pending: HashMap<ActivityId, (EventHandle, Option<f64>)>,
    rng: SimRng,
    fired: u64,
}

impl std::fmt::Debug for SanSimulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SanSimulation")
            .field("now", &self.now)
            .field("fired", &self.fired)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<'m> SanSimulation<'m> {
    /// Starts a simulation in the model's initial marking.
    #[must_use]
    pub fn new(model: &'m SanModel, seed: u64) -> Self {
        let mut sim = SanSimulation {
            marking: model.initial_marking(),
            model,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            pending: HashMap::new(),
            rng: SimRng::seed_from(seed),
            fired: 0,
        };
        sim.resync();
        sim
    }

    /// Samples a delay; returns `(delay, rate_used)` where the rate is only
    /// set for exponential activities (whose samples must be invalidated if
    /// the marking-dependent rate changes — memorylessness makes resampling
    /// exact).
    fn sample_delay(&mut self, activity: ActivityId) -> (f64, Option<f64>) {
        let a = &self.model.activities[activity.0];
        match &a.delay {
            Delay::Exponential(rate) => {
                let r = rate(&self.marking);
                debug_assert!(r > 0.0, "enabled exponential must have positive rate");
                (self.rng.exp(r), Some(r))
            }
            Delay::Deterministic(t) => (*t, None),
        }
    }

    fn current_rate(&self, activity: ActivityId) -> Option<f64> {
        match &self.model.activities[activity.0].delay {
            Delay::Exponential(rate) => Some(rate(&self.marking)),
            _ => None,
        }
    }

    /// Reconciles the pending-event set with the currently enabled
    /// activities (enabling-memory policy).
    fn resync(&mut self) {
        let enabled = self.model.enabled_activities(&self.marking);
        // Cancel activities that lost their enabling, and invalidate
        // exponential samples whose rate changed with the marking.
        let stale: Vec<ActivityId> = self
            .pending
            .iter()
            .filter(|(a, (_, sampled_rate))| {
                !enabled.contains(a)
                    || sampled_rate.is_some_and(|r| self.current_rate(**a) != Some(r))
            })
            .map(|(a, _)| *a)
            .collect();
        for a in stale {
            if let Some((h, _)) = self.pending.remove(&a) {
                self.queue.cancel(h);
            }
        }
        // Schedule newly enabled (or invalidated) activities.
        for a in enabled {
            if !self.pending.contains_key(&a) {
                let (d, rate) = self.sample_delay(a);
                let h = self.queue.push(SimTime::new(self.now.as_minutes() + d), a);
                self.pending.insert(a, (h, rate));
            }
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current marking.
    #[must_use]
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// Activities fired so far.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Fires the next activity; returns what fired, or `None` when no
    /// activity is enabled (the SAN is absorbed).
    pub fn step(&mut self) -> Option<(SimTime, ActivityId)> {
        let (time, activity) = self.queue.pop()?;
        self.pending.remove(&activity);
        self.now = time;
        self.model.fire(activity, &mut self.marking);
        self.fired += 1;
        self.resync();
        Some((time, activity))
    }

    /// Runs until `horizon`; the marking is the state at the horizon.
    pub fn run_until(&mut self, horizon: f64) {
        let h = SimTime::new(horizon);
        while let Some(next) = self.queue.peek_time() {
            if next > h {
                break;
            }
            self.step();
        }
        self.now = h.max(self.now);
    }
}

/// Estimates the steady-state probability that `classify(marking) == c` for
/// each class `c < classes`, as the long-run fraction of time (after
/// warm-up).
///
/// # Panics
///
/// Panics if `classes == 0`, the options are inconsistent
/// (`horizon <= warmup`), or the classifier emits an out-of-range class.
#[must_use]
pub fn steady_state_distribution(
    model: &SanModel,
    classify: impl Fn(&Marking) -> usize,
    classes: usize,
    options: &SteadyStateOptions,
) -> Vec<f64> {
    assert!(classes > 0, "need at least one class");
    assert!(
        options.horizon > options.warmup && options.warmup >= 0.0,
        "horizon must exceed warmup"
    );
    let mut sim = SanSimulation::new(model, options.seed);
    sim.run_until(options.warmup);
    let start = SimTime::new(options.warmup);
    let mut trackers: Vec<TimeWeighted> = (0..classes)
        .map(|c| {
            let level = if classify(sim.marking()) == c {
                1.0
            } else {
                0.0
            };
            TimeWeighted::new(level, start)
        })
        .collect();
    let horizon = SimTime::new(options.horizon);
    while let Some(next) = sim.queue.peek_time() {
        if next > horizon {
            break;
        }
        sim.step();
        let t = sim.now().max(start);
        let class = classify(sim.marking());
        assert!(class < classes, "classifier returned {class} >= {classes}");
        for (c, tr) in trackers.iter_mut().enumerate() {
            tr.update(if c == class { 1.0 } else { 0.0 }, t);
        }
    }
    trackers.iter().map(|tr| tr.time_average(horizon)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Delay, SanBuilder};

    /// M/M/1-like birth–death on {0..3} with λ=1, µ=2.
    fn birth_death() -> (SanModel, crate::model::PlaceId) {
        let mut b = SanBuilder::new();
        let n = b.add_place("n", 0);
        b.add_activity(
            "arrive",
            Delay::exponential_rate(1.0),
            move |m| m.tokens(n) < 3,
            move |m| m.add_tokens(n, 1),
        );
        b.add_activity(
            "serve",
            Delay::exponential_rate(2.0),
            move |m| m.tokens(n) > 0,
            move |m| m.remove_tokens(n, 1),
        );
        (b.build(), n)
    }

    #[test]
    fn steady_state_matches_birth_death_closed_form() {
        let (model, n) = birth_death();
        // π_k ∝ (λ/µ)^k = 0.5^k on {0..3}: π = (8,4,2,1)/15.
        let dist = steady_state_distribution(
            &model,
            |m| m.tokens(n) as usize,
            4,
            &SteadyStateOptions {
                warmup: 100.0,
                horizon: 50_000.0,
                seed: 42,
            },
        );
        let expected = [8.0 / 15.0, 4.0 / 15.0, 2.0 / 15.0, 1.0 / 15.0];
        for (d, e) in dist.iter().zip(&expected) {
            assert!((d - e).abs() < 0.01, "{d} vs {e}");
        }
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_clock_fires_on_schedule() {
        let mut b = SanBuilder::new();
        let count = b.add_place("count", 0);
        let noise = b.add_place("noise", 0);
        b.add_activity(
            "tick",
            Delay::deterministic(10.0),
            |_| true,
            move |m| m.add_tokens(count, 1),
        );
        // A fast exponential churner that must NOT reset the deterministic
        // clock (enabling-memory policy).
        b.add_activity(
            "churn",
            Delay::exponential_rate(50.0),
            |_| true,
            move |m| m.set_tokens(noise, (m.tokens(noise) + 1) % 2),
        );
        let model = b.build();
        let mut sim = SanSimulation::new(&model, 7);
        sim.run_until(95.0);
        assert_eq!(
            sim.marking().tokens(count),
            9,
            "ticks at 10,20,...,90 despite churn"
        );
    }

    #[test]
    fn absorbed_model_stops() {
        let mut b = SanBuilder::new();
        let p = b.add_place("p", 2);
        b.add_activity(
            "drain",
            Delay::exponential_rate(1.0),
            move |m| m.tokens(p) > 0,
            move |m| m.remove_tokens(p, 1),
        );
        let model = b.build();
        let mut sim = SanSimulation::new(&model, 1);
        assert!(sim.step().is_some());
        assert!(sim.step().is_some());
        assert!(sim.step().is_none(), "absorbed after two firings");
        assert_eq!(sim.fired(), 2);
    }

    #[test]
    fn run_until_advances_clock_past_last_event() {
        let (model, _) = birth_death();
        let mut sim = SanSimulation::new(&model, 2);
        sim.run_until(5.0);
        assert_eq!(sim.now(), SimTime::new(5.0));
    }

    #[test]
    fn deterministic_runs_are_reproducible() {
        let (model, n) = birth_death();
        let run = || {
            let mut sim = SanSimulation::new(&model, 9);
            sim.run_until(123.0);
            sim.marking().tokens(n)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "horizon must exceed warmup")]
    fn bad_options_rejected() {
        let (model, n) = birth_death();
        let _ = steady_state_distribution(
            &model,
            move |m| m.tokens(n) as usize,
            4,
            &SteadyStateOptions {
                warmup: 10.0,
                horizon: 5.0,
                seed: 0,
            },
        );
    }
}
