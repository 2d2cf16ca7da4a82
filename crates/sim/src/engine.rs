//! The simulation engine: model trait, scheduling context and the run loop.

use crate::clock::{SimDuration, SimTime};
use crate::queue::{EventHandle, EventQueue};
use crate::rng::SimRng;

/// A discrete-event model.
///
/// Implementations define their own event vocabulary (`Event`) and mutate
/// their state in [`Model::handle`], scheduling follow-up events through the
/// [`Context`].
pub trait Model {
    /// The model's event vocabulary.
    type Event;

    /// Reacts to one event at the context's current virtual time.
    fn handle(&mut self, event: Self::Event, ctx: &mut Context<Self::Event>);
}

/// Scheduling and sampling facilities handed to [`Model::handle`].
#[derive(Debug)]
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut SimRng,
    stop_requested: &'a mut bool,
}

impl<E> Context<'_, E> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Context::now`]).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event)
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.queue.push(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// The simulation's random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Asks the engine to stop after this handler returns.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    Exhausted,
    /// The time horizon was reached; later events remain pending.
    HorizonReached,
    /// The event budget was spent.
    BudgetSpent,
    /// The model called [`Context::request_stop`].
    Stopped,
}

/// Owns a model, a clock, an event queue and a random stream, and drives the
/// model to completion.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug)]
pub struct Simulation<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    clock: SimTime,
    rng: SimRng,
    dispatched: u64,
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation over `model` with the given RNG seed.
    #[must_use]
    pub fn new(model: M, seed: u64) -> Self {
        Simulation::with_queue(model, seed, EventQueue::new())
    }

    /// [`Simulation::new`] with a recycled event queue: `queue` is reset
    /// (keeping its allocated capacity) and reused, so a caller running many
    /// short simulations back to back skips the per-run heap allocations.
    /// Behaviorally identical to `new`.
    #[must_use]
    pub fn with_queue(model: M, seed: u64, mut queue: EventQueue<M::Event>) -> Self {
        queue.reset();
        Simulation {
            model,
            queue,
            clock: SimTime::ZERO,
            rng: SimRng::seed_from(seed),
            dispatched: 0,
        }
    }

    /// Schedules an initial event before the run starts (or between runs).
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) -> EventHandle {
        assert!(at >= self.clock, "cannot schedule into the past");
        self.queue.push(at, event)
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of events dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Shared access to the model.
    #[must_use]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model (e.g. to install observers between
    /// warm-up and measurement phases).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation, returning the model *and* the event queue so
    /// the queue's buffers can be recycled via [`Simulation::with_queue`].
    #[must_use]
    pub fn into_parts(self) -> (M, EventQueue<M::Event>) {
        (self.model, self.queue)
    }

    /// Runs until the queue drains or `horizon` is passed. Events scheduled
    /// exactly at the horizon still fire.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.run_inner(Some(horizon), None)
    }

    /// Runs until the queue drains. Beware models with self-sustaining event
    /// streams: prefer [`Simulation::run_until`] for those.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_inner(None, None)
    }

    /// Runs until the queue drains, at most `budget` events.
    pub fn run_events(&mut self, budget: u64) -> RunOutcome {
        self.run_inner(None, Some(budget))
    }

    fn run_inner(&mut self, horizon: Option<SimTime>, budget: Option<u64>) -> RunOutcome {
        let mut spent: u64 = 0;
        loop {
            if let Some(b) = budget {
                if spent >= b {
                    return RunOutcome::BudgetSpent;
                }
            }
            let Some(next_time) = self.queue.peek_time() else {
                return RunOutcome::Exhausted;
            };
            if let Some(h) = horizon {
                if next_time > h {
                    // Leave the event pending; advance the clock to the horizon
                    // so time-weighted statistics can be closed out there.
                    self.clock = h;
                    return RunOutcome::HorizonReached;
                }
            }
            let (time, event) = self.queue.pop().expect("peeked event must pop");
            self.clock = time;
            self.dispatched += 1;
            spent += 1;
            let mut stop = false;
            let mut ctx = Context {
                now: self.clock,
                queue: &mut self.queue,
                rng: &mut self.rng,
                stop_requested: &mut stop,
            };
            self.model.handle(event, &mut ctx);
            if stop {
                return RunOutcome::Stopped;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ping {
        fired: Vec<f64>,
        stop_after: usize,
    }

    enum Ev {
        Tick,
    }

    impl Model for Ping {
        type Event = Ev;
        fn handle(&mut self, _ev: Ev, ctx: &mut Context<Ev>) {
            self.fired.push(ctx.now().as_minutes());
            if self.fired.len() >= self.stop_after {
                ctx.request_stop();
            } else {
                ctx.schedule_in(SimDuration::new(1.0), Ev::Tick);
            }
        }
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(
            Ping {
                fired: vec![],
                stop_after: usize::MAX,
            },
            0,
        );
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        let outcome = sim.run_until(SimTime::new(5.5));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.model().fired.len(), 6); // t = 0..=5
        assert_eq!(sim.now(), SimTime::new(5.5), "clock closed at horizon");
    }

    #[test]
    fn request_stop_halts_loop() {
        let mut sim = Simulation::new(
            Ping {
                fired: vec![],
                stop_after: 3,
            },
            0,
        );
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        assert_eq!(sim.run_to_completion(), RunOutcome::Stopped);
        assert_eq!(sim.model().fired, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn event_budget_is_enforced() {
        let mut sim = Simulation::new(
            Ping {
                fired: vec![],
                stop_after: usize::MAX,
            },
            0,
        );
        sim.schedule_at(SimTime::ZERO, Ev::Tick);
        assert_eq!(sim.run_events(10), RunOutcome::BudgetSpent);
        assert_eq!(sim.dispatched(), 10);
    }

    #[test]
    fn empty_queue_exhausts() {
        let mut sim = Simulation::new(
            Ping {
                fired: vec![],
                stop_after: 1,
            },
            0,
        );
        assert_eq!(sim.run_to_completion(), RunOutcome::Exhausted);
    }

    struct Canceller {
        saw_cancelled: bool,
    }
    enum CEv {
        Arm,
        ShouldNotFire,
    }
    impl Model for Canceller {
        type Event = CEv;
        fn handle(&mut self, ev: CEv, ctx: &mut Context<CEv>) {
            match ev {
                CEv::Arm => {
                    let h = ctx.schedule_in(SimDuration::new(1.0), CEv::ShouldNotFire);
                    assert!(ctx.cancel(h));
                }
                CEv::ShouldNotFire => self.saw_cancelled = true,
            }
        }
    }

    #[test]
    fn context_cancel_prevents_dispatch() {
        let mut sim = Simulation::new(
            Canceller {
                saw_cancelled: false,
            },
            0,
        );
        sim.schedule_at(SimTime::ZERO, CEv::Arm);
        sim.run_to_completion();
        assert!(!sim.model().saw_cancelled);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new(
                Ping {
                    fired: vec![],
                    stop_after: 100,
                },
                7,
            );
            sim.schedule_at(SimTime::ZERO, Ev::Tick);
            sim.run_to_completion();
            sim.into_parts().0.fired
        };
        assert_eq!(run(), run());
    }
}
