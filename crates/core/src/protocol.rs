//! The event-driven OAQ episode simulator.
//!
//! One *episode* is the life of one signal: birth, detection, coordinated
//! accuracy enhancement, alert delivery. Satellites are state machines that
//! communicate only over the simulated crosslink network; no component has
//! oracle access to the signal or to other satellites' state, so the
//! termination conditions TC-1/TC-2/TC-3 operate exactly as the paper
//! specifies — TC-3 (signal stopped) in particular is only ever *inferred*
//! via the wait timeout `τ − (n−1)δ`.

use std::sync::Arc;

use oaq_net::fault::FaultPlan;
use oaq_net::link::LinkSpec;
use oaq_net::network::LossStates;
use oaq_net::topology::Topology;
use oaq_net::{Envelope, Network, NodeId, ReliableLink, ReliableOutcome, SendOutcome};
use oaq_sim::{Context, EventQueue, Model, SimDuration, SimTime, Simulation};

use crate::config::{ProtocolConfig, Scheme};
use crate::coordination::CoordMessage;
use crate::qos_level::{EpisodeOutcome, QosLevel};
use crate::satellite::{SatellitePhase, SatelliteState};
use crate::signal::CoverageGeometry;

/// Events of one episode.
#[derive(Debug)]
enum Ev {
    /// The signal starts emitting.
    SignalStart,
    /// Satellite `sat`'s footprint reaches the target (scheduled only when
    /// the protocol cares: pending detection or a pending recruitment).
    Arrival { sat: usize },
    /// Satellite `sat` finishes an accuracy-improvement iteration.
    ComputeDone { sat: usize },
    /// A crosslink message arrives.
    Message { env: Envelope<CoordMessage> },
    /// `sat`'s wait for "coordination done" expired (`τ − (n−1)δ_eff`).
    WaitTimeout { sat: usize },
    /// The reliable layer exhausted the retry budget for `sat`'s pending
    /// coordination request.
    RequestGaveUp { sat: usize },
}

#[derive(Debug, Clone, Copy)]
struct Delivery {
    at: f64,
    level: QosLevel,
    chain_length: usize,
    reported_error_km: f64,
}

/// One entry of an episode trace (see [`Episode::run_traced`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// When it happened, minutes.
    pub t: f64,
    /// What happened.
    pub event: TraceEvent,
}

/// The observable protocol events of one episode.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// The signal was detected by `sat` (`simultaneous` when two or more
    /// footprints covered it at that instant).
    Detection {
        /// Detecting satellite.
        sat: usize,
        /// Whether coverage was simultaneous at detection.
        simultaneous: bool,
    },
    /// `sat` completed an accuracy-improvement iteration.
    ComputationDone {
        /// The satellite.
        sat: usize,
        /// Its chain position.
        chain_pos: usize,
        /// The reported error after this iteration, km.
        reported_error_km: f64,
    },
    /// `from` asked `to` to join the coordination.
    CoordinationRequest {
        /// Requester.
        from: usize,
        /// Recruit.
        to: usize,
    },
    /// A recruited satellite's footprint reached the target.
    RecruitArrival {
        /// The recruit.
        sat: usize,
        /// Whether the signal was still emitting.
        signal_alive: bool,
    },
    /// "Coordination done" sent from `from` to `to`.
    CoordinationDone {
        /// Sender (upstream satellite).
        from: usize,
        /// Receiver (downstream satellite).
        to: usize,
    },
    /// `sat`'s wait for "done" expired.
    WaitTimeout {
        /// The satellite that stopped waiting.
        sat: usize,
    },
    /// `from`'s reliable request to `to` exhausted its retry budget; the
    /// requester degrades to the next candidate (or finalizes).
    RequestGaveUp {
        /// Requester whose send failed definitively.
        from: usize,
        /// The unreachable recruit.
        to: usize,
    },
    /// An alert reached the ground.
    AlertDelivered {
        /// Delivering satellite (or the handoff carrier).
        sat: usize,
        /// The alert's QoS level.
        level: QosLevel,
    },
}

impl std::fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={:7.3}  ", self.t)?;
        match &self.event {
            TraceEvent::Detection { sat, simultaneous } => write!(
                f,
                "S{sat} detects the signal{}",
                if *simultaneous {
                    " (simultaneous coverage)"
                } else {
                    ""
                }
            ),
            TraceEvent::ComputationDone {
                sat,
                chain_pos,
                reported_error_km,
            } => write!(
                f,
                "S{sat} (chain #{chain_pos}) completes computation, error {reported_error_km:.1} km"
            ),
            TraceEvent::CoordinationRequest { from, to } => {
                write!(f, "S{from} -> S{to}: coordination request")
            }
            TraceEvent::RecruitArrival { sat, signal_alive } => write!(
                f,
                "S{sat} footprint arrives ({})",
                if *signal_alive {
                    "signal alive"
                } else {
                    "signal gone: TC-3"
                }
            ),
            TraceEvent::CoordinationDone { from, to } => {
                write!(f, "S{from} -> S{to}: coordination done")
            }
            TraceEvent::WaitTimeout { sat } => {
                write!(f, "S{sat} wait timeout (assumes TC-3 / fail-silence)")
            }
            TraceEvent::RequestGaveUp { from, to } => {
                write!(f, "S{from} -> S{to}: request retries exhausted, giving up")
            }
            TraceEvent::AlertDelivered { sat, level } => {
                write!(f, "S{sat} delivers a {level} alert to the ground")
            }
        }
    }
}

/// Tolerance (minutes) applied to coverage queries made at event instants
/// that coincide with window boundaries: footprint-arrival events are
/// scheduled at exact window starts, and floating-point rounding may land
/// the event a hair before the half-open window. 1e-6 min = 60 µs, far
/// below any physical timescale in the model.
const COVERAGE_EPS: f64 = 1e-6;

#[derive(Debug)]
struct EpisodeModel {
    cfg: ProtocolConfig,
    geom: Arc<CoverageGeometry>,
    net: Network<CoordMessage>,
    reliable: ReliableLink,
    /// δ_eff = `cfg.delta_eff()`, cached: every δ in the TC arithmetic.
    delta_eff: f64,
    sats: Vec<SatelliteState>,
    /// Recruits each satellite has already requested (never re-tried).
    tried: Vec<Vec<usize>>,
    /// Every satellite given a chain position, in order. Only these rows
    /// of `sats` and `tried` leave the episode changed, so the next run on
    /// the same scratch resets just them.
    involved: Vec<usize>,
    /// Liveness of every satellite at one instant, refilled in place by
    /// `fill_alive` whenever a coverage scan needs it.
    alive: Vec<bool>,
    t_start: f64,
    t_end: f64,
    detection: Option<(f64, usize)>,
    deliveries: Vec<Delivery>,
    s1_released_at: Option<f64>,
    trace: Option<Vec<TraceEntry>>,
}

impl EpisodeModel {
    fn record(&mut self, t: f64, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry { t, event });
        }
    }
}

impl EpisodeModel {
    fn signal_on(&self, t: f64) -> bool {
        t >= self.t_start && t < self.t_end
    }

    fn alive(&self, sat: usize, t: f64) -> bool {
        !self
            .net
            .faults()
            .is_failed(NodeId(sat as u32), SimTime::new(t))
    }

    /// Every satellite's liveness at `t`, written into the reused buffer
    /// the caller hands back with `self.alive = flags` when done.
    fn fill_alive(&mut self, t: f64) -> Vec<bool> {
        let mut flags = std::mem::take(&mut self.alive);
        flags.clear();
        flags.extend((0..self.cfg.k).map(|j| self.alive(j, t)));
        flags
    }

    fn deadline(&self) -> f64 {
        let (t0, _) = self.detection.expect("deadline queried before detection");
        t0 + self.cfg.tau
    }

    /// Count and freshest member of the set of *live* satellites covering
    /// the target at `t` — the allocation-free equivalent of filtering
    /// [`CoverageGeometry::covering_at`] by liveness and taking
    /// `(len, last)`.
    fn alive_covering_summary(&self, t: f64) -> (usize, Option<usize>) {
        self.geom.covering_summary(t, |j| self.alive(j, t))
    }

    /// Records the detection and starts `S1`'s initial computation.
    fn detect(&mut self, ctx: &mut Context<Ev>) {
        let now = ctx.now().as_minutes();
        let (covering_count, freshest) = self.alive_covering_summary(now + COVERAGE_EPS);
        let Some(s1) = freshest else {
            return;
        };
        self.detection = Some((now, s1));
        self.involved.push(s1);
        let simultaneous = covering_count >= 2;
        self.record(
            now,
            TraceEvent::Detection {
                sat: s1,
                simultaneous,
            },
        );
        let st = &mut self.sats[s1];
        st.chain_pos = Some(1);
        st.passes = if simultaneous { 2 } else { 1 };
        st.simultaneous = simultaneous;
        st.phase = SatellitePhase::Computing;
        let c = ctx.rng().exp(self.cfg.nu);
        ctx.schedule_in(SimDuration::new(c), Ev::ComputeDone { sat: s1 });
    }

    /// Delivers `sat`'s current result to the ground station.
    fn deliver_to_ground(&mut self, sat: usize, now: f64) {
        let st = &self.sats[sat];
        let level = if st.simultaneous {
            QosLevel::SimultaneousDual
        } else if st.passes >= 2 {
            QosLevel::SequentialDual
        } else {
            QosLevel::Single
        };
        let reported = st
            .reported_error_km
            .unwrap_or_else(|| self.cfg.accuracy.error_km(st.passes, st.simultaneous));
        let chain_length = st.passes;
        self.deliveries.push(Delivery {
            at: now,
            level,
            chain_length,
            reported_error_km: reported,
        });
        self.record(now, TraceEvent::AlertDelivered { sat, level });
    }

    /// Delivers a handed-off result (backward-messaging variant).
    fn deliver_handoff(&mut self, carrier: usize, passes: usize, error_km: f64, now: f64) {
        let level = if passes >= 2 {
            QosLevel::SequentialDual
        } else {
            QosLevel::Single
        };
        self.deliveries.push(Delivery {
            at: now,
            level,
            chain_length: passes,
            reported_error_km: error_km,
        });
        self.record(
            now,
            TraceEvent::AlertDelivered {
                sat: carrier,
                level,
            },
        );
    }

    /// Sends a crosslink message, scheduling the delivery event on success.
    fn send(&mut self, from: usize, to: usize, msg: CoordMessage, ctx: &mut Context<Ev>) {
        let outcome = self.net.send(
            NodeId(from as u32),
            NodeId(to as u32),
            msg,
            ctx.now(),
            ctx.rng(),
        );
        if let SendOutcome::Delivered(env) = outcome {
            let at = env.arrival;
            ctx.schedule_at(at, Ev::Message { env });
        }
    }

    /// Transmits a coordination request from `sat` to `next`: plain
    /// fire-and-forget without a retry budget (the paper's protocol),
    /// otherwise through the reliable ACK/retransmit layer — scheduling
    /// the degradation fallback at the instant the budget would exhaust.
    fn send_request(&mut self, sat: usize, next: usize, ctx: &mut Context<Ev>) {
        let now = ctx.now().as_minutes();
        let (t0, _) = self.detection.expect("request without detection");
        let n = self.sats[sat]
            .chain_pos
            .expect("request without a chain position");
        let msg = CoordMessage::Request {
            t0,
            requester_pos: n,
            passes: self.sats[sat].passes,
            reported_error_km: self.sats[sat]
                .reported_error_km
                .expect("request before the first computation"),
        };
        self.tried[sat].push(next);
        self.record(
            now,
            TraceEvent::CoordinationRequest {
                from: sat,
                to: next,
            },
        );
        if self.cfg.retry_budget == 0 {
            self.send(sat, next, msg, ctx);
            return;
        }
        let outcome = self.reliable.send(
            &mut self.net,
            NodeId(sat as u32),
            NodeId(next as u32),
            msg,
            ctx.now(),
            ctx.rng(),
        );
        match outcome {
            ReliableOutcome::Delivered { envelope, .. } => {
                let at = envelope.arrival;
                ctx.schedule_at(at, Ev::Message { env: envelope });
            }
            ReliableOutcome::GaveUp { gave_up_at, .. } => {
                ctx.schedule_at(gave_up_at, Ev::RequestGaveUp { sat });
            }
            ReliableOutcome::SenderFailed | ReliableOutcome::NotLinked => {}
        }
    }

    /// Transmits "coordination done" — reliably when a budget is
    /// configured. A give-up needs no fallback here: the requester's wait
    /// timeout already guarantees its own delivery.
    fn send_done(&mut self, from: usize, to: usize, ctx: &mut Context<Ev>) {
        if self.cfg.retry_budget == 0 {
            self.send(from, to, CoordMessage::Done, ctx);
            return;
        }
        let outcome = self.reliable.send(
            &mut self.net,
            NodeId(from as u32),
            NodeId(to as u32),
            CoordMessage::Done,
            ctx.now(),
            ctx.rng(),
        );
        if let ReliableOutcome::Delivered { envelope, .. } = outcome {
            let at = envelope.arrival;
            ctx.schedule_at(at, Ev::Message { env: envelope });
        }
    }

    /// Propagates "coordination done" downstream from `sat` and releases it.
    fn release_downstream(&mut self, sat: usize, ctx: &mut Context<Ev>) {
        let n = self.sats[sat].chain_pos.unwrap_or(1);
        let requester = self.sats[sat].requester;
        self.sats[sat].release();
        if n <= 1 {
            self.s1_released_at = Some(ctx.now().as_minutes());
        } else if !self.cfg.backward_messaging {
            // "Done" goes to whoever recruited this satellite — the
            // previous visitor unless membership hints skipped dead peers.
            let prev = requester.unwrap_or_else(|| self.geom.prev_visitor(sat));
            self.record(
                ctx.now().as_minutes(),
                TraceEvent::CoordinationDone {
                    from: sat,
                    to: prev,
                },
            );
            self.send_done(sat, prev, ctx);
        }
    }

    /// Finalization: `sat` delivers its result and terminates coordination.
    fn finalize(&mut self, sat: usize, ctx: &mut Context<Ev>) {
        let now = ctx.now().as_minutes();
        self.deliver_to_ground(sat, now);
        self.release_downstream(sat, ctx);
    }

    /// TC-2: no guarantee the next peer could complete and notify in time
    /// (δ_eff substitutes for δ when a retry budget is configured).
    fn tc2_holds(&self, n: usize, now: f64) -> bool {
        let (t0, _) = self.detection.expect("TC-2 before detection");
        now - t0 > self.cfg.tau - (n as f64 * self.delta_eff + self.cfg.tg)
    }

    /// Begins `sat`'s measurement + iterative computation at `now`.
    fn start_computing(&mut self, sat: usize, ctx: &mut Context<Ev>) {
        let now = ctx.now().as_minutes();
        let t = now + COVERAGE_EPS;
        let (mut covering_count, _) = self.alive_covering_summary(t);
        // `sat` itself counts even if its own window has not quite opened.
        if !(self.geom.is_covering(sat, t) && self.alive(sat, t)) {
            covering_count += 1;
        }
        let simultaneous = covering_count >= 2;
        let st = &mut self.sats[sat];
        st.passes += 1;
        st.simultaneous = simultaneous;
        st.phase = SatellitePhase::Computing;
        let c = ctx.rng().exp(self.cfg.nu);
        ctx.schedule_in(SimDuration::new(c), Ev::ComputeDone { sat });
    }

    fn on_compute_done(&mut self, sat: usize, ctx: &mut Context<Ev>) {
        let now = ctx.now().as_minutes();
        if !self.alive(sat, now) {
            return; // went fail-silent mid-computation
        }
        let n = self.sats[sat]
            .chain_pos
            .expect("computing without a chain position");
        let error = self
            .cfg
            .accuracy
            .error_km(self.sats[sat].passes, self.sats[sat].simultaneous);
        self.sats[sat].reported_error_km = Some(error);
        self.record(
            now,
            TraceEvent::ComputationDone {
                sat,
                chain_pos: n,
                reported_error_km: error,
            },
        );

        // BAQ: deliver right after the initial computation, no coordination.
        if self.cfg.scheme == Scheme::Baq {
            self.finalize(sat, ctx);
            return;
        }
        // Simultaneous multiple coverage marks the completion of QoS
        // optimization (paper Section 3.1).
        if self.sats[sat].simultaneous {
            self.finalize(sat, ctx);
            return;
        }
        // TC-1: the estimated error is sufficiently small.
        if let Some(threshold) = self.cfg.error_threshold_km {
            if error <= threshold {
                self.finalize(sat, ctx);
                return;
            }
        }
        // TC-2: too close to the deadline for another iteration.
        if self.tc2_holds(n, now) || self.cfg.k < 2 {
            self.finalize(sat, ctx);
            return;
        }
        // Opportunity remains: expand the coordination.
        let (t0, _) = self.detection.expect("chained without detection");
        let Some(next) = self.select_recruit(sat, now) else {
            // Every reachable peer is known-failed: no opportunity.
            self.finalize(sat, ctx);
            return;
        };
        self.send_request(sat, next, ctx);
        if self.cfg.backward_messaging {
            // Responsibility transferred with the request; Sn is released.
            self.release_downstream(sat, ctx);
        } else {
            let timeout_at = t0 + self.cfg.tau - (n as f64 - 1.0) * self.delta_eff;
            let handle =
                ctx.schedule_at(SimTime::new(timeout_at.max(now)), Ev::WaitTimeout { sat });
            self.sats[sat].phase = SatellitePhase::WaitingForDone { timeout: handle };
        }
    }

    /// Chooses the peer to recruit: the ring successor, or — with
    /// membership hints — the nearest successor not known-failed. Peers
    /// this satellite already requested (and gave up on) are skipped, so
    /// the degradation fallback reuses the same scan.
    fn select_recruit(&self, sat: usize, now: f64) -> Option<usize> {
        let tried = &self.tried[sat];
        let Some(hints) = self.cfg.membership else {
            let cand = self.geom.next_visitor(sat);
            return (!tried.contains(&cand)).then_some(cand);
        };
        let k = self.cfg.k;
        for skip in 1..=hints.max_skip.min(k - 1) {
            let cand = self.geom.visitor_at(sat, skip);
            if tried.contains(&cand) {
                continue;
            }
            let known_failed = self.net.faults().detected_failed(
                NodeId(cand as u32),
                SimTime::new(now),
                hints.detection_latency,
            );
            if !known_failed {
                return Some(cand);
            }
        }
        None
    }

    fn on_request(&mut self, env: &Envelope<CoordMessage>, ctx: &mut Context<Ev>) {
        let CoordMessage::Request {
            requester_pos,
            passes,
            reported_error_km,
            ..
        } = env.payload
        else {
            unreachable!("on_request called with a non-request");
        };
        let sat = env.dst.0 as usize;
        let now = ctx.now().as_minutes();
        if self.sats[sat].chain_pos.is_some() {
            return; // already involved (ring wrap); ignore
        }
        self.sats[sat].chain_pos = Some(requester_pos + 1);
        self.involved.push(sat);
        self.sats[sat].requester = Some(env.src.0 as usize);
        self.sats[sat].passes = passes;
        self.sats[sat].reported_error_km = Some(reported_error_km);
        if self.geom.is_covering(sat, now + COVERAGE_EPS) && self.signal_on(now) {
            // The request caught up with an already-arrived footprint.
            self.start_computing(sat, ctx);
            return;
        }
        let arrival = self.geom.next_arrival(sat, now);
        if arrival < self.deadline() {
            self.sats[sat].phase = SatellitePhase::AwaitingArrival;
            ctx.schedule_at(SimTime::new(arrival), Ev::Arrival { sat });
        } else if self.cfg.backward_messaging {
            // Cannot possibly compute in time: deliver the handed-off
            // result immediately (the receiver carries the responsibility).
            self.deliver_handoff(sat, passes, reported_error_km, now);
            self.sats[sat].release();
        } else {
            // Stay silent; the requester's timeout guarantees delivery.
            self.sats[sat].release();
        }
    }

    fn on_arrival(&mut self, sat: usize, ctx: &mut Context<Ev>) {
        let now = ctx.now().as_minutes();
        if !self.alive(sat, now) {
            return;
        }
        if self.detection.is_none() {
            // Pending initial detection.
            if self.signal_on(now) {
                self.detect(ctx);
            } else if now < self.t_end {
                // Spurious wake-up (e.g. raced a failure); rescan.
                let alive = self.fill_alive(now);
                if let Some(t) = self.geom.earliest_coverage(&alive, now, self.t_end) {
                    let covering_next = self.alive_covering_summary(t).1;
                    if let Some(s) = covering_next {
                        ctx.schedule_at(SimTime::new(t), Ev::Arrival { sat: s });
                    }
                }
                self.alive = alive;
            }
            return;
        }
        // A recruited satellite reaching the target.
        if self.sats[sat].phase != SatellitePhase::AwaitingArrival {
            return;
        }
        self.record(
            now,
            TraceEvent::RecruitArrival {
                sat,
                signal_alive: self.signal_on(now),
            },
        );
        if self.signal_on(now) && now < self.deadline() {
            self.start_computing(sat, ctx);
        } else if self.cfg.backward_messaging {
            // TC-3 (or deadline): deliver the result received upstream.
            let passes = self.sats[sat].passes;
            let err = self.sats[sat]
                .reported_error_km
                .unwrap_or(self.cfg.accuracy.single_pass_km);
            self.deliver_handoff(sat, passes, err, now);
            self.sats[sat].release();
        } else {
            self.sats[sat].release();
        }
    }

    fn on_done(&mut self, env: &Envelope<CoordMessage>, ctx: &mut Context<Ev>) {
        let sat = env.dst.0 as usize;
        let now = ctx.now().as_minutes();
        if !self.alive(sat, now) || self.sats[sat].is_released() {
            return;
        }
        if let SatellitePhase::WaitingForDone { timeout } = self.sats[sat].phase {
            ctx.cancel(timeout);
        }
        self.release_downstream(sat, ctx);
    }

    fn on_wait_timeout(&mut self, sat: usize, ctx: &mut Context<Ev>) {
        let now = ctx.now().as_minutes();
        if self.sats[sat].is_released() || !self.alive(sat, now) {
            return;
        }
        if !matches!(self.sats[sat].phase, SatellitePhase::WaitingForDone { .. }) {
            return;
        }
        // No "done" by τ − (n−1)δ_eff: assume TC-3 or a fail-silent peer
        // and deliver this satellite's own (guaranteed) result.
        self.record(now, TraceEvent::WaitTimeout { sat });
        self.finalize(sat, ctx);
    }

    /// Graceful degradation: the reliable layer gave up on `sat`'s pending
    /// request. Instead of burning the rest of the wait on a recruit that
    /// never heard the request, fall back to the next viable candidate —
    /// or, if TC-2 closed (or nobody is left), deliver the guaranteed
    /// local result immediately.
    fn on_request_gave_up(&mut self, sat: usize, ctx: &mut Context<Ev>) {
        let now = ctx.now().as_minutes();
        if self.sats[sat].is_released() || !self.alive(sat, now) {
            return;
        }
        if !matches!(self.sats[sat].phase, SatellitePhase::WaitingForDone { .. }) {
            return;
        }
        let failed_recruit = *self.tried[sat].last().expect("gave up without a request");
        self.record(
            now,
            TraceEvent::RequestGaveUp {
                from: sat,
                to: failed_recruit,
            },
        );
        let n = self.sats[sat]
            .chain_pos
            .expect("waiting without a chain position");
        // The opportunity may have closed while the retries burned.
        if self.tc2_holds(n, now) {
            self.finalize(sat, ctx);
            return;
        }
        match self.select_recruit(sat, now) {
            Some(next) => self.send_request(sat, next, ctx),
            None => self.finalize(sat, ctx),
        }
    }
}

impl Model for EpisodeModel {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<Ev>) {
        match ev {
            Ev::SignalStart => {
                let now = ctx.now().as_minutes();
                if self.alive_covering_summary(now).0 > 0 {
                    self.detect(ctx);
                } else {
                    let alive = self.fill_alive(now);
                    if let Some(t) = self.geom.earliest_coverage(&alive, now, self.t_end) {
                        // Identify which satellite arrives at t to tag the event.
                        let sat = (0..self.cfg.k)
                            .filter(|&j| alive[j])
                            .min_by(|&a, &b| {
                                let ta = self.geom.next_arrival(a, now);
                                let tb = self.geom.next_arrival(b, now);
                                ta.partial_cmp(&tb).expect("finite")
                            })
                            .expect("earliest_coverage implies a live satellite");
                        ctx.schedule_at(SimTime::new(t), Ev::Arrival { sat });
                    }
                    // No coverage before the signal dies: the target escapes.
                    self.alive = alive;
                }
            }
            Ev::Arrival { sat } => self.on_arrival(sat, ctx),
            Ev::ComputeDone { sat } => self.on_compute_done(sat, ctx),
            Ev::Message { env } => match env.payload {
                CoordMessage::Request { .. } => self.on_request(&env, ctx),
                CoordMessage::Done => self.on_done(&env, ctx),
            },
            Ev::WaitTimeout { sat } => self.on_wait_timeout(sat, ctx),
            Ev::RequestGaveUp { sat } => self.on_request_gave_up(sat, ctx),
        }
    }
}

/// Identity of a cached geometry + topology pair: the evenly-phased
/// reference construction is keyed by its parameters; a caller-supplied
/// geometry is matched by `Arc` identity, and by value only when the
/// pointers differ.
#[derive(Debug, Clone, Copy, PartialEq)]
enum GeomKey {
    Reference { k: usize, theta: u64, tc: u64 },
    Custom,
}

#[derive(Debug)]
struct EpisodeStatics {
    key: GeomKey,
    max_skip: usize,
    geom: Arc<CoverageGeometry>,
    topology: Topology,
}

/// Reusable per-worker episode buffers for [`Episode::run_scratch`].
///
/// Holds the coverage geometry and crosslink topology (immutable during a
/// run, so value-identical to a fresh build) plus the per-satellite state
/// vectors, all recycled across episodes instead of reallocated. Results
/// are bit-identical with or without scratch reuse — the buffers are
/// capacity, not state.
///
/// A run leaves only the satellites it involved changed and records them,
/// so the next run at the same k resets those rows alone: an episode's
/// cost beyond its coverage queries is O(involved + failures), not O(k).
#[derive(Debug, Default)]
pub struct EpisodeScratch {
    statics: Option<EpisodeStatics>,
    sats: Vec<SatelliteState>,
    tried: Vec<Vec<usize>>,
    /// The satellites the last run involved (see `EpisodeModel::involved`).
    involved: Vec<usize>,
    alive: Vec<bool>,
    deliveries: Vec<Delivery>,
    faults: FaultPlan,
    loss_states: LossStates,
    queue: EventQueue<Ev>,
}

impl EpisodeScratch {
    /// Fresh scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        EpisodeScratch::default()
    }
}

/// One signal episode, ready to run.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Episode {
    cfg: ProtocolConfig,
    seed: u64,
    failures: Vec<(usize, f64)>,
    failure_windows: Vec<(usize, f64, f64)>,
    outages: Vec<(usize, usize, f64, f64)>,
    /// Shared with the scratch's cached statics, so reuse is a pointer
    /// comparison.
    geometry: Option<Arc<CoverageGeometry>>,
}

impl Episode {
    /// Prepares an episode under `cfg` with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(cfg: &ProtocolConfig, seed: u64) -> Self {
        cfg.validate();
        Episode {
            cfg: *cfg,
            seed,
            failures: Vec::new(),
            failure_windows: Vec::new(),
            outages: Vec::new(),
            geometry: None,
        }
    }

    /// Overrides the coverage geometry — e.g. the merged sweep of several
    /// planes ([`CoverageGeometry::with_offsets`]); the paper's footnote 3
    /// notes the algorithm does not require a single-plane chain.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's satellite count differs from `cfg.k`.
    #[must_use]
    pub fn with_geometry(mut self, geometry: CoverageGeometry) -> Self {
        assert_eq!(
            geometry.k(),
            self.cfg.k,
            "geometry must describe exactly k satellites"
        );
        self.geometry = Some(Arc::new(geometry));
        self
    }

    /// The geometry attached by [`with_geometry`](Episode::with_geometry),
    /// if any.
    #[must_use]
    pub fn geometry(&self) -> Option<&CoverageGeometry> {
        self.geometry.as_deref()
    }

    /// Re-arms the episode under a (possibly different) config and seed,
    /// forgetting every scheduled fault while keeping the geometry override
    /// and the fault buffers' capacity — the allocation-free way to reuse
    /// one `Episode` across many replications.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or disagrees with an attached geometry's
    /// satellite count.
    pub fn reset(&mut self, cfg: &ProtocolConfig, seed: u64) {
        cfg.validate();
        if let Some(g) = &self.geometry {
            assert_eq!(g.k(), cfg.k, "geometry must describe exactly k satellites");
        }
        self.cfg = *cfg;
        self.seed = seed;
        self.failures.clear();
        self.failure_windows.clear();
        self.outages.clear();
    }

    /// Schedules satellite `sat` to go fail-silent at `time` (minutes).
    ///
    /// # Panics
    ///
    /// Panics if `sat >= k`.
    #[must_use]
    pub fn with_failure(mut self, sat: usize, time: f64) -> Self {
        self.add_failure(sat, time);
        self
    }

    /// In-place [`with_failure`](Episode::with_failure).
    ///
    /// # Panics
    ///
    /// Panics if `sat >= k`.
    pub fn add_failure(&mut self, sat: usize, time: f64) {
        assert!(sat < self.cfg.k, "satellite index out of range");
        self.failures.push((sat, time));
    }

    /// Schedules a crash-recovery window: `sat` is down over `[from, until)`
    /// minutes, then recovers.
    ///
    /// # Panics
    ///
    /// Panics if `sat >= k` or `from >= until`.
    #[must_use]
    pub fn with_failure_window(mut self, sat: usize, from: f64, until: f64) -> Self {
        self.add_failure_window(sat, from, until);
        self
    }

    /// In-place [`with_failure_window`](Episode::with_failure_window).
    ///
    /// # Panics
    ///
    /// Panics if `sat >= k` or `from >= until`.
    pub fn add_failure_window(&mut self, sat: usize, from: f64, until: f64) {
        assert!(sat < self.cfg.k, "satellite index out of range");
        assert!(from < until, "need from < until");
        self.failure_windows.push((sat, from, until));
    }

    /// Schedules a transient crosslink outage between satellites `a` and
    /// `b` (undirected) over `[from, until)` minutes.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `from >= until`.
    #[must_use]
    pub fn with_link_outage(mut self, a: usize, b: usize, from: f64, until: f64) -> Self {
        self.add_link_outage(a, b, from, until);
        self
    }

    /// In-place [`with_link_outage`](Episode::with_link_outage).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `from >= until`.
    pub fn add_link_outage(&mut self, a: usize, b: usize, from: f64, until: f64) {
        assert!(
            a < self.cfg.k && b < self.cfg.k,
            "satellite index out of range"
        );
        assert!(from < until, "need from < until");
        self.outages.push((a, b, from, until));
    }

    /// Runs the episode for a signal born at `t_birth` lasting `duration`
    /// minutes.
    ///
    /// # Panics
    ///
    /// Panics on negative times.
    #[must_use]
    pub fn run(&self, t_birth: f64, duration: f64) -> EpisodeOutcome {
        self.run_inner(t_birth, duration, false, &mut EpisodeScratch::new())
            .0
    }

    /// [`run`](Episode::run) with caller-provided scratch buffers, so a
    /// worker replaying many episodes reuses the geometry, topology and
    /// state vectors instead of rebuilding them. Bit-identical to `run`.
    ///
    /// # Panics
    ///
    /// Panics on negative times.
    #[must_use]
    pub fn run_scratch(
        &self,
        t_birth: f64,
        duration: f64,
        scratch: &mut EpisodeScratch,
    ) -> EpisodeOutcome {
        self.run_inner(t_birth, duration, false, scratch).0
    }

    /// Runs the episode and also returns the full protocol trace — every
    /// detection, request, arrival, computation, timeout and delivery with
    /// its timestamp (for debugging and for the examples' narratives).
    ///
    /// # Panics
    ///
    /// Panics on negative times.
    #[must_use]
    pub fn run_traced(&self, t_birth: f64, duration: f64) -> (EpisodeOutcome, Vec<TraceEntry>) {
        let (outcome, trace) = self.run_inner(t_birth, duration, true, &mut EpisodeScratch::new());
        (outcome, trace.expect("trace requested"))
    }

    /// The cache key of this episode's geometry (see [`GeomKey`]).
    fn geom_key(&self) -> GeomKey {
        match &self.geometry {
            Some(_) => GeomKey::Custom,
            None => GeomKey::Reference {
                k: self.cfg.k,
                theta: self.cfg.theta.to_bits(),
                tc: self.cfg.tc.to_bits(),
            },
        }
    }

    /// The geometry + topology for this episode: recycled from the scratch
    /// when its cached pair was built from identical inputs, else built
    /// fresh. Both are immutable during a run, so a cache hit is
    /// value-identical to a rebuild. An `Episode` re-armed with `reset`
    /// keeps its geometry `Arc`, so its reuse check is O(1).
    fn statics(
        &self,
        scratch: &mut EpisodeScratch,
        max_skip: usize,
    ) -> (Arc<CoverageGeometry>, Topology) {
        if let Some(st) = scratch.statics.take() {
            let same_geometry = match &self.geometry {
                Some(g) => Arc::ptr_eq(&st.geom, g) || st.geom == *g,
                None => true,
            };
            if st.max_skip == max_skip && st.key == self.geom_key() && same_geometry {
                // Keep this episode's `Arc`, so a value-equal geometry (a
                // recycled scratch meeting a new episode) costs one
                // comparison, and every later run a pointer test.
                let geom = self.geometry.clone().unwrap_or(st.geom);
                return (geom, st.topology);
            }
        }
        let geom = self.geometry.clone().unwrap_or_else(|| {
            Arc::new(CoverageGeometry::new(
                self.cfg.k,
                self.cfg.theta,
                self.cfg.tc,
            ))
        });
        // Crosslinks follow *visit order* (identical to index order for the
        // evenly-phased single plane): each satellite links to the peers it
        // hands coordination to and receives it from, plus chords when
        // membership-assisted recruitment may skip dead peers. A
        // single-node "ring" (`max_skip == 0`) has no links.
        let order: Vec<NodeId> = geom
            .visit_order()
            .iter()
            .map(|&sat| NodeId(sat as u32))
            .collect();
        let topology = Topology::chorded_ring(&order, max_skip);
        (geom, topology)
    }

    fn run_inner(
        &self,
        t_birth: f64,
        duration: f64,
        traced: bool,
        scratch: &mut EpisodeScratch,
    ) -> (EpisodeOutcome, Option<Vec<TraceEntry>>) {
        assert!(
            t_birth >= 0.0 && duration >= 0.0,
            "times must be non-negative"
        );
        let base =
            LinkSpec::new(0.2 * self.cfg.delta, self.cfg.delta).expect("delta validated by config");
        let link = match self.cfg.bursty_loss {
            Some(ge) => base
                .with_bursty_loss(ge)
                .expect("bursty loss validated by config"),
            None => base
                .with_loss(self.cfg.message_loss)
                .expect("loss validated by config"),
        };
        let max_skip = if self.cfg.k < 2 {
            0
        } else {
            self.cfg
                .membership
                .map_or(1, |h| h.max_skip.min(self.cfg.k - 1))
        };
        let (geom, topology) = self.statics(scratch, max_skip);
        // The fault plan is recycled from the scratch: cleared (keeping its
        // buffers) and repopulated from this episode's schedule.
        let mut faults = std::mem::take(&mut scratch.faults);
        faults.clear();
        faults.fail_all(
            self.failures
                .iter()
                .map(|&(sat, time)| (NodeId(sat as u32), SimTime::new(time))),
            self.failure_windows.iter().map(|&(sat, from, until)| {
                (NodeId(sat as u32), SimTime::new(from), SimTime::new(until))
            }),
        );
        for &(a, b, from, until) in &self.outages {
            faults.outage_between(
                NodeId(a as u32),
                NodeId(b as u32),
                SimTime::new(from),
                SimTime::new(until),
            );
        }
        let net = Network::new(topology, link)
            .with_faults(faults)
            .with_loss_states(std::mem::take(&mut scratch.loss_states));
        // Per-satellite vectors recycled from the scratch. A run at the same
        // k changed only the rows it involved, so only those are reset; any
        // other length (a fresh scratch, another k, or one abandoned
        // mid-run, which still holds the taken, empty vectors) is rebuilt.
        let mut sats = std::mem::take(&mut scratch.sats);
        let mut tried = std::mem::take(&mut scratch.tried);
        let mut involved = std::mem::take(&mut scratch.involved);
        if sats.len() == self.cfg.k && tried.len() == self.cfg.k {
            for &i in &involved {
                sats[i] = SatelliteState::new();
                tried[i].clear();
            }
        } else {
            sats.clear();
            sats.resize(self.cfg.k, SatelliteState::new());
            for v in &mut tried {
                v.clear();
            }
            tried.resize_with(self.cfg.k, Vec::new);
        }
        involved.clear();
        let mut deliveries = std::mem::take(&mut scratch.deliveries);
        deliveries.clear();

        let model = EpisodeModel {
            geom,
            net,
            reliable: ReliableLink::new(self.cfg.retry_policy()),
            delta_eff: self.cfg.delta_eff(),
            sats,
            tried,
            involved,
            alive: std::mem::take(&mut scratch.alive),
            t_start: t_birth,
            t_end: t_birth + duration,
            detection: None,
            deliveries,
            s1_released_at: None,
            trace: if traced { Some(Vec::new()) } else { None },
            cfg: self.cfg,
        };
        let mut sim = Simulation::with_queue(model, self.seed, std::mem::take(&mut scratch.queue));
        sim.schedule_at(SimTime::new(t_birth), Ev::SignalStart);
        sim.run_to_completion();
        let (model, queue) = sim.into_parts();
        scratch.queue = queue;
        let EpisodeModel {
            geom,
            net,
            sats,
            tried,
            involved,
            alive,
            detection,
            mut deliveries,
            s1_released_at,
            trace,
            ..
        } = model;

        let messages = net.stats().attempts;
        debug_assert!(
            (0..self.cfg.k).all(|i| involved.contains(&i)
                || (sats[i] == SatelliteState::new() && tried[i].is_empty())),
            "a satellite outside `involved` was changed, so a sparse reset would miss it"
        );
        // Hand the long-lived buffers back to the scratch for the next
        // episode (deliveries follow once the outcome is computed).
        scratch.sats = sats;
        scratch.tried = tried;
        scratch.involved = involved;
        scratch.alive = alive;
        let (topology, faults, loss_states) = net.into_parts();
        scratch.faults = faults;
        scratch.loss_states = loss_states;
        scratch.statics = Some(EpisodeStatics {
            key: self.geom_key(),
            max_skip,
            geom,
            topology,
        });

        let outcome = if let Some((t0, s1)) = detection {
            let deadline = t0 + self.cfg.tau;
            let in_time: Option<&Delivery> = deliveries
                .iter()
                .filter(|d| d.at <= deadline + 1e-9)
                .max_by(|a, b| a.level.cmp(&b.level));
            let chosen = in_time.or_else(|| {
                deliveries
                    .iter()
                    .min_by(|a, b| a.at.partial_cmp(&b.at).expect("finite"))
            });
            match chosen {
                Some(d) => EpisodeOutcome {
                    level: d.level,
                    delivered_at: Some(d.at),
                    deadline_met: d.at <= deadline + 1e-9,
                    chain_length: d.chain_length,
                    messages_sent: messages,
                    s1_released: s1_released_at.is_some(),
                    reported_error_km: Some(d.reported_error_km),
                    detected_at: Some(t0),
                    detector: Some(s1),
                },
                None => EpisodeOutcome {
                    // Detected but nothing ever reached the ground (e.g. the
                    // only involved satellite went fail-silent).
                    level: QosLevel::Missed,
                    delivered_at: None,
                    deadline_met: false,
                    chain_length: 0,
                    messages_sent: messages,
                    s1_released: s1_released_at.is_some(),
                    reported_error_km: None,
                    detected_at: Some(t0),
                    detector: Some(s1),
                },
            }
        } else {
            EpisodeOutcome::missed()
        };
        deliveries.clear();
        scratch.deliveries = deliveries;
        (outcome, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oaq(k: usize) -> ProtocolConfig {
        ProtocolConfig::reference(k, Scheme::Oaq)
    }

    fn baq(k: usize) -> ProtocolConfig {
        ProtocolConfig::reference(k, Scheme::Baq)
    }

    #[test]
    fn signal_in_beta_yields_simultaneous_dual() {
        // k = 12: sat 1 arrives at 7.5, sat 0 covers until 9.0 → overlap
        // [7.5, 9.0). A long signal born at 8.0 is detected simultaneously.
        let out = Episode::new(&oaq(12), 1).run(8.0, 30.0);
        assert_eq!(out.level, QosLevel::SimultaneousDual);
        assert!(out.deadline_met);
        assert_eq!(out.chain_length, 2);
    }

    #[test]
    fn overlap_wait_promotes_single_to_simultaneous() {
        // Born at 4.0 under sat 0 only; overlap starts at 7.5 (wait 3.5 < τ).
        // A long-lived signal survives the wait → level 3 via coordination.
        let out = Episode::new(&oaq(12), 2).run(4.0, 30.0);
        assert_eq!(out.level, QosLevel::SimultaneousDual);
        assert!(out.messages_sent >= 2, "request + done expected");
        assert!(out.s1_released);
    }

    #[test]
    fn short_signal_in_alpha_stays_single() {
        // Sat 0's single-coverage interval is [1.5, 7.5) (before 1.5 the
        // wrap-around overlap with sat 11 is still active). Born at 3.0,
        // dies at 4.0, far before the next overlap at 7.5: OAQ waits,
        // times out at τ, delivers the preliminary result.
        let out = Episode::new(&oaq(12), 3).run(3.0, 1.0);
        assert_eq!(out.level, QosLevel::Single);
        assert!(out.deadline_met);
        let delivered = out.delivered_at.unwrap();
        assert!(
            (delivered - 8.0).abs() < 1e-6,
            "delivered at t0+τ, got {delivered}"
        );
    }

    #[test]
    fn wraparound_overlap_counts_as_simultaneous() {
        // t = 1.0 is inside the overlap of sat 11 ([-7.5, 1.5)) and sat 0
        // ([0, 9)): detection is simultaneous even across the ring wrap.
        let out = Episode::new(&oaq(12), 30).run(1.0, 30.0);
        assert_eq!(out.level, QosLevel::SimultaneousDual);
    }

    #[test]
    fn baq_never_waits() {
        let out = Episode::new(&baq(12), 4).run(4.0, 30.0);
        assert_eq!(out.level, QosLevel::Single, "no withholding under BAQ");
        assert!(
            out.delivered_at.unwrap() < 5.0,
            "delivered right after computing"
        );
        assert_eq!(out.messages_sent, 0);
    }

    #[test]
    fn baq_gets_level3_only_when_born_simultaneous() {
        let out = Episode::new(&baq(12), 5).run(8.0, 30.0);
        assert_eq!(out.level, QosLevel::SimultaneousDual);
    }

    #[test]
    fn underlap_sequential_dual() {
        // k = 10 (Tr = Tc = 9): sat 0 covers [0, 9), sat 1 [9, 18). Signal
        // born at 6.0 living 30 min: S2 arrives at 9.0 (wait 3 < τ = 5).
        let out = Episode::new(&oaq(10), 6).run(6.0, 30.0);
        assert_eq!(out.level, QosLevel::SequentialDual);
        assert_eq!(out.chain_length, 2);
        assert!(out.deadline_met);
        assert!(out.s1_released);
    }

    #[test]
    fn underlap_sequential_fails_if_signal_dies() {
        // Signal born at 6.0 dies at 8.0, before sat 1 arrives at 9.0:
        // TC-3 → S1 times out and delivers its single-coverage result.
        let out = Episode::new(&oaq(10), 7).run(6.0, 2.0);
        assert_eq!(out.level, QosLevel::Single);
        assert!(out.deadline_met);
        assert!(out.s1_released, "timeout releases S1");
    }

    #[test]
    fn underlap_next_too_far_stays_single() {
        // Born at 0.5 under sat 0: next arrival at 9.0 is 8.5 away > τ = 5.
        // The recruit declines (arrival past deadline); S1 delivers at τ.
        let out = Episode::new(&oaq(10), 8).run(0.5, 30.0);
        assert_eq!(out.level, QosLevel::Single);
        assert!(out.deadline_met);
    }

    #[test]
    fn gap_signal_that_dies_is_missed() {
        // k = 9: gap [9, 10). Born at 9.2, dies at 9.5 before sat 1 arrives
        // at 10.0 → the target escapes surveillance.
        let out = Episode::new(&oaq(9), 9).run(9.2, 0.3);
        assert_eq!(out.level, QosLevel::Missed);
        assert_eq!(out.delivered_at, None);
    }

    #[test]
    fn gap_signal_that_survives_is_detected() {
        let out = Episode::new(&oaq(9), 10).run(9.2, 30.0);
        assert!(out.level >= QosLevel::Single);
        assert!(out.deadline_met);
    }

    #[test]
    fn tc1_threshold_stops_expansion() {
        // With a generous error threshold the very first computation
        // satisfies TC-1 and no coordination happens.
        let mut cfg = oaq(10);
        cfg.error_threshold_km = Some(100.0);
        let out = Episode::new(&cfg, 11).run(6.0, 30.0);
        assert_eq!(out.level, QosLevel::Single);
        assert_eq!(out.messages_sent, 0, "TC-1 short-circuits coordination");
        assert!(out.delivered_at.unwrap() < 7.0);
    }

    #[test]
    fn fail_silent_recruit_is_tolerated_by_timeout() {
        // Sat 1 dies before it can serve; S1's wait timeout delivers.
        let out = Episode::new(&oaq(10), 12)
            .with_failure(1, 1.0)
            .run(6.0, 30.0);
        assert_eq!(out.level, QosLevel::Single);
        assert!(out.deadline_met, "the guarantee survives the failure");
        assert!(out.s1_released);
    }

    #[test]
    fn fail_silent_detector_loses_the_alert() {
        // The only satellite involved dies mid-computation.
        let out = Episode::new(&oaq(10), 13)
            .with_failure(0, 6.5)
            .run(6.0, 0.5);
        assert_eq!(out.level, QosLevel::Missed);
        assert!(!out.deadline_met);
    }

    #[test]
    fn backward_messaging_delivers_handoff_on_tc3() {
        let mut cfg = oaq(10);
        cfg.backward_messaging = true;
        // Signal dies before the recruit arrives: recruit delivers S1's
        // result when it discovers TC-3 at its footprint arrival (t = 9).
        let out = Episode::new(&cfg, 14).run(6.0, 2.0);
        assert_eq!(out.level, QosLevel::Single);
        assert!(out.deadline_met);
        assert!(out.delivered_at.unwrap() >= 9.0);
    }

    #[test]
    fn backward_messaging_loses_alert_when_recruit_dies() {
        let mut cfg = oaq(10);
        cfg.backward_messaging = true;
        // S1 hands off responsibility then the recruit dies: nobody
        // delivers — the trade-off the paper calls out.
        let out = Episode::new(&cfg, 15).with_failure(1, 7.0).run(6.0, 2.0);
        assert_eq!(out.level, QosLevel::Missed);
        assert!(!out.deadline_met);
    }

    #[test]
    fn membership_hints_skip_a_known_failed_recruit() {
        // k = 9, τ = 25 (room for deep chains). Sat 1 died long ago; the
        // membership-assisted protocol recruits sat 2 directly and still
        // reaches sequential dual coverage, where the plain protocol burns
        // its wait on the dead peer and delivers a single-coverage result.
        let mut plain = oaq(9);
        plain.tau = 25.0;
        let mut assisted = plain;
        assisted.membership = Some(crate::config::MembershipHints::default());

        let run = |cfg: &ProtocolConfig| {
            Episode::new(cfg, 21).with_failure(1, 0.0).run(38.0, 60.0) // born under sat 3's window? no: sat 3 covers [30,39)
        };
        let plain_out = run(&plain);
        let assisted_out = run(&assisted);
        assert!(assisted_out.level >= plain_out.level);
        assert!(assisted_out.chain_length >= 2, "{assisted_out:?}");
    }

    #[test]
    fn membership_hints_with_all_peers_dead_finalizes_cleanly() {
        let mut cfg = oaq(9);
        cfg.tau = 25.0;
        cfg.membership = Some(crate::config::MembershipHints {
            detection_latency: 0.0,
            max_skip: 3,
        });
        // Signal born under sat 0; sats 1..=3 all long dead.
        let out = Episode::new(&cfg, 5)
            .with_failure(1, 0.0)
            .with_failure(2, 0.0)
            .with_failure(3, 0.0)
            .run(3.0, 60.0);
        assert_eq!(out.level, QosLevel::Single);
        assert!(out.deadline_met);
        assert_eq!(out.messages_sent, 0, "no hopeless requests sent");
    }

    #[test]
    fn recent_failure_is_not_yet_known() {
        // Detection latency 12 min: a failure 1 minute ago is unknown, so
        // the protocol still recruits the dead peer and relies on the
        // timeout — hints cannot see faster than the membership service.
        let mut cfg = oaq(9);
        cfg.tau = 25.0;
        cfg.membership = Some(crate::config::MembershipHints::default());
        let out = Episode::new(&cfg, 6).with_failure(1, 2.0).run(3.0, 60.0);
        assert!(
            out.messages_sent >= 1,
            "request to the not-yet-suspected peer"
        );
    }

    #[test]
    fn cross_plane_coordination_over_interleaved_geometry() {
        // Two degraded 5-satellite planes (each Tr = 18: hopeless alone at
        // τ = 5) interleaved half a spacing apart. Satellites 0..5 are
        // plane A (offsets 0,18,..), 5..10 plane B (offsets 9,27,..); the
        // OAQ chain crosses planes: A's satellite hands coordination to
        // B's, exactly the generality footnote 3 claims.
        let offsets: Vec<f64> = (0..5)
            .map(|j| 18.0 * j as f64)
            .chain((0..5).map(|j| 18.0 * j as f64 + 9.0))
            .collect();
        let geom = CoverageGeometry::with_offsets(offsets, 90.0, 9.0);
        let cfg = oaq(10);
        // Born at 6.0 under plane-A satellite 0; plane-B satellite 5
        // (offset 9) arrives 3 minutes later.
        let out = Episode::new(&cfg, 44)
            .with_geometry(geom.clone())
            .run(6.0, 30.0);
        assert_eq!(out.level, QosLevel::SequentialDual);
        assert_eq!(out.chain_length, 2);
        assert!(out.deadline_met);
        // Sanity: the recruit really is the other plane's satellite.
        assert_eq!(geom.next_visitor(0), 5);
    }

    #[test]
    fn single_plane_alone_fails_where_the_merged_sweep_succeeds() {
        // The same plane A on its own (k = 5, Tr = 18): the next visitor is
        // 18 minutes away — beyond τ — so OAQ can only deliver the single-
        // coverage preliminary.
        let mut cfg = oaq(5);
        cfg.theta = 90.0;
        let out = Episode::new(&cfg, 44).run(6.0, 30.0);
        assert_eq!(out.level, QosLevel::Single);
    }

    #[test]
    fn lossy_crosslinks_degrade_quality_but_never_timeliness() {
        // 40% message loss: requests and dones vanish at random; the
        // wait-timeout discipline still delivers an alert by the deadline
        // in every detected episode.
        let mut cfg = oaq(10);
        cfg.message_loss = 0.4;
        let mut sequential = 0;
        for seed in 0..300 {
            let out = Episode::new(&cfg, seed).run(6.0, 30.0);
            assert!(out.deadline_met, "seed {seed}: {out:?}");
            assert!(out.level >= QosLevel::Single);
            if out.level == QosLevel::SequentialDual {
                sequential += 1;
            }
        }
        // Loss costs quality relative to the lossless case (which achieves
        // sequential dual in 100% of these episodes)...
        assert!(
            sequential < 290,
            "loss must cost some coordinations: {sequential}/300"
        );
        // ...but most coordinations still succeed.
        assert!(sequential > 100, "only {sequential}/300 succeeded");
    }

    #[test]
    fn trace_narrates_a_sequential_coordination() {
        let (out, trace) = Episode::new(&oaq(10), 6).run_traced(6.0, 30.0);
        assert_eq!(out.level, QosLevel::SequentialDual);
        let kinds: Vec<&str> = trace
            .iter()
            .map(|e| match e.event {
                TraceEvent::Detection { .. } => "detect",
                TraceEvent::ComputationDone { .. } => "compute",
                TraceEvent::CoordinationRequest { .. } => "request",
                TraceEvent::RecruitArrival { .. } => "arrival",
                TraceEvent::CoordinationDone { .. } => "done",
                TraceEvent::WaitTimeout { .. } => "timeout",
                TraceEvent::RequestGaveUp { .. } => "gaveup",
                TraceEvent::AlertDelivered { .. } => "deliver",
            })
            .collect();
        // The canonical story: detect, compute, request, arrival, compute,
        // ... ending with a delivery; the delivery must follow a request.
        assert_eq!(kinds[0], "detect");
        assert_eq!(kinds[1], "compute");
        assert_eq!(kinds[2], "request");
        assert!(kinds.contains(&"arrival"));
        assert!(kinds.contains(&"deliver"));
        // Times are non-decreasing.
        for w in trace.windows(2) {
            assert!(w[1].t >= w[0].t - 1e-12);
        }
        // Every entry renders.
        for e in &trace {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn untraced_run_matches_traced_outcome() {
        let cfg = oaq(12);
        let plain = Episode::new(&cfg, 9).run(4.0, 20.0);
        let (traced, trace) = Episode::new(&cfg, 9).run_traced(4.0, 20.0);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        assert!(!trace.is_empty());
    }

    #[test]
    fn missed_target_has_a_bare_trace() {
        let (out, trace) = Episode::new(&oaq(9), 9).run_traced(9.2, 0.3);
        assert_eq!(out.level, QosLevel::Missed);
        assert!(
            !trace
                .iter()
                .any(|e| matches!(e.event, TraceEvent::Detection { .. })),
            "no detection events for an escaped target"
        );
    }

    #[test]
    fn episodes_are_deterministic() {
        let a = Episode::new(&oaq(10), 99).run(6.0, 30.0);
        let b = Episode::new(&oaq(10), 99).run(6.0, 30.0);
        assert_eq!(a, b);
    }

    #[test]
    fn single_satellite_plane_cannot_coordinate() {
        let out = Episode::new(&oaq(1), 16).run(1.0, 30.0);
        assert_eq!(out.level, QosLevel::Single);
        assert_eq!(out.messages_sent, 0);
    }

    #[test]
    fn retry_exhaustion_falls_back_to_the_next_live_recruit() {
        // Sat 1 fails one minute before detection — too recent for the
        // membership service to know — so S1 recruits it, burns the retry
        // budget, and on give-up falls back to sat 2. The coordination
        // still reaches sequential dual coverage, where the plain
        // fire-and-forget protocol would burn its whole wait on the dead
        // peer.
        let mut cfg = oaq(9);
        cfg.tau = 25.0;
        cfg.retry_budget = 2;
        cfg.retry_timeout = 0.25;
        cfg.membership = Some(crate::config::MembershipHints::default());
        let (out, trace) = Episode::new(&cfg, 6)
            .with_failure(1, 2.0)
            .run_traced(3.0, 60.0);
        assert!(
            trace
                .iter()
                .any(|e| matches!(e.event, TraceEvent::RequestGaveUp { from: 0, to: 1 })),
            "expected a give-up on the dead recruit: {trace:#?}"
        );
        assert!(
            trace
                .iter()
                .any(|e| matches!(e.event, TraceEvent::CoordinationRequest { from: 0, to: 2 })),
            "expected the fallback request to sat 2: {trace:#?}"
        );
        assert!(out.level >= QosLevel::SequentialDual, "{out:?}");
        assert!(out.deadline_met);
    }

    #[test]
    fn give_up_without_alternatives_finalizes_early() {
        // No membership chords: when the only successor's link is outaged
        // for the whole episode, a budgeted S1 gives up, finds nobody else
        // to recruit, and delivers its local result well before the τ
        // timeout would have fired.
        let mut cfg = oaq(10);
        cfg.retry_budget = 2;
        cfg.retry_timeout = 0.25;
        let (out, trace) = Episode::new(&cfg, 6)
            .with_link_outage(0, 1, 0.0, 100.0)
            .run_traced(6.0, 30.0);
        assert!(
            trace
                .iter()
                .any(|e| matches!(e.event, TraceEvent::RequestGaveUp { .. })),
            "{trace:#?}"
        );
        assert_eq!(out.level, QosLevel::Single);
        assert!(out.deadline_met);
        let t0 = 6.0;
        assert!(
            out.delivered_at.unwrap() < t0 + cfg.tau - 1.0,
            "give-up must beat the wait timeout: {out:?}"
        );
    }

    #[test]
    fn transient_outage_is_ridden_out_by_protocol_retries() {
        // A 0.4-minute outage at recruitment time kills the plain request;
        // with a retry budget the request survives and the coordination
        // completes as if the outage never happened.
        let outage = |cfg: &ProtocolConfig| {
            Episode::new(cfg, 6)
                .with_link_outage(0, 1, 6.0, 6.4)
                .run(6.0, 30.0)
        };
        let plain = oaq(10);
        let mut budgeted = plain;
        budgeted.retry_budget = 3;
        budgeted.retry_timeout = 0.25;
        let plain_out = outage(&plain);
        let budgeted_out = outage(&budgeted);
        assert_eq!(
            plain_out.level,
            QosLevel::Single,
            "request dies in the outage"
        );
        assert_eq!(
            budgeted_out.level,
            QosLevel::SequentialDual,
            "{budgeted_out:?}"
        );
        assert!(budgeted_out.deadline_met);
    }

    #[test]
    fn live_detector_always_delivers_by_tau_under_fault_mixes() {
        // Acceptance sweep: loss ∈ {0, 0.05, 0.2, bursty} × retry budget
        // ∈ {0, 1, 3}, against a fault plan mixing a crash-recovery window
        // on the recruit with a transient outage at recruitment time.
        // Whatever the mix does to *quality*, an episode whose detector
        // stays alive delivers at least a single-coverage alert by τ.
        let bursty = oaq_net::GilbertElliott::bursts(0.2, 5.0, 0.9).unwrap();
        for loss_case in 0..4 {
            for &budget in &[0u32, 1, 3] {
                let mut cfg = oaq(10);
                match loss_case {
                    0 => cfg.message_loss = 0.0,
                    1 => cfg.message_loss = 0.05,
                    2 => cfg.message_loss = 0.2,
                    _ => cfg.bursty_loss = Some(bursty),
                }
                cfg.retry_budget = budget;
                cfg.retry_timeout = 0.25;
                for seed in 0..40 {
                    let (out, trace) = Episode::new(&cfg, seed)
                        .with_failure_window(1, 7.0, 12.0)
                        .with_link_outage(0, 1, 6.0, 6.4)
                        .run_traced(6.0, 30.0);
                    let detector = trace.iter().find_map(|e| match e.event {
                        TraceEvent::Detection { sat, .. } => Some(sat),
                        _ => None,
                    });
                    // The fault plan never touches sat 0, the detector for
                    // a signal born at t = 6 under this geometry.
                    let Some(d) = detector else { continue };
                    assert_eq!(d, 0);
                    assert!(
                        out.deadline_met,
                        "loss case {loss_case}, budget {budget}, seed {seed}: {out:?}"
                    );
                    assert!(out.level >= QosLevel::Single);
                }
            }
        }
    }

    #[test]
    fn fault_plan_episodes_are_deterministic() {
        // Satellite of the robustness issue: identical seed + fault plan
        // (bursty loss, retries, crash-recovery, outages, a permanent
        // failure) must reproduce the outcome *and* the full trace.
        let mut cfg = oaq(10);
        cfg.bursty_loss = Some(oaq_net::GilbertElliott::bursts(0.15, 4.0, 0.95).unwrap());
        cfg.retry_budget = 2;
        cfg.retry_timeout = 0.25;
        let run = || {
            Episode::new(&cfg, 77)
                .with_failure(3, 12.0)
                .with_failure_window(1, 7.0, 11.0)
                .with_link_outage(0, 1, 6.0, 6.5)
                .run_traced(6.0, 30.0)
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(a, b);
        assert_eq!(ta, tb, "traces must match event-for-event");
    }

    #[test]
    fn crash_recovery_window_restores_coordination() {
        // The recruit is down only over [0, 6.5): it recovers inside the
        // retry window (tries at ~6.04, 6.29, 6.54, 6.79), so the retried
        // request lands and the coordination completes; a *permanent*
        // failure at 0 leaves only the single-coverage alert.
        let mut cfg = oaq(10);
        cfg.retry_budget = 3;
        cfg.retry_timeout = 0.25;
        let recovered = Episode::new(&cfg, 6)
            .with_failure_window(1, 0.0, 6.5)
            .run(6.0, 30.0);
        let permanent = Episode::new(&cfg, 6).with_failure(1, 0.0).run(6.0, 30.0);
        assert_eq!(recovered.level, QosLevel::SequentialDual, "{recovered:?}");
        assert_eq!(permanent.level, QosLevel::Single);
        assert!(recovered.deadline_met && permanent.deadline_met);
    }

    #[test]
    fn longer_chains_form_with_generous_deadlines() {
        // k = 9 (Tr = 10, L2 = 1), τ = 25 ⇒ M[k] = 2 + ⌊(25−1)/10⌋ = 4.
        let mut cfg = oaq(9);
        cfg.tau = 25.0;
        let out = Episode::new(&cfg, 17).run(8.0, 60.0);
        assert!(
            out.chain_length >= 3,
            "expected a deep chain, got {}",
            out.chain_length
        );
        assert_eq!(out.level, QosLevel::SequentialDual);
        assert!(out.deadline_met);
    }
}
