//! The heartbeat/gossip membership simulation.

use oaq_net::fault::FaultPlan;
use oaq_net::link::LinkSpec;
use oaq_net::topology::Topology;
use oaq_net::{Envelope, Network, NodeId, SendOutcome};
use oaq_sim::{Context, Model, SimTime, Simulation};

/// Configuration of the membership service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipConfig {
    /// Group size.
    pub n: usize,
    /// Heartbeat period, minutes.
    pub interval: f64,
    /// A peer is suspected after `suspicion_multiplier × interval` of
    /// silence.
    pub suspicion_multiplier: f64,
    /// Crosslink message loss probability.
    pub loss: f64,
    /// Maximum crosslink delay δ, minutes.
    pub delta: f64,
}

impl MembershipConfig {
    /// Defaults for one orbital plane of `n` satellites: 1-minute
    /// heartbeats, suspicion after 3 missed periods, lossless links with
    /// the workspace's standard δ = 0.1 min.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn plane(n: usize) -> Self {
        let cfg = MembershipConfig {
            n,
            interval: 1.0,
            suspicion_multiplier: 3.0,
            loss: 0.0,
            delta: 0.1,
        };
        cfg.validate();
        cfg
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical parameters.
    pub fn validate(&self) {
        assert!(self.n >= 2, "membership needs at least two nodes");
        assert!(
            self.interval > 0.0 && self.interval.is_finite(),
            "bad interval"
        );
        assert!(
            self.suspicion_multiplier > 1.0,
            "suspicion timeout must exceed one heartbeat period"
        );
        oaq_net::validate_loss_probability(self.loss)
            .unwrap_or_else(|e| panic!("membership loss: {e}"));
        assert!(self.delta >= 0.0 && self.delta.is_finite(), "bad delta");
        assert!(
            self.suspicion_multiplier * self.interval > self.delta,
            "suspicion timeout must exceed the link delay"
        );
    }

    /// The suspicion timeout.
    #[must_use]
    pub fn suspicion_timeout(&self) -> f64 {
        self.suspicion_multiplier * self.interval
    }

    /// Worst-case time from a failure to *every* surviving ring node
    /// suspecting it: one timeout for the neighbors, plus a gossip sweep
    /// around half the ring (one heartbeat period + delay per hop).
    #[must_use]
    pub fn detection_bound(&self) -> f64 {
        let half_ring = (self.n as f64 / 2.0).ceil();
        self.suspicion_timeout() + half_ring * (self.interval + self.delta)
    }
}

/// A heartbeat, carrying the sender's suspicion and freshest-evidence
/// records (rehabilitation must travel as far as rumor).
#[derive(Debug, Clone, PartialEq)]
struct Heartbeat {
    suspicions: Vec<(usize, f64)>,
    evidence: Vec<(usize, f64)>,
}

#[derive(Debug)]
enum Ev {
    Tick { node: usize },
    Deliver { env: Envelope<Heartbeat> },
    SuspicionSweep { node: usize },
}

struct MembershipModel {
    cfg: MembershipConfig,
    net: Network<Heartbeat>,
    views: Vec<crate::view::MembershipView>,
    horizon: f64,
    /// Reused per-tick peer list: heartbeat fan-out needs `net` mutably
    /// while iterating the borrowed neighbor slice, so the ids are staged
    /// here instead of allocating a fresh `Vec` per tick.
    neighbor_buf: Vec<NodeId>,
}

impl MembershipModel {
    fn alive(&self, node: usize, t: f64) -> bool {
        !self
            .net
            .faults()
            .is_failed(NodeId(node as u32), SimTime::new(t))
    }

    fn check_silence(&mut self, node: usize, now: f64) {
        let timeout = self.cfg.suspicion_timeout();
        let neighbors = self.net.topology().neighbors(NodeId(node as u32));
        for &nb in neighbors {
            let peer = nb.0 as usize;
            if let Some(last) = self.views[node].last_direct(peer) {
                if now - last > timeout && !self.views[node].is_suspected(peer) {
                    self.views[node].suspect(peer, now);
                }
            }
        }
    }
}

impl Model for MembershipModel {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<Ev>) {
        let now = ctx.now().as_minutes();
        match ev {
            Ev::Tick { node } => {
                if now > self.horizon {
                    return;
                }
                if self.alive(node, now) {
                    let suspicions = self.views[node].suspicions();
                    let evidence = self.views[node].evidence();
                    let mut peers = std::mem::take(&mut self.neighbor_buf);
                    peers.clear();
                    peers.extend_from_slice(self.net.topology().neighbors(NodeId(node as u32)));
                    for &nb in &peers {
                        let outcome = self.net.send(
                            NodeId(node as u32),
                            nb,
                            Heartbeat {
                                suspicions: suspicions.clone(),
                                evidence: evidence.clone(),
                            },
                            ctx.now(),
                            ctx.rng(),
                        );
                        if let SendOutcome::Delivered(env) = outcome {
                            let at = env.arrival;
                            ctx.schedule_at(at, Ev::Deliver { env });
                        }
                    }
                    self.neighbor_buf = peers;
                    // Re-arm the heartbeat and the local silence check.
                    ctx.schedule_at(SimTime::new(now + self.cfg.interval), Ev::Tick { node });
                    ctx.schedule_at(
                        SimTime::new(now + self.cfg.interval * 0.5),
                        Ev::SuspicionSweep { node },
                    );
                }
            }
            Ev::Deliver { env } => {
                let me = env.dst.0 as usize;
                if !self.alive(me, now) {
                    return;
                }
                let from = env.src.0 as usize;
                self.views[me].record_direct(from, now);
                for &(peer, t) in &env.payload.evidence {
                    if peer != me {
                        self.views[me].record_evidence(peer, t);
                    }
                }
                for &(peer, since) in &env.payload.suspicions {
                    if peer != me {
                        self.views[me].suspect(peer, since);
                    }
                }
            }
            Ev::SuspicionSweep { node } => {
                if self.alive(node, now) {
                    self.check_silence(node, now);
                }
            }
        }
    }
}

/// A runnable membership scenario.
///
/// See the [crate-level example](crate).
pub struct MembershipSim {
    cfg: MembershipConfig,
    sim: Simulation<MembershipModel>,
    failures: Vec<(usize, f64)>,
}

impl std::fmt::Debug for MembershipSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MembershipSim")
            .field("n", &self.cfg.n)
            .field("now", &self.sim.now())
            .finish()
    }
}

impl MembershipSim {
    /// Builds the scenario on a ring of `cfg.n` satellites.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    #[must_use]
    pub fn new(cfg: &MembershipConfig, seed: u64) -> Self {
        cfg.validate();
        let link = if cfg.loss > 0.0 {
            LinkSpec::new(0.2 * cfg.delta, cfg.delta.max(1e-9))
                .expect("validated")
                .with_loss(cfg.loss)
                .expect("validated")
        } else {
            LinkSpec::new(0.2 * cfg.delta, cfg.delta.max(1e-9)).expect("validated")
        };
        let net = Network::new(Topology::ring(cfg.n as u32), link).with_faults(FaultPlan::new());
        let model = MembershipModel {
            cfg: *cfg,
            net,
            views: vec![crate::view::MembershipView::new(); cfg.n],
            horizon: f64::MAX,
            neighbor_buf: Vec::new(),
        };
        let mut sim = Simulation::new(model, seed);
        // Stagger start-up across one period.
        for node in 0..cfg.n {
            let offset = cfg.interval * node as f64 / cfg.n as f64;
            sim.schedule_at(SimTime::new(offset), Ev::Tick { node });
        }
        MembershipSim {
            cfg: *cfg,
            sim,
            failures: Vec::new(),
        }
    }

    /// Schedules `node` to go fail-silent at `time` minutes.
    ///
    /// # Panics
    ///
    /// Panics if `node >= n` or the simulation already ran past `time`.
    pub fn fail_node(&mut self, node: usize, time: f64) {
        assert!(node < self.cfg.n, "node out of range");
        assert!(
            time >= self.sim.now().as_minutes(),
            "cannot fail in the past"
        );
        self.failures.push((node, time));
        self.sim
            .model_mut()
            .net
            .faults_mut()
            .fail_at(NodeId(node as u32), SimTime::new(time));
    }

    /// Advances the simulation to `t` minutes.
    pub fn run_until(&mut self, t: f64) {
        self.sim.model_mut().horizon = t;
        self.sim.run_until(SimTime::new(t));
    }

    /// Node `observer`'s view of the group.
    ///
    /// # Panics
    ///
    /// Panics if `observer >= n`.
    #[must_use]
    pub fn view(&self, observer: usize) -> &crate::view::MembershipView {
        &self.sim.model().views[observer]
    }

    /// `true` when every *surviving* node currently suspects `target`.
    #[must_use]
    pub fn all_alive_suspect(&self, target: usize) -> bool {
        let now = self.sim.now().as_minutes();
        (0..self.cfg.n)
            .filter(|&i| i != target && self.sim.model().alive(i, now))
            .all(|i| self.view(i).is_suspected(target))
    }

    /// Number of (observer, peer) pairs where a *live* peer is currently
    /// suspected — false positives.
    #[must_use]
    pub fn false_suspicions(&self) -> usize {
        let now = self.sim.now().as_minutes();
        let mut count = 0;
        for obs in 0..self.cfg.n {
            if !self.sim.model().alive(obs, now) {
                continue;
            }
            for peer in 0..self.cfg.n {
                if peer != obs
                    && self.sim.model().alive(peer, now)
                    && self.view(obs).is_suspected(peer)
                {
                    count += 1;
                }
            }
        }
        count
    }

    /// Crosslink messages sent so far.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.sim.model().net.stats().attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_membership_runs_are_deterministic() {
        // Same seed, same fault plan, lossy heartbeats: two runs must agree
        // on every observer's evidence and suspicion state and on the exact
        // message count.
        let mut cfg = MembershipConfig::plane(8);
        cfg.loss = 0.2;
        let run = || {
            let mut sim = MembershipSim::new(&cfg, 31);
            sim.fail_node(2, 10.0);
            sim.fail_node(5, 25.0);
            sim.run_until(80.0);
            sim
        };
        let a = run();
        let b = run();
        assert_eq!(a.messages_sent(), b.messages_sent());
        for obs in 0..8 {
            assert_eq!(
                a.view(obs).suspicions(),
                b.view(obs).suspicions(),
                "observer {obs} suspicions diverged"
            );
            assert_eq!(
                a.view(obs).evidence(),
                b.view(obs).evidence(),
                "observer {obs} evidence diverged"
            );
        }
    }

    #[test]
    fn fault_free_group_raises_no_suspicion() {
        let mut sim = MembershipSim::new(&MembershipConfig::plane(8), 1);
        sim.run_until(100.0);
        assert_eq!(sim.false_suspicions(), 0);
        assert!(sim.messages_sent() > 8 * 90, "heartbeats flowed");
    }

    #[test]
    fn failure_detected_within_bound() {
        let cfg = MembershipConfig::plane(10);
        let mut sim = MembershipSim::new(&cfg, 2);
        sim.fail_node(4, 30.0);
        sim.run_until(30.0 + cfg.detection_bound());
        assert!(sim.all_alive_suspect(4), "node 4 must be group-suspected");
        assert_eq!(sim.false_suspicions(), 0);
    }

    #[test]
    fn neighbors_detect_before_the_far_side() {
        let cfg = MembershipConfig::plane(12);
        let mut sim = MembershipSim::new(&cfg, 3);
        sim.fail_node(0, 20.0);
        // Just after the neighbor timeout: neighbors suspect, antipode may not.
        sim.run_until(20.0 + cfg.suspicion_timeout() + cfg.interval);
        assert!(sim.view(1).is_suspected(0) || sim.view(11).is_suspected(0));
    }

    #[test]
    fn lossy_links_do_not_poison_the_view_permanently() {
        let mut cfg = MembershipConfig::plane(8);
        cfg.loss = 0.3;
        let mut sim = MembershipSim::new(&cfg, 4);
        sim.run_until(300.0);
        // Transient suspicions may appear under loss, but fresh heartbeats
        // must keep clearing them; a large standing count means rot.
        assert!(
            sim.false_suspicions() <= 2,
            "standing false suspicions: {}",
            sim.false_suspicions()
        );
    }

    #[test]
    fn multiple_failures_all_detected() {
        let cfg = MembershipConfig::plane(14);
        let mut sim = MembershipSim::new(&cfg, 5);
        sim.fail_node(2, 25.0);
        sim.fail_node(7, 40.0);
        sim.run_until(40.0 + cfg.detection_bound());
        assert!(sim.all_alive_suspect(2));
        assert!(sim.all_alive_suspect(7));
        assert_eq!(sim.false_suspicions(), 0);
    }

    #[test]
    fn dead_nodes_stop_heartbeating() {
        let cfg = MembershipConfig::plane(6);
        let mut a = MembershipSim::new(&cfg, 6);
        a.run_until(100.0);
        let healthy = a.messages_sent();
        let mut b = MembershipSim::new(&cfg, 6);
        b.fail_node(0, 10.0);
        b.fail_node(1, 10.0);
        b.run_until(100.0);
        assert!(b.messages_sent() < healthy, "dead nodes must fall silent");
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn tiny_group_rejected() {
        let _ = MembershipConfig::plane(1);
    }
}
