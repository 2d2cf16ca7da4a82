//! The network facade: topology + links + faults + delivery accounting.

use std::collections::HashMap;

use oaq_sim::{SimRng, SimTime};

use crate::fault::FaultPlan;
use crate::link::{LinkSpec, LossModel, LossState};
use crate::message::{Envelope, NodeId};
use crate::topology::Topology;

/// What happened to one send attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum SendOutcome<P> {
    /// The message will arrive; schedule `envelope.arrival` in your event
    /// queue.
    Delivered(Envelope<P>),
    /// The sender had already gone fail-silent.
    SenderFailed,
    /// The receiver is fail-silent: the message vanishes (fail-silent nodes
    /// cannot NACK — this is what the protocol's wait-timeout covers).
    ReceiverFailed,
    /// No crosslink exists between the two nodes.
    NotLinked,
    /// The edge is in a scheduled transient outage: the message is dropped
    /// deterministically, as opposed to the random [`SendOutcome::Lost`].
    Outage,
    /// The link's loss process dropped the message.
    Lost,
}

impl<P> SendOutcome<P> {
    /// The envelope, if the message will be delivered.
    #[must_use]
    pub fn delivered(self) -> Option<Envelope<P>> {
        match self {
            SendOutcome::Delivered(e) => Some(e),
            _ => None,
        }
    }

    /// `true` when the message will arrive.
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        matches!(self, SendOutcome::Delivered(_))
    }
}

/// Cumulative network counters.
///
/// Every attempt lands in exactly one bucket, so
/// `attempts == delivered + lost + outage_drops + endpoint_failures +
/// unlinked` holds at all times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Send attempts.
    pub attempts: u64,
    /// Messages that will be (or were) delivered.
    pub delivered: u64,
    /// Messages lost randomly by the link's loss process.
    pub lost: u64,
    /// Messages dropped by a scheduled edge outage.
    pub outage_drops: u64,
    /// Sends blocked by a failed endpoint.
    pub endpoint_failures: u64,
    /// Sends between unlinked nodes.
    pub unlinked: u64,
}

impl NetworkStats {
    /// Sum of all terminal buckets; equals [`NetworkStats::attempts`] by
    /// construction.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        self.delivered + self.lost + self.outage_drops + self.endpoint_failures + self.unlinked
    }
}

/// Per-edge loss-channel state (burst chains), keyed by the normalized
/// undirected edge `(min, max)`.
pub type LossStates = HashMap<(NodeId, NodeId), LossState>;

/// A simulated crosslink network.
///
/// See the [crate-level example](crate) for usage. The type parameter `P` is
/// the application payload carried by [`Envelope`]s.
#[derive(Debug, Clone)]
pub struct Network<P> {
    topology: Topology,
    link: LinkSpec,
    faults: FaultPlan,
    stats: NetworkStats,
    /// Per-edge loss-channel state. Empty until an edge first carries
    /// traffic, and only ever looked up by key.
    loss_states: LossStates,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P> Network<P> {
    /// Creates a fault-free network.
    #[must_use]
    pub fn new(topology: Topology, link: LinkSpec) -> Self {
        Network {
            topology,
            link,
            faults: FaultPlan::new(),
            stats: NetworkStats::default(),
            loss_states: HashMap::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Installs a recycled loss-state map. It is cleared first, so every
    /// edge's channel still starts fresh; only its capacity carries over.
    #[must_use]
    pub fn with_loss_states(mut self, mut states: LossStates) -> Self {
        states.clear();
        self.loss_states = states;
        self
    }

    /// Consumes the network, returning the topology, the fault plan and
    /// the loss-state map so callers can recycle all three sets of buffers
    /// across episodes.
    #[must_use]
    pub fn into_parts(self) -> (Topology, FaultPlan, LossStates) {
        (self.topology, self.faults, self.loss_states)
    }

    /// The link model shared by all links.
    #[must_use]
    pub fn link(&self) -> &LinkSpec {
        &self.link
    }

    /// The fault plan.
    #[must_use]
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Mutable fault-plan access (to inject failures mid-run).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Samples the loss process of the undirected edge `{a, b}`, advancing
    /// that edge's burst chain when the link model is bursty. Also used by
    /// the reliable layer to model ACK loss on the reverse path.
    pub(crate) fn sample_edge_loss(&mut self, a: NodeId, b: NodeId, rng: &mut SimRng) -> bool {
        // I.i.d. loss carries no per-edge state, so the hot path skips the
        // map probe; the RNG draw discipline is identical to
        // `LossState::sample` in i.i.d. mode (at most one draw, none when
        // `p == 0`).
        if let LossModel::Iid { p } = *self.link.loss_model() {
            return p > 0.0 && rng.chance(p);
        }
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let state = self.loss_states.entry(key).or_default();
        state.sample(self.link.loss_model(), rng)
    }

    /// Attempts to send `payload` from `src` to `dst` at time `now`.
    ///
    /// On success the returned envelope carries the arrival time; the caller
    /// schedules the delivery in its own event queue. Failure outcomes are
    /// silent at the protocol level (no NACKs), mirroring real crosslinks.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: P,
        now: SimTime,
        rng: &mut SimRng,
    ) -> SendOutcome<P> {
        self.stats.attempts += 1;
        if self.faults.is_failed(src, now) {
            self.stats.endpoint_failures += 1;
            return SendOutcome::SenderFailed;
        }
        if !self.topology.are_linked(src, dst) {
            self.stats.unlinked += 1;
            return SendOutcome::NotLinked;
        }
        if self.faults.is_outaged(src, dst, now) {
            self.stats.outage_drops += 1;
            return SendOutcome::Outage;
        }
        if self.sample_edge_loss(src, dst, rng) {
            self.stats.lost += 1;
            return SendOutcome::Lost;
        }
        let arrival = now + self.link.sample_delay(rng);
        // Fail-silence is evaluated at arrival: a receiver that dies while
        // the message is in flight never processes it.
        if self.faults.is_failed(dst, arrival) {
            self.stats.endpoint_failures += 1;
            return SendOutcome::ReceiverFailed;
        }
        self.stats.delivered += 1;
        SendOutcome::Delivered(Envelope {
            src,
            dst,
            sent_at: now,
            arrival,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(loss: f64) -> Network<u32> {
        let link = LinkSpec::new(0.02, 0.1).unwrap().with_loss(loss).unwrap();
        Network::new(Topology::ring(6), link)
    }

    #[test]
    fn adjacent_send_is_delivered_within_delta() {
        let mut n = net(0.0);
        let mut rng = SimRng::seed_from(1);
        let out = n.send(NodeId(0), NodeId(1), 7, SimTime::new(5.0), &mut rng);
        let e = out.delivered().expect("delivered");
        assert_eq!(e.payload, 7);
        assert!(e.latency().as_minutes() <= 0.1);
        assert!(e.arrival >= SimTime::new(5.02));
        assert_eq!(n.stats().delivered, 1);
    }

    #[test]
    fn non_adjacent_send_fails() {
        let mut n = net(0.0);
        let mut rng = SimRng::seed_from(2);
        let out = n.send(NodeId(0), NodeId(3), 0, SimTime::ZERO, &mut rng);
        assert_eq!(out, SendOutcome::NotLinked);
        assert_eq!(n.stats().unlinked, 1);
    }

    #[test]
    fn failed_sender_cannot_send() {
        let mut n = net(0.0);
        n.faults_mut().fail_at(NodeId(0), SimTime::new(1.0));
        let mut rng = SimRng::seed_from(3);
        let before = n.send(NodeId(0), NodeId(1), 0, SimTime::new(0.5), &mut rng);
        assert!(before.is_delivered());
        let after = n.send(NodeId(0), NodeId(1), 0, SimTime::new(1.5), &mut rng);
        assert_eq!(after, SendOutcome::SenderFailed);
    }

    #[test]
    fn receiver_failing_in_flight_loses_message() {
        let mut n = net(0.0);
        // Receiver dies 0.01 min after the send: every delay >= 0.02 min, so
        // the message is always in flight when the failure hits.
        n.faults_mut().fail_at(NodeId(1), SimTime::new(1.01));
        let mut rng = SimRng::seed_from(4);
        let out = n.send(NodeId(0), NodeId(1), 0, SimTime::new(1.0), &mut rng);
        assert_eq!(out, SendOutcome::ReceiverFailed);
    }

    #[test]
    fn loss_statistics_accumulate() {
        let mut n = net(0.5);
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let _ = n.send(NodeId(2), NodeId(3), 0, SimTime::ZERO, &mut rng);
        }
        let s = n.stats();
        assert_eq!(s.attempts, 1000);
        assert_eq!(s.delivered + s.lost, 1000);
        assert!((s.lost as f64 - 500.0).abs() < 60.0, "lost {}", s.lost);
    }

    #[test]
    fn outaged_edge_drops_deterministically_then_recovers() {
        let mut n = net(0.0);
        n.faults_mut()
            .outage_between(NodeId(0), NodeId(1), SimTime::new(2.0), SimTime::new(4.0));
        let mut rng = SimRng::seed_from(20);
        assert!(n
            .send(NodeId(0), NodeId(1), 0, SimTime::new(1.0), &mut rng)
            .is_delivered());
        assert_eq!(
            n.send(NodeId(0), NodeId(1), 0, SimTime::new(2.5), &mut rng),
            SendOutcome::Outage
        );
        // The outage is symmetric.
        assert_eq!(
            n.send(NodeId(1), NodeId(0), 0, SimTime::new(3.9), &mut rng),
            SendOutcome::Outage
        );
        assert!(n
            .send(NodeId(0), NodeId(1), 0, SimTime::new(4.0), &mut rng)
            .is_delivered());
        assert_eq!(n.stats().outage_drops, 2);
    }

    #[test]
    fn bursty_network_loss_is_correlated_per_edge() {
        let ge = crate::link::GilbertElliott::bursts(0.05, 10.0, 1.0).unwrap();
        let link = LinkSpec::new(0.02, 0.1)
            .unwrap()
            .with_bursty_loss(ge)
            .unwrap();
        let mut n: Network<u32> = Network::new(Topology::ring(6), link);
        let mut rng = SimRng::seed_from(21);
        let outcomes: Vec<bool> = (0..5000)
            .map(|_| {
                n.send(NodeId(0), NodeId(1), 0, SimTime::ZERO, &mut rng)
                    .is_delivered()
            })
            .collect();
        let s = n.stats();
        assert_eq!(s.attempts, 5000);
        assert_eq!(s.accounted(), s.attempts);
        assert!(s.lost > 0, "bursts must lose something");
        // Conditional loss after a loss beats the marginal rate — the
        // defining signature of burstiness.
        let marginal = s.lost as f64 / s.attempts as f64;
        let (mut after, mut after_lost) = (0u32, 0u32);
        for w in outcomes.windows(2) {
            if !w[0] {
                after += 1;
                if !w[1] {
                    after_lost += 1;
                }
            }
        }
        let cond = f64::from(after_lost) / f64::from(after);
        assert!(cond > 1.5 * marginal, "cond {cond} vs marginal {marginal}");
    }

    #[test]
    fn recycled_loss_states_start_every_edge_fresh() {
        // A map handed back by `into_parts` still holds the burst chains
        // it ended in; installing it must not carry them into the next
        // network.
        let ge = crate::link::GilbertElliott::bursts(0.3, 8.0, 1.0).unwrap();
        let link = LinkSpec::new(0.02, 0.1)
            .unwrap()
            .with_bursty_loss(ge)
            .unwrap();
        // Sends until the first loss, so the edge ends in its bad state.
        let run = |n: &mut Network<u32>| -> Vec<bool> {
            let mut rng = SimRng::seed_from(23);
            let mut outcomes = Vec::new();
            while outcomes.last() != Some(&false) {
                let sent = n.send(NodeId(0), NodeId(1), 0, SimTime::ZERO, &mut rng);
                outcomes.push(sent.is_delivered());
            }
            outcomes
        };
        let mut first: Network<u32> = Network::new(Topology::ring(6), link);
        let fresh = run(&mut first);
        let (topology, faults, states) = first.into_parts();
        assert!(!states.is_empty(), "the edge left a burst chain behind");
        let mut recycled: Network<u32> = Network::new(topology, link)
            .with_faults(faults)
            .with_loss_states(states);
        assert_eq!(run(&mut recycled), fresh);
    }

    #[test]
    fn stats_buckets_sum_to_attempts_across_all_variants() {
        // Exercise every SendOutcome variant, then check the invariant.
        let ge = crate::link::GilbertElliott::bursts(0.3, 5.0, 1.0).unwrap();
        let link = LinkSpec::new(0.02, 0.1)
            .unwrap()
            .with_bursty_loss(ge)
            .unwrap();
        let mut n: Network<u32> = Network::new(Topology::ring(6), link);
        n.faults_mut().fail_at(NodeId(4), SimTime::ZERO);
        n.faults_mut()
            .fail_between(NodeId(3), SimTime::new(0.0), SimTime::new(50.0));
        n.faults_mut()
            .outage_between(NodeId(1), NodeId(2), SimTime::new(0.0), SimTime::new(25.0));
        let mut rng = SimRng::seed_from(22);
        let mut seen_outage = false;
        let mut seen_lost = false;
        for i in 0..2000u32 {
            let t = SimTime::new(f64::from(i) * 0.05);
            let _ = n.send(NodeId(4), NodeId(5), 0, t, &mut rng); // SenderFailed
            let _ = n.send(NodeId(0), NodeId(3), 0, t, &mut rng); // NotLinked
            let _ = n.send(NodeId(2), NodeId(3), 0, t, &mut rng); // ReceiverFailed then alive
            match n.send(NodeId(1), NodeId(2), 0, t, &mut rng) {
                SendOutcome::Outage => seen_outage = true,
                SendOutcome::Lost => seen_lost = true,
                _ => {}
            }
            let _ = n.send(NodeId(0), NodeId(1), 0, t, &mut rng); // mostly Delivered
        }
        let s = n.stats();
        assert!(
            seen_outage && seen_lost,
            "outage {seen_outage} lost {seen_lost}"
        );
        assert_eq!(s.attempts, 10_000);
        assert!(s.delivered > 0);
        assert!(s.endpoint_failures > 0);
        assert!(s.unlinked > 0);
        assert!(s.outage_drops > 0);
        assert!(s.lost > 0);
        assert_eq!(s.accounted(), s.attempts);
    }
}
