//! Property-based tests of topologies and the network facade.

use oaq_net::fault::FaultPlan;
use oaq_net::link::LinkSpec;
use oaq_net::message::WirePayload;
use oaq_net::topology::Topology;
use oaq_net::{Network, NodeId};
use oaq_sim::{SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn ring_distance_is_min_of_two_ways(n in 3u32..40, a in 0u32..40, b in 0u32..40) {
        prop_assume!(a < n && b < n);
        let t = Topology::ring(n);
        let d = t.hop_distance(NodeId(a), NodeId(b)).unwrap();
        let fwd = (b + n - a) % n;
        let expected = fwd.min(n - fwd) as usize;
        prop_assert_eq!(d, expected);
    }

    #[test]
    fn grid_degree_is_bounded(planes in 2u32..6, per in 3u32..8) {
        let t = Topology::constellation_grid(planes, per);
        for &node in t.nodes() {
            let deg = t.neighbors(node).len();
            // 2 in-plane + up to 2 cross-plane.
            prop_assert!((2..=4).contains(&deg), "degree {deg}");
        }
    }

    #[test]
    fn wire_payload_roundtrips(tag in any::<u8>(), body in prop::collection::vec(any::<u8>(), 0..256)) {
        let p = WirePayload::new(tag, body);
        let decoded = WirePayload::decode(&p.encode()).unwrap();
        prop_assert_eq!(decoded, p);
    }

    #[test]
    fn delivery_latency_respects_link_bounds(
        lo in 0.0f64..0.5,
        width in 0.001f64..0.5,
        seed in any::<u64>(),
    ) {
        let hi = lo + width;
        let spec = LinkSpec::new(lo, hi).unwrap();
        let mut net: Network<u8> = Network::new(Topology::ring(4), spec);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..100 {
            let out = net.send(NodeId(0), NodeId(1), 0, SimTime::new(1.0), &mut rng);
            let env = out.delivered().unwrap();
            let lat = env.latency().as_minutes();
            prop_assert!(lat >= lo - 1e-12 && lat <= hi + 1e-12);
        }
    }

    #[test]
    fn stats_partition_attempts(
        loss in 0.0f64..0.9,
        seed in any::<u64>(),
        sends in 1usize..300,
    ) {
        let spec = LinkSpec::fixed(0.1).with_loss(loss).unwrap();
        let mut net: Network<u8> = Network::new(Topology::ring(5), spec);
        net.faults_mut().fail_at(NodeId(2), SimTime::new(0.0));
        let mut rng = SimRng::seed_from(seed);
        for i in 0..sends {
            let (src, dst) = match i % 3 {
                0 => (NodeId(0), NodeId(1)), // linked
                1 => (NodeId(0), NodeId(3)), // not linked
                _ => (NodeId(1), NodeId(2)), // dead receiver
            };
            let _ = net.send(src, dst, 0, SimTime::new(1.0), &mut rng);
        }
        let s = net.stats();
        prop_assert_eq!(
            s.delivered + s.lost + s.endpoint_failures + s.unlinked,
            s.attempts
        );
        prop_assert_eq!(s.attempts, sends as u64);
    }

    #[test]
    fn earliest_failure_time_wins(times in prop::collection::vec(0.0f64..100.0, 1..20)) {
        let mut plan = FaultPlan::new();
        for &t in &times {
            plan.fail_at(NodeId(9), SimTime::new(t));
        }
        let min = times.iter().copied().fold(f64::MAX, f64::min);
        prop_assert_eq!(plan.failure_time(NodeId(9)), Some(SimTime::new(min)));
    }

    // The CSR topology must be behavior-identical to the straightforward
    // HashMap-of-BTreeSets model it replaced, on arbitrary link/unlink
    // sequences over a bounded id space.
    #[test]
    fn csr_matches_hashmap_reference(
        ops in prop::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 0..120),
    ) {
        use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

        let mut t = Topology::new();
        let mut reference: HashMap<u32, BTreeSet<u32>> = HashMap::new();
        for &(is_link, a, b) in &ops {
            if is_link {
                t.link(NodeId(a), NodeId(b));
                if a != b {
                    reference.entry(a).or_default().insert(b);
                    reference.entry(b).or_default().insert(a);
                }
            } else {
                t.unlink(NodeId(a), NodeId(b));
                if let Some(s) = reference.get_mut(&a) {
                    s.remove(&b);
                }
                if let Some(s) = reference.get_mut(&b) {
                    s.remove(&a);
                }
            }
        }

        let mut want_nodes: Vec<u32> = reference.keys().copied().collect();
        want_nodes.sort_unstable();
        let got_nodes: Vec<u32> = t.nodes().iter().map(|n| n.0).collect();
        prop_assert_eq!(got_nodes, want_nodes);
        prop_assert_eq!(t.node_count(), reference.len());

        let ref_distance = |a: u32, b: u32| -> Option<usize> {
            if !reference.contains_key(&a) || !reference.contains_key(&b) {
                return None;
            }
            if a == b {
                return Some(0);
            }
            let mut seen = HashSet::from([a]);
            let mut frontier = VecDeque::from([(a, 0usize)]);
            while let Some((node, d)) = frontier.pop_front() {
                for &n in &reference[&node] {
                    if n == b {
                        return Some(d + 1);
                    }
                    if seen.insert(n) {
                        frontier.push_back((n, d + 1));
                    }
                }
            }
            None
        };

        for a in 0u32..13 {
            let want: Vec<u32> = reference
                .get(&a)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            let got: Vec<u32> = t.neighbors(NodeId(a)).iter().map(|n| n.0).collect();
            prop_assert_eq!(got, want);
            for b in 0u32..13 {
                let linked = reference.get(&a).is_some_and(|s| s.contains(&b));
                prop_assert_eq!(t.are_linked(NodeId(a), NodeId(b)), linked);
                prop_assert_eq!(t.hop_distance(NodeId(a), NodeId(b)), ref_distance(a, b));
            }
        }
    }
}

/// Schedules `prefix` with `fail_at`, then the permanent failures and
/// windows either one call at a time (every `fail_at`, then every
/// `fail_between`) or through one `fail_all`.
fn build_plan(
    prefix: &[(u32, f64)],
    permanent: &[(u32, f64)],
    windows: &[(u32, f64, f64)],
    bulk: bool,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(node, t) in prefix {
        plan.fail_at(NodeId(node), SimTime::new(t));
    }
    let permanent = permanent
        .iter()
        .map(|&(node, t)| (NodeId(node), SimTime::new(t)));
    let windows = windows
        .iter()
        .map(|&(node, from, until)| (NodeId(node), SimTime::new(from), SimTime::new(until)));
    if bulk {
        plan.fail_all(permanent, windows);
    } else {
        for (node, at) in permanent {
            plan.fail_at(node, at);
        }
        for (node, from, until) in windows {
            plan.fail_between(node, from, until);
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The bulk build must answer exactly as the call-at-a-time sequence,
    // for lists in node order (the campaign's draw) and for unsorted lists
    // with duplicate permanent failures, on an empty or a seeded plan.
    #[test]
    fn bulk_failure_build_matches_one_call_at_a_time(
        prefix in prop::collection::vec((0u32..12, 0.0f64..50.0), 0..3),
        permanent in prop::collection::vec((0u32..12, 0.0f64..50.0), 0..24),
        windows in prop::collection::vec((0u32..12, 0.0f64..50.0, 0.001f64..20.0), 0..24),
        sorted in any::<bool>(),
        latency in 0.0f64..10.0,
    ) {
        let mut permanent = permanent;
        let mut windows: Vec<(u32, f64, f64)> = windows
            .into_iter()
            .map(|(node, from, len)| (node, from, from + len))
            .collect();
        if sorted {
            permanent.sort_by_key(|p| p.0);
            windows.sort_by_key(|w| w.0);
        }
        let want = build_plan(&prefix, &permanent, &windows, false);
        let got = build_plan(&prefix, &permanent, &windows, true);
        prop_assert_eq!(got.len(), want.len());
        let edges: Vec<f64> = prefix
            .iter()
            .chain(&permanent)
            .map(|p| p.1)
            .chain(windows.iter().flat_map(|w| [w.1, w.2]))
            .chain([0.0, 1e9])
            .collect();
        for node in 0..13 {
            let n = NodeId(node);
            prop_assert_eq!(got.failure_time(n), want.failure_time(n), "node {}", node);
            for &edge in &edges {
                for t in [edge - 1e-9, edge, edge + 1e-9] {
                    let t = SimTime::new(t.max(0.0));
                    prop_assert_eq!(got.is_failed(n, t), want.is_failed(n, t), "node {} t {:?}", node, t);
                    let probe = SimTime::new(t.as_minutes() + latency);
                    prop_assert_eq!(
                        got.detected_failed(n, probe, latency),
                        want.detected_failed(n, probe, latency),
                        "node {} t {:?}",
                        node,
                        probe
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // `is_failed` answers from the node's windows alone, whatever the node
    // index (its per-node marks span several words) and after a recycled
    // plan is cleared and refilled with other nodes.
    #[test]
    fn is_failed_matches_the_windows_after_clear(
        first in prop::collection::vec((0u32..200, 0.0f64..50.0), 0..20),
        second in prop::collection::vec((0u32..200, 0.0f64..50.0, 0.001f64..20.0), 0..20),
        at in 0.0f64..80.0,
    ) {
        let mut plan = FaultPlan::new();
        plan.fail_all(first.iter().map(|&(n, t)| (NodeId(n), SimTime::new(t))), []);
        for _ in 0..2 {
            for node in (0..200).map(NodeId) {
                let want = plan.failure_windows(node).any(|w| w.covers(SimTime::new(at)));
                prop_assert_eq!(plan.is_failed(node, SimTime::new(at)), want);
            }
            plan.clear();
            for &(n, from, len) in &second {
                plan.fail_between(NodeId(n), SimTime::new(from), SimTime::new(from + len));
            }
        }
    }
}
