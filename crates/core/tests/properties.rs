//! Property-based tests of protocol-level invariants, across randomized
//! capacities, timings, signals and fault injections.

use oaq_core::config::{MembershipHints, ProtocolConfig, Scheme};
use oaq_core::protocol::{Episode, EpisodeScratch};
use oaq_core::qos_level::QosLevel;
use oaq_core::signal::CoverageGeometry;
use oaq_orbit::Preset;
use proptest::prelude::*;

fn any_cfg() -> impl Strategy<Value = ProtocolConfig> {
    (2usize..16, 1.0f64..8.0, any::<bool>(), any::<bool>()).prop_map(|(k, tau, oaq, backward)| {
        let mut cfg = ProtocolConfig::reference(k, if oaq { Scheme::Oaq } else { Scheme::Baq });
        cfg.tau = tau;
        cfg.backward_messaging = backward;
        cfg
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn level_respects_regime_table(
        cfg in any_cfg(),
        birth in 0.0f64..90.0,
        duration in 0.0f64..30.0,
        seed in any::<u64>(),
    ) {
        let out = Episode::new(&cfg, seed).run(birth, duration);
        match out.level {
            QosLevel::SimultaneousDual => prop_assert!(cfg.is_overlapping()),
            QosLevel::SequentialDual => prop_assert!(!cfg.is_overlapping()),
            QosLevel::Missed => prop_assert!(
                !cfg.is_overlapping() || out.delivered_at.is_none()
            ),
            QosLevel::Single => {}
        }
    }

    #[test]
    fn fault_free_alerts_meet_the_deadline(
        cfg in any_cfg(),
        birth in 0.0f64..90.0,
        duration in 0.0f64..30.0,
        seed in any::<u64>(),
    ) {
        let out = Episode::new(&cfg, seed).run(birth, duration);
        // Without injected faults, any detected signal yields a delivery
        // within τ of detection — the protocol's core guarantee, for both
        // schemes and both messaging variants.
        if out.level > QosLevel::Missed {
            prop_assert!(out.deadline_met, "late alert: {out:?}");
            prop_assert!(out.delivered_at.is_some());
        }
        prop_assert!(out.s1_released || out.level == QosLevel::Missed);
    }

    #[test]
    fn overlap_never_misses(
        k in 11usize..15,
        birth in 0.0f64..90.0,
        duration in 0.0f64..30.0,
        seed in any::<u64>(),
    ) {
        let cfg = ProtocolConfig::reference(k, Scheme::Oaq);
        let out = Episode::new(&cfg, seed).run(birth, duration);
        prop_assert!(
            out.level >= QosLevel::Single,
            "overlapping geometry always covers: {out:?}"
        );
    }

    #[test]
    fn chain_length_bounded_by_eq2(
        k in 9usize..11,
        tau in 1.0f64..30.0,
        birth in 0.0f64..90.0,
        seed in any::<u64>(),
    ) {
        let mut cfg = ProtocolConfig::reference(k, Scheme::Oaq);
        cfg.tau = tau;
        let out = Episode::new(&cfg, seed).run(birth, 60.0);
        let l1 = cfg.tr();
        let l2 = (cfg.tc - l1).abs();
        let m_bound = if tau > l2 { 2 + ((tau - l2) / l1).floor() as usize } else { 1 };
        prop_assert!(
            out.chain_length <= m_bound.min(k),
            "chain {} exceeds M[k] = {} (k={k}, tau={tau})",
            out.chain_length,
            m_bound
        );
    }

    #[test]
    fn oaq_level_weakly_dominates_baq_per_episode(
        k in 9usize..15,
        birth in 0.0f64..90.0,
        duration in 0.5f64..30.0,
        seed in any::<u64>(),
    ) {
        let oaq = Episode::new(&ProtocolConfig::reference(k, Scheme::Oaq), seed)
            .run(birth, duration);
        let baq = Episode::new(&ProtocolConfig::reference(k, Scheme::Baq), seed)
            .run(birth, duration);
        // Identical world (same seed => same detection and computation
        // draws for S1): OAQ's delivered level is never worse.
        prop_assert!(
            oaq.level >= baq.level,
            "OAQ {:?} < BAQ {:?}",
            oaq.level,
            baq.level
        );
    }

    #[test]
    fn arbitrary_window_patterns_respect_protocol_invariants(
        offsets in prop::collection::vec(0.0f64..90.0, 2..8),
        durations in prop::collection::vec(1.0f64..12.0, 2..8),
        birth in 0.0f64..180.0,
        duration in 0.5f64..30.0,
        seed in any::<u64>(),
    ) {
        // A fully irregular multi-plane sweep: random window starts and
        // lengths. The protocol's guarantees must hold regardless.
        let k = offsets.len().min(durations.len());
        prop_assume!(k >= 2);
        let windows: Vec<(f64, f64)> = offsets[..k]
            .iter()
            .zip(&durations[..k])
            .map(|(&o, &d)| (o, d))
            .collect();
        let geom = CoverageGeometry::with_windows(windows.clone(), 90.0);
        let cfg = ProtocolConfig::reference(k, Scheme::Oaq);
        let out = Episode::new(&cfg, seed)
            .with_geometry(geom)
            .run(birth, duration);
        // Timeliness: any detection yields an on-time alert (fault-free).
        if out.level > QosLevel::Missed {
            prop_assert!(out.deadline_met, "{out:?}");
        }
        // Simultaneous dual requires two windows that actually intersect
        // somewhere in the periodic pattern.
        if out.level == QosLevel::SimultaneousDual {
            let intersects = |a: (f64, f64), b: (f64, f64)| -> bool {
                // Compare on the circle of circumference 90.
                let gap = (b.0 - a.0).rem_euclid(90.0);
                gap < a.1 || (90.0 - gap) < b.1
            };
            let some_overlap = (0..k).any(|i| {
                (0..k).any(|j| i != j && intersects(windows[i], windows[j]))
            });
            prop_assert!(some_overlap, "Y=3 without overlapping windows: {windows:?}");
        }
    }

    #[test]
    fn deliveries_never_precede_detection_plus_computation(
        cfg in any_cfg(),
        birth in 0.0f64..90.0,
        duration in 0.1f64..30.0,
        seed in any::<u64>(),
    ) {
        let out = Episode::new(&cfg, seed).run(birth, duration);
        if let Some(at) = out.delivered_at {
            prop_assert!(at >= birth, "delivered before the signal existed");
        }
    }
}

/// The nudge the protocol adds to coverage queries made at window edges.
const COVERAGE_EPS: f64 = 1e-6;

/// A random geometry of 1 to ~2000 satellites whose durations share one
/// scale (short, medium or close to θ, the last forcing whole-ring
/// queries). Offsets mix 0, just below θ, a tiny negative that wraps to
/// exactly θ, a few shared values (phase ties), large multiples of θ and
/// uniform draws.
fn any_geometry() -> impl Strategy<Value = CoverageGeometry> {
    (
        10.0f64..200.0,
        (0u8..3, 0.0f64..1.0).prop_map(|(class, u)| match class {
            0 => 0.001 + 0.099 * u,
            1 => 0.1 + 0.5 * u,
            _ => 0.6 + 0.399 * u,
        }),
        prop::collection::vec((0u8..8, 0.0f64..1.0, 0.01f64..1.0), 1..2000),
    )
        .prop_map(|(theta, scale, sats)| {
            let windows = sats
                .into_iter()
                .map(|(kind, u, d)| {
                    let offset = match kind {
                        0 => 0.0,
                        1 => theta * (1.0 - f64::EPSILON),
                        2 => -1e-300,
                        3 => (u * 8.0).floor() * theta / 8.0,
                        4 => u * theta + 1e4 * theta,
                        _ => u * theta,
                    };
                    (offset, d * scale * theta)
                })
                .collect();
            CoverageGeometry::with_windows(windows, theta)
        })
}

/// The Starlink shell-1 sweep: 72 planes × 22 satellites, Walker-phased.
fn walker_geometry() -> CoverageGeometry {
    let w = Preset::Starlink.config();
    let total = w.total_satellites() as f64;
    let theta = w.period.value();
    let offsets = (0..w.planes)
        .flat_map(|p| (0..w.satellites_per_plane).map(move |s| (p, s)))
        .map(|(p, s)| {
            let turns =
                (w.phasing_factor * p) as f64 / total + s as f64 / w.satellites_per_plane as f64;
            theta * turns.fract()
        })
        .collect();
    CoverageGeometry::with_offsets(offsets, theta, w.coverage_time.value())
}

/// Probe instants at satellite window edges: the start or end of a
/// window, exactly or ± [`COVERAGE_EPS`], after 0, 1, 37 or 10⁶ periods.
fn any_edges() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    prop::collection::vec((any::<usize>(), 0u8..6, 0u8..4), 1..24)
}

/// Asserts that the range-query summary equals the linear oracle,
/// `covering_at` filtered by `keep`, at every edge probe and at `t`.
fn check_summary(
    g: &CoverageGeometry,
    edges: &[(usize, u8, u8)],
    t: f64,
    mask: u64,
) -> Result<(), TestCaseError> {
    let keep = |j: usize| {
        mask.is_multiple_of(4) || (j as u64 ^ mask).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 != 0
    };
    let theta = g.k() as f64 * g.tr();
    let probes = edges.iter().map(|(sat, edge, periods)| {
        let (offset, dur) = g.windows()[sat % g.k()];
        let base = offset + [0.0, 1.0, 37.0, 1e6][usize::from(*periods)] * theta;
        base + [
            0.0,
            dur,
            -COVERAGE_EPS,
            COVERAGE_EPS,
            dur - COVERAGE_EPS,
            dur + COVERAGE_EPS,
        ][usize::from(*edge)]
    });
    for t in probes.chain([t]) {
        let filtered: Vec<usize> = g.covering_at(t).into_iter().filter(|&j| keep(j)).collect();
        prop_assert_eq!(
            g.covering_summary(t, keep),
            (filtered.len(), filtered.last().copied()),
            "t = {}",
            t
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn covering_summary_matches_the_linear_oracle(
        g in any_geometry(),
        edges in any_edges(),
        t in 0.0f64..1e5,
        mask in any::<u64>(),
    ) {
        check_summary(&g, &edges, t, mask)?;
    }

    #[test]
    fn covering_summary_matches_the_linear_oracle_on_a_walker_shell(
        edges in any_edges(),
        t in 0.0f64..1e5,
        mask in any::<u64>(),
    ) {
        check_summary(&walker_geometry(), &edges, t, mask)?;
    }
}

/// One episode of a recycled-scratch sequence: satellite count class
/// (1, 2..40 or 1584), geometry kind (reference, random windows, or the
/// Walker shell at 1584), membership reach (0 = no hints), retry budget,
/// loss, seed, signal, and faults whose satellites are indices into the
/// target's covering set when even, into all k satellites when odd.
#[derive(Debug, Clone)]
struct Step {
    k_class: u8,
    small_k: usize,
    geometry: u8,
    max_skip: usize,
    retry_budget: u32,
    loss: f64,
    seed: u64,
    birth: f64,
    duration: f64,
    failures: Vec<(usize, f64)>,
    windows: Vec<(usize, f64, f64)>,
    outages: Vec<(usize, f64, f64)>,
}

fn any_step() -> impl Strategy<Value = Step> {
    (
        (0u8..3, 2usize..41, 0u8..3, 0usize..5),
        (0u32..3, 0.0f64..0.5, any::<u64>()),
        (0.0f64..200.0, 0.0f64..30.0),
        prop::collection::vec((any::<usize>(), 0.0f64..200.0), 0..10),
        prop::collection::vec((any::<usize>(), 0.0f64..200.0, 0.01f64..20.0), 0..10),
        prop::collection::vec((any::<usize>(), 0.0f64..200.0, 0.01f64..20.0), 0..4),
    )
        .prop_map(
            |(
                (k_class, small_k, geometry, max_skip),
                (retry_budget, loss, seed),
                (birth, duration),
                failures,
                windows,
                outages,
            )| Step {
                k_class,
                small_k,
                geometry,
                max_skip,
                retry_budget,
                loss,
                seed,
                birth,
                duration,
                failures,
                windows,
                outages,
            },
        )
}

impl Step {
    /// The episode this step describes.
    fn episode(&self) -> Episode {
        let k = match self.k_class {
            0 => 1,
            1 => self.small_k,
            _ => 1584,
        };
        let mut cfg = ProtocolConfig::reference(k, Scheme::Oaq);
        cfg.message_loss = self.loss;
        cfg.retry_budget = self.retry_budget;
        cfg.retry_timeout = 0.25;
        if self.max_skip > 0 {
            cfg.membership = Some(MembershipHints {
                detection_latency: 2.0,
                max_skip: self.max_skip,
            });
        }
        let geometry = match self.geometry {
            0 => None,
            1 => {
                let mut h = self.seed;
                let mut unit = || {
                    h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (h >> 11) as f64 / (1u64 << 53) as f64
                };
                let windows = (0..k)
                    .map(|_| {
                        let tr = cfg.theta / k as f64;
                        (
                            unit() * cfg.theta,
                            (tr * (0.3 + 1.4 * unit())).min(0.9 * cfg.theta),
                        )
                    })
                    .collect();
                Some(CoverageGeometry::with_windows(windows, cfg.theta))
            }
            _ if k == 1584 => {
                let g = walker_geometry();
                cfg.theta = g.k() as f64 * g.tr();
                cfg.tc = g.windows()[0].1;
                Some(g)
            }
            _ => None,
        };
        let g = geometry
            .clone()
            .unwrap_or_else(|| CoverageGeometry::new(k, cfg.theta, cfg.tc));
        let covering = g.covering_at(self.birth);
        let pick = |raw: usize| {
            if raw.is_multiple_of(2) && !covering.is_empty() {
                covering[raw / 2 % covering.len()]
            } else {
                raw / 2 % k
            }
        };
        let mut ep = Episode::new(&cfg, self.seed);
        if let Some(g) = geometry {
            ep = ep.with_geometry(g);
        }
        for &(raw, at) in &self.failures {
            ep.add_failure(pick(raw), at);
        }
        for &(raw, from, len) in &self.windows {
            ep.add_failure_window(pick(raw), from, from + len);
        }
        for &(raw, from, len) in &self.outages {
            let a = pick(raw);
            ep.add_link_outage(a, g.next_visitor(a), from, from + len);
        }
        ep
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // One scratch recycled across a random interleaving of satellite
    // counts, geometries, membership reach, faults and retry budgets must
    // return what a fresh scratch returns, episode by episode. Run in
    // debug, every episode also asserts that the satellites it did not
    // involve were left pristine, which is what the sparse reset relies on.
    #[test]
    fn recycled_scratch_matches_a_fresh_one(steps in prop::collection::vec(any_step(), 1..10)) {
        let mut scratch = EpisodeScratch::new();
        for (i, step) in steps.iter().enumerate() {
            let ep = step.episode();
            let fresh = ep.run(step.birth, step.duration);
            let recycled = ep.run_scratch(step.birth, step.duration, &mut scratch);
            prop_assert_eq!(recycled, fresh, "step {}: {:?}", i, step);
        }
    }
}
