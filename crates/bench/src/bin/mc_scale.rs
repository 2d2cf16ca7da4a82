//! Experiment E24 — the zero-allocation episode engine at
//! mega-constellation scale, with its performance contract enforced.
//!
//! Three gated sections, JSON on stdout (progress on stderr), non-zero
//! exit on any miss:
//!
//! 1. **throughput_gate** — the paper-scale campaign cell (E15's reference
//!    fault mix, k = 10) must run serially at ≥2× the per-episode
//!    throughput the pre-optimization engine recorded in BENCH_sim.json
//!    (3.375 µs/episode, i.e. at most 1.6875 µs/episode now). The gate
//!    takes the *minimum* over several timed repetitions: wall-clock noise
//!    on a shared box only ever slows a run down, so the minimum is the
//!    honest estimate of what the engine does.
//! 2. **bit_identity** — the campaign cell, the conditional-QoS estimator,
//!    and a membership-assisted recruitment aggregate are each replayed
//!    across every worker count × chunk size × forced-steal combination
//!    and must reproduce the serial answer bit-for-bit.
//! 3. **starlink** — a 1584-node Starlink-preset (72 × 22 delta) fault
//!    campaign: the Walker phases define the coverage geometry, violations
//!    stay seed-replayable (the scenario replay is run twice and compared),
//!    the whole campaign must finish under the bench budget, and the
//!    closed-form high-latitude ISL outage schedule is swept over one
//!    orbit period to report cross-plane connectivity.
//!
//! Usage: `mc_scale [--quick] [--seed N] [--episodes N] [--chunk N]`

use std::time::Instant;

use oaq_bench::args::CliSpec;
use oaq_bench::campaign::{
    replay_episode_scenario, run_cell_scenario, starlink_geometry, CellSpec, LossAxis, Scenario,
};
use oaq_bench::json::{emit, fmt_f64};
use oaq_bench::measure;
use oaq_bench::recruit::run_membership;
use oaq_core::config::{MembershipHints, ProtocolConfig, Scheme};
use oaq_core::experiment::{estimate_conditional_qos_par, MonteCarloOptions};
use oaq_exec::Executor;
use oaq_net::topology::BfsScratch;
use oaq_net::{LinkEvent, NodeId, Topology, TopologySchedule};
use oaq_orbit::{cross_plane_outages, Degrees, Preset};

/// Per-episode fastpath cost recorded by `mc_replication` in the
/// checked-in BENCH_sim.json before the zero-allocation engine pass
/// (6.74975 ms / 2000 episodes). The gate requires beating half of it.
const BASELINE_US_PER_EPISODE: f64 = 3.375;

/// Wall-clock budget for the full Starlink campaign section.
const STARLINK_BUDGET_SECS: f64 = 120.0;

fn main() {
    let cli = CliSpec::new("mc_scale")
        .switch("--quick", "fewer episodes and reps (CI size)")
        .option("--seed", "N", "base RNG seed (default 1515)")
        .option("--episodes", "N", "episodes in the gated campaign cell")
        .option(
            "--chunk",
            "N",
            "episodes per work chunk (default: adaptive)",
        )
        .parse();
    let quick = cli.has("--quick");
    let seed = cli.get_u64("--seed", 1515);
    let episodes = cli.get_u64("--episodes", if quick { 1000 } else { 2000 });
    let chunk = cli.get_chunk("--chunk");
    let reps = if quick { 3 } else { 5 };
    let cores = oaq_exec::effective_workers(0);

    let mut miss = false;

    // ── 1. Serial per-episode throughput gate ────────────────────────────
    let base = ProtocolConfig::reference(10, Scheme::Oaq);
    let spec = CellSpec {
        loss: LossAxis::Iid { p: 0.2 },
        node_failure_rate: 0.25,
        retry_budget: 1,
    };
    let serial = Scenario::new(&base, 1);
    let reference = run_cell_scenario(&serial, &spec, episodes, seed);
    // Minimum over single calls, after a warm-up call that fills the
    // per-worker scratch (geometry, topology, buffers). The campaign keeps
    // that scratch across calls, so the timed calls borrow it warm and
    // measure the steady state the campaign runs in.
    let gate_secs = measure::per_call(reps, 1, || {
        run_cell_scenario(&serial, &spec, episodes, seed)
    });
    let gate_us = gate_secs * 1e6 / episodes as f64;
    let required_us = BASELINE_US_PER_EPISODE / 2.0;
    let gate_pass = gate_us <= required_us;
    eprintln!(
        "# throughput_gate: {gate_us:.3} us/episode (min of {reps} x {episodes} episodes), \
         required <= {required_us:.4} ({:.2}x vs baseline {BASELINE_US_PER_EPISODE}) -> {}",
        BASELINE_US_PER_EPISODE / gate_us,
        if gate_pass { "PASS" } else { "MISS" },
    );
    if !gate_pass {
        eprintln!("# GATE MISS: serial throughput below 2x the recorded baseline");
        miss = true;
    }

    // ── 2. Bit-identity across every scheduling configuration ────────────
    let qos_cfg = ProtocolConfig::reference(9, Scheme::Oaq);
    let qos_opts = MonteCarloOptions {
        episodes: usize::try_from(episodes).expect("episode count fits usize"),
        mu: 0.5,
        seed,
    };
    let mut mem_cfg = ProtocolConfig::reference(9, Scheme::Oaq);
    mem_cfg.tau = 25.0;
    mem_cfg.membership = Some(MembershipHints::default());
    let mem_episodes = episodes / 2;

    let qos_ref = estimate_conditional_qos_par(&qos_cfg, &qos_opts, 1);
    let mem_ref = run_membership(&mem_cfg, mem_episodes, seed, 1);

    let mut configs = 0u32;
    let (mut campaign_ok, mut qos_ok, mut mem_ok) = (true, true, true);
    for &workers in &[1usize, 2, 4, 8] {
        for &chunk_cfg in &[None, Some(16u64), chunk.or(Some(7))] {
            for &forced in &[false, true] {
                configs += 1;
                let exec = Executor::new(workers)
                    .with_chunk(chunk_cfg)
                    .with_forced_steals(forced);
                let scen = Scenario::new(&base, exec);
                if run_cell_scenario(&scen, &spec, episodes, seed) != reference {
                    eprintln!(
                        "# DIVERGENCE campaign: workers={workers} chunk={chunk_cfg:?} forced={forced}"
                    );
                    campaign_ok = false;
                }
                if estimate_conditional_qos_par(&qos_cfg, &qos_opts, exec) != qos_ref {
                    eprintln!(
                        "# DIVERGENCE qos: workers={workers} chunk={chunk_cfg:?} forced={forced}"
                    );
                    qos_ok = false;
                }
                if run_membership(&mem_cfg, mem_episodes, seed, exec) != mem_ref {
                    eprintln!(
                        "# DIVERGENCE membership: workers={workers} chunk={chunk_cfg:?} forced={forced}"
                    );
                    mem_ok = false;
                }
            }
        }
    }
    let identity_pass = campaign_ok && qos_ok && mem_ok;
    eprintln!(
        "# bit_identity: {configs} scheduling configs, campaign={campaign_ok} qos={qos_ok} \
         membership={mem_ok}"
    );
    if !identity_pass {
        eprintln!("# GATE MISS: a scheduling configuration changed an answer");
        miss = true;
    }

    // ── 3. Starlink-preset 1584-node campaign + ISL outage sweep ─────────
    let walker = Preset::Starlink.config();
    let nodes = walker.total_satellites();
    let geometry = starlink_geometry();
    let mut starlink_cfg = ProtocolConfig::reference(nodes, Scheme::Oaq);
    starlink_cfg.theta = walker.period.value();
    starlink_cfg.tc = walker.coverage_time.value();
    let starlink_spec = CellSpec {
        loss: LossAxis::Iid { p: 0.2 },
        node_failure_rate: 0.02,
        retry_budget: 1,
    };
    let starlink_episodes = if quick { 200 } else { 1000 };
    let scen = Scenario::new(&starlink_cfg, 0).with_geometry(&geometry);
    let t0 = Instant::now();
    let starlink = run_cell_scenario(&scen, &starlink_spec, starlink_episodes, seed);
    let starlink_secs = t0.elapsed().as_secs_f64();
    let under_budget = starlink_secs <= STARLINK_BUDGET_SECS;
    // Seed-replayability: re-derive episodes purely from
    // (scenario, spec, seed, index) twice — trace and outcome must agree
    // with themselves and, for a recorded violation, with its record. The
    // guarantee holding (zero violations) is the campaign's acceptance
    // property, so the replay contract is exercised on fixed probe episodes
    // plus the first recorded violation when one exists.
    let mut probes = vec![0, starlink_episodes / 2, starlink_episodes - 1];
    if let Some(v) = starlink.violations.first() {
        probes.push(v.episode);
    }
    let mut replay_ok = true;
    for &probe in &probes {
        let (out_a, trace_a) = replay_episode_scenario(&scen, &starlink_spec, seed, probe);
        let (out_b, trace_b) = replay_episode_scenario(&scen, &starlink_spec, seed, probe);
        replay_ok &= out_a == out_b && trace_a == trace_b;
        if let Some(v) = starlink.violations.first() {
            if v.episode == probe {
                replay_ok &= v.outcome == format!("{out_a:?}") && v.trace == trace_a;
            }
        }
    }
    eprintln!(
        "# starlink: {nodes} nodes, {starlink_episodes} episodes in {starlink_secs:.1} s \
         ({:.1} us/episode), detected {}, violations {}, replay_identical={replay_ok}, \
         under_budget={under_budget}",
        starlink_secs * 1e6 / starlink_episodes as f64,
        starlink.detected,
        starlink.violations.len(),
    );
    if !(under_budget && replay_ok) {
        eprintln!("# GATE MISS: Starlink campaign over budget or replay diverged");
        miss = true;
    }

    // Cross-plane ISL outage schedule over one period: in-plane rings plus
    // same-slot cross-plane links, seam windows from the closed form.
    let horizon = walker.period;
    let outages = cross_plane_outages(&walker, Degrees(48.0).to_radians(), horizon);
    let node = |p: usize, s: usize| NodeId((p * walker.satellites_per_plane + s) as u32);
    let mut topo = Topology::new();
    for p in 0..walker.planes {
        for s in 0..walker.satellites_per_plane {
            topo.link(node(p, s), node(p, (s + 1) % walker.satellites_per_plane));
            topo.link(node(p, s), node((p + 1) % walker.planes, s));
        }
    }
    let links = walker.planes * walker.satellites_per_plane * 2;
    let mut events = Vec::with_capacity(outages.len() * 2);
    for o in &outages {
        let (a, b) = (node(o.plane_a, o.slot_a), node(o.plane_b, o.slot_b));
        events.push(LinkEvent {
            t: o.start.value(),
            a,
            b,
            up: false,
        });
        // Windows are clipped to the horizon, so every down edge comes back.
        events.push(LinkEvent {
            t: o.end.value(),
            a,
            b,
            up: true,
        });
    }
    let event_count = events.len();
    let mut schedule = TopologySchedule::new(events);
    let mut bfs = BfsScratch::new();
    let all_alive = |_: NodeId| true;
    let (mut min_reach, mut max_reach) = (usize::MAX, 0usize);
    let stride = if quick { 16 } else { 1 };
    let mut applied = 0usize;
    while let Some(t) = schedule.next_event_time() {
        schedule.advance(&mut topo, t);
        applied += 1;
        if !applied.is_multiple_of(stride) {
            continue;
        }
        let reach = topo.reachable_with(node(0, 0), all_alive, &mut bfs);
        min_reach = min_reach.min(reach);
        max_reach = max_reach.max(reach);
    }
    eprintln!(
        "# isl_schedule: {links} links, {event_count} events over one period, \
         reachable {min_reach}..{max_reach} of {nodes}"
    );

    emit(&format!(
        "{{\n  \"experiment\": \"mc_scale\",\n  \"quick\": {quick},\n  \"cores\": {cores},\n  \
         \"seed\": {seed},\n  \
         \"throughput_gate\": {{\"episodes\": {episodes}, \"reps\": {reps}, \
         \"baseline_us_per_episode\": {}, \"required_us_per_episode\": {}, \
         \"us_per_episode\": {}, \"speedup_vs_baseline\": {}, \"pass\": {gate_pass}, \
         \"cell\": {{\"detected\": {}, \"timely\": {}, \"quality\": {}, \
         \"live_detector\": {}}}}},\n  \
         \"bit_identity\": {{\"configs\": {configs}, \"campaign\": {campaign_ok}, \
         \"qos\": {qos_ok}, \"membership\": {mem_ok}, \"pass\": {identity_pass}, \
         \"membership_tallies\": {{\"seq\": {}, \"missed\": {}, \"msgs\": {}}}}},\n  \
         \"starlink\": {{\"nodes\": {nodes}, \"episodes\": {starlink_episodes}, \
         \"secs\": {}, \"us_per_episode\": {}, \"detected\": {}, \"violations\": {}, \
         \"replay_identical\": {replay_ok}, \"budget_secs\": {}, \
         \"under_budget\": {under_budget}, \
         \"isl_schedule\": {{\"links\": {links}, \"events\": {event_count}, \
         \"min_reachable\": {min_reach}, \"max_reachable\": {max_reach}}}}}\n}}",
        fmt_f64(BASELINE_US_PER_EPISODE),
        fmt_f64(required_us),
        fmt_f64(gate_us),
        fmt_f64(BASELINE_US_PER_EPISODE / gate_us),
        reference.detected,
        reference.timely,
        reference.quality,
        reference.live_detector,
        mem_ref.seq,
        mem_ref.missed,
        mem_ref.msgs,
        fmt_f64(starlink_secs),
        fmt_f64(starlink_secs * 1e6 / starlink_episodes as f64),
        starlink.detected,
        starlink.violations.len(),
        fmt_f64(STARLINK_BUDGET_SECS),
    ));

    if miss {
        eprintln!("# MC_SCALE GATE FAILED");
        std::process::exit(1);
    }
}
