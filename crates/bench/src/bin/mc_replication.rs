//! Experiment E18 — the deterministic parallel Monte Carlo replication
//! engine: serial vs multi-worker fan-out, with bit-identity asserted.
//!
//! Reports JSON on stdout (progress on stderr), written to
//! `BENCH_sim.json` at the repo root / uploaded by CI:
//!
//! 1. **campaign_cell** — one fault-injection cell (E15's reference mix).
//!    The legacy always-traced serial loop vs the untraced fast path
//!    (tracing only replayed for violations), then the fast path fanned
//!    across 1/2/4/8 workers. Every worker count must reproduce the
//!    serial cell bit-for-bit — counts, violation list, trace strings —
//!    and the bench exits non-zero if any diverges.
//! 2. **qos_estimate** — E9's conditional-QoS estimator through the same
//!    engine; the `QosEstimate` must be exactly equal (`==` on every
//!    float) across worker counts.
//! 3. **grid** — the two-level cells × episodes fan-out vs per-cell runs.
//!
//! Each worker count's progress line also prints the executor's own
//! breakdown of those timed calls (`oaq_exec::stats`): helpers spawned,
//! tasks, steals, the caller's spawn, own work, wait and merge per call,
//! and how late the helpers started.
//!
//! Parallel *speedup* here is honest wall-clock on whatever hardware runs
//! the bench (the `cores` field says how many cores that was); on a
//! single-core container the curve is flat and only the determinism
//! contract is asserted. The fast-path speedup is algorithmic and shows
//! up on any hardware.
//!
//! Usage: `mc_replication [--quick] [--seed N] [--episodes N] [--chunk N]`

use oaq_bench::args::CliSpec;
use oaq_bench::campaign::{
    run_cell_fanout, run_cell_traced_baseline, run_grid_fanout, CellSpec, LossAxis,
};
use oaq_bench::json::{emit, fmt_f64};
use oaq_bench::measure;
use oaq_core::config::{ProtocolConfig, Scheme};
use oaq_core::experiment::{estimate_conditional_qos_par, MonteCarloOptions};
use oaq_exec::Executor;
use oaq_sim::par::Replicator;

fn main() {
    let cli = CliSpec::new("mc_replication")
        .switch("--quick", "fewer episodes and reps (CI size)")
        .option("--seed", "N", "base RNG seed (default 1515)")
        .option("--episodes", "N", "episodes in the campaign cell")
        .option(
            "--chunk",
            "N",
            "episodes per work chunk (default: adaptive)",
        )
        .parse();
    let quick = cli.has("--quick");
    let seed = cli.get_u64("--seed", 1515);
    let episodes = cli.get_u64("--episodes", if quick { 300 } else { 2000 });
    let chunk = cli.get_chunk("--chunk");
    // Every run pins the same chunk override; only the worker count varies.
    let on = |workers: usize| Executor::new(workers).with_chunk(chunk);
    let resolved_chunk = Replicator::new(on(1)).resolved_chunk(episodes);
    let rounds = if quick { 1 } else { 3 };
    let cores = oaq_exec::effective_workers(0);

    let mut divergence = false;

    // 1. Campaign cell: traced baseline vs untraced fast path vs workers.
    let spec = CellSpec {
        loss: LossAxis::Iid { p: 0.2 },
        node_failure_rate: 0.25,
        retry_budget: 1,
    };
    let reference = run_cell_fanout(&spec, episodes, seed, on(1));
    let baseline = run_cell_traced_baseline(&spec, episodes, seed);
    if reference != baseline {
        eprintln!("# DIVERGENCE: fast path disagrees with the traced baseline");
        divergence = true;
    }
    let traced_secs = measure::per_call(rounds, 1, || {
        run_cell_traced_baseline(&spec, episodes, seed)
    });
    // Timed once: the 1-worker row of the curve below is this same call.
    let before = oaq_exec::stats();
    let fastpath_secs =
        measure::per_call(rounds, 1, || run_cell_fanout(&spec, episodes, seed, on(1)));
    let fastpath_exec = oaq_exec::stats().since(&before);
    eprintln!(
        "# campaign_cell ({episodes} episodes): traced {:.1} ms, fastpath {:.1} ms, {:.2}x",
        traced_secs * 1e3,
        fastpath_secs * 1e3,
        traced_secs / fastpath_secs,
    );

    let worker_counts: &[usize] = &[1, 2, 4, 8];
    let curve: Vec<(usize, f64, bool)> = worker_counts
        .iter()
        .map(|&w| {
            let out = run_cell_fanout(&spec, episodes, seed, on(w));
            let identical = out == reference;
            if !identical {
                eprintln!("# DIVERGENCE: {w} workers disagree with the serial cell");
            }
            let (secs, exec) = if w == 1 {
                (fastpath_secs, fastpath_exec)
            } else {
                let before = oaq_exec::stats();
                let secs =
                    measure::per_call(rounds, 1, || run_cell_fanout(&spec, episodes, seed, on(w)));
                (secs, oaq_exec::stats().since(&before))
            };
            eprintln!(
                "#   {w} workers: {:.1} ms, {:.2}x vs serial, identical={identical}; executor: {exec}",
                secs * 1e3,
                fastpath_secs / secs,
            );
            (w, secs, identical)
        })
        .collect();
    divergence |= curve.iter().any(|&(_, _, ok)| !ok);

    // 2. The conditional-QoS estimator across worker counts.
    let cfg = ProtocolConfig::reference(9, Scheme::Oaq);
    let opts = MonteCarloOptions {
        episodes: usize::try_from(episodes).expect("episode count fits usize"),
        mu: 0.5,
        seed,
    };
    let qos_serial = estimate_conditional_qos_par(&cfg, &opts, on(1));
    let qos_serial_secs = measure::per_call(rounds, 1, || {
        estimate_conditional_qos_par(&cfg, &opts, on(1))
    });
    let qos_curve: Vec<(usize, f64, bool)> = [2usize, 4]
        .iter()
        .map(|&w| {
            let est = estimate_conditional_qos_par(&cfg, &opts, on(w));
            let identical = est == qos_serial;
            if !identical {
                eprintln!("# DIVERGENCE: QoS estimate with {w} workers differs from serial");
            }
            let secs = measure::per_call(rounds, 1, || {
                estimate_conditional_qos_par(&cfg, &opts, on(w))
            });
            (w, secs, identical)
        })
        .collect();
    divergence |= qos_curve.iter().any(|&(_, _, ok)| !ok);
    eprintln!(
        "# qos_estimate ({episodes} episodes): serial {:.1} ms, identical across workers={}",
        qos_serial_secs * 1e3,
        qos_curve.iter().all(|&(_, _, ok)| ok),
    );

    // 3. The two-level grid fan-out vs per-cell runs.
    let grid_specs = [
        CellSpec {
            loss: LossAxis::Iid { p: 0.0 },
            node_failure_rate: 0.0,
            retry_budget: 0,
        },
        spec,
        CellSpec {
            loss: LossAxis::Bursty {
                marginal: 0.2,
                burst_len: 5.0,
            },
            node_failure_rate: 0.1,
            retry_budget: 3,
        },
    ];
    let grid_episodes = episodes / 2;
    let grid = run_grid_fanout(&grid_specs, grid_episodes, seed, on(2));
    let grid_identical = grid
        .iter()
        .zip(&grid_specs)
        .all(|(cell, s)| *cell == run_cell_fanout(s, grid_episodes, seed, on(1)));
    if !grid_identical {
        eprintln!("# DIVERGENCE: grid fan-out disagrees with per-cell runs");
        divergence = true;
    }
    let grid_secs = measure::per_call(rounds, 1, || {
        run_grid_fanout(&grid_specs, grid_episodes, seed, on(2))
    });
    eprintln!(
        "# grid ({} cells x {grid_episodes} episodes, 2 workers): {:.1} ms, identical={grid_identical}",
        grid_specs.len(),
        grid_secs * 1e3,
    );

    let curve_json: Vec<String> = curve
        .iter()
        .map(|&(w, secs, ok)| {
            format!(
                "{{\"workers\": {w}, \"secs\": {}, \"speedup\": {}, \"bit_identical\": {ok}}}",
                fmt_f64(secs),
                fmt_f64(fastpath_secs / secs),
            )
        })
        .collect();
    let qos_json: Vec<String> = qos_curve
        .iter()
        .map(|&(w, secs, ok)| {
            format!(
                "{{\"workers\": {w}, \"secs\": {}, \"speedup\": {}, \"bit_identical\": {ok}}}",
                fmt_f64(secs),
                fmt_f64(qos_serial_secs / secs),
            )
        })
        .collect();
    emit(&format!(
        "{{\n  \"experiment\": \"mc_replication\",\n  \"quick\": {quick},\n  \
         \"cores\": {cores},\n  \"chunk\": {resolved_chunk},\n  \"seed\": {seed},\n  \
         \"campaign_cell\": {{\"episodes\": {episodes}, \"traced_baseline_secs\": {}, \
         \"fastpath_secs\": {}, \"fastpath_speedup\": {}, \"workers\": [{}]}},\n  \
         \"qos_estimate\": {{\"episodes\": {episodes}, \"serial_secs\": {}, \
         \"workers\": [{}]}},\n  \
         \"grid\": {{\"cells\": {}, \"episodes_per_cell\": {grid_episodes}, \
         \"secs\": {}, \"bit_identical\": {grid_identical}}}\n}}",
        fmt_f64(traced_secs),
        fmt_f64(fastpath_secs),
        fmt_f64(traced_secs / fastpath_secs),
        curve_json.join(", "),
        fmt_f64(qos_serial_secs),
        qos_json.join(", "),
        grid_specs.len(),
        fmt_f64(grid_secs),
    ));

    if divergence {
        eprintln!("# REPLICATION DETERMINISM VIOLATED: parallel answers diverged from serial");
        std::process::exit(1);
    }
}
