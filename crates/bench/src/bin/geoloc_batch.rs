//! Experiment E22 — structure-of-arrays batched geolocation vs the looped
//! per-track WLS solver, plus the deterministic executor's scheduling
//! overhead on the same workload.
//!
//! Reports JSON on stdout (progress on stderr), written to
//! `BENCH_geoloc_batch.json` at the repo root / uploaded by CI:
//!
//! 1. **batch_curve** — per-solve throughput of the SoA
//!    [`oaq_geoloc::BatchSolver`] against one `WlsSolver::solve_obs` call
//!    per track, over batch sizes {16, 64, 256, 1024}. Every per-emitter
//!    estimate must be bit-identical between the two paths, and the
//!    batched path must be ≥ 3× faster per solve at batch ≥ 256 — the
//!    bench exits non-zero when either contract misses.
//! 2. **executor_overhead** — the same track set fanned over
//!    [`oaq_exec::Executor::map_indexed`] at 1/2/4/8 workers. Results
//!    must be bit-identical to the serial loop at every worker count;
//!    the per-worker wall-clock curve is the scheduling-overhead record
//!    (the `cores` field says how many cores produced it — on a
//!    single-core box the curve measures pure overhead and should stay
//!    within a few percent of serial).
//!
//! Usage: `geoloc_batch [--quick] [--seed N] [--passes N] [--chunk N]`

use oaq_bench::args::CliSpec;
use oaq_bench::json::{emit, fmt_f64};
use oaq_bench::measure;
use oaq_core::fullstack::{solve_tracks_batched, solve_tracks_looped, synthesize_emitter_tracks};
use oaq_exec::Executor;
use oaq_geoloc::doppler::DopplerMeasurement;
use oaq_geoloc::wls::{Estimate, SolveError};
use oaq_geoloc::{BatchSolver, WlsSolver};

/// The tracking scenario every section shares: the paper's reference plane
/// (θ = 90 min, Tc = 9 min) pinned at the replenishment threshold, so the
/// revisit interval is Tr\[η\] = θ/η = 9 min.
const THETA: f64 = 90.0;
const TC: f64 = 9.0;
const REVISIT: f64 = 9.0;

/// Bitwise identity of two per-track solve results. `Ok` estimates compare
/// state, cost, iteration count and the reported error radius down to the
/// bit; errors compare by their rendered message (`SolveError` carries
/// NaN-capable payloads that defeat `PartialEq`).
fn results_identical(
    a: &[Result<Estimate, SolveError>],
    b: &[Result<Estimate, SolveError>],
) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Ok(p), Ok(q)) => {
                p.iterations == q.iterations
                    && p.cost.to_bits() == q.cost.to_bits()
                    && p.state
                        .iter()
                        .zip(&q.state)
                        .all(|(s, t)| s.to_bits() == t.to_bits())
                    && p.error_radius_km().to_bits() == q.error_radius_km().to_bits()
            }
            (Err(p), Err(q)) => p.to_string() == q.to_string(),
            _ => false,
        })
}

fn main() {
    let cli = CliSpec::new("geoloc_batch")
        .switch("--quick", "shorter batch axis (CI size)")
        .option("--seed", "N", "track synthesis seed (default 22)")
        .option("--passes", "N", "passes per emitter track (default 2)")
        .option(
            "--chunk",
            "N",
            "tracks per executor chunk (default: adaptive)",
        )
        .parse();
    let quick = cli.has("--quick");
    let seed = cli.get_u64("--seed", 22);
    let passes = u32::try_from(cli.get_u64("--passes", 2)).expect("passes fits u32");
    let chunk = cli.get_chunk("--chunk");
    // Five rounds of ten calls in both modes: the gate needs each timing
    // round long enough to amortize scheduler noise; `--quick` shortens
    // the batch axis (drops 1024), not the measurement quality.
    let (rounds, reps) = (5, 10);
    let cores = oaq_exec::effective_workers(0);

    let mut failure = false;

    // 1. Batched vs looped per-solve throughput over the batch-size axis.
    let batch_sizes: &[u32] = if quick {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024]
    };
    let mut batch = BatchSolver::<DopplerMeasurement>::default();
    let mut batch_rows = Vec::new();
    for &n in batch_sizes {
        let tracks = synthesize_emitter_tracks(THETA, TC, REVISIT, n, passes, seed);
        let looped = solve_tracks_looped(&tracks);
        let batched = solve_tracks_batched(&tracks, &mut batch);
        let identical = results_identical(&batched, &looped);
        if !identical {
            eprintln!("# DIVERGENCE: batched solve disagrees with the looped solver at n={n}");
            failure = true;
        }
        let looped_secs =
            measure::per_call(rounds, reps, || solve_tracks_looped(&tracks)) / f64::from(n);
        let batched_secs =
            measure::per_call(rounds, reps, || solve_tracks_batched(&tracks, &mut batch))
                / f64::from(n);
        let speedup = looped_secs / batched_secs;
        eprintln!(
            "# batch n={n}: looped {:.1} us/solve, batched {:.1} us/solve, {speedup:.2}x, \
             identical={identical}",
            looped_secs * 1e6,
            batched_secs * 1e6,
        );
        if n >= 256 && speedup < 3.0 {
            eprintln!("# THROUGHPUT MISS: batched speedup {speedup:.2}x < 3x at batch size {n}");
            failure = true;
        }
        batch_rows.push(format!(
            "{{\"batch\": {n}, \"looped_per_solve_secs\": {}, \
             \"batched_per_solve_secs\": {}, \"speedup\": {}, \"bit_identical\": {identical}}}",
            fmt_f64(looped_secs),
            fmt_f64(batched_secs),
            fmt_f64(speedup),
        ));
    }

    // 2. Executor scheduling overhead: the largest track set mapped over
    // the deterministic executor at 1/2/4/8 workers, against the plain
    // serial loop. Indexed slots make the merge order-independent, so any
    // worker count must reproduce the serial results bit-for-bit.
    let n = *batch_sizes.last().expect("batch axis non-empty");
    let tracks = synthesize_emitter_tracks(THETA, TC, REVISIT, n, passes, seed);
    let serial = solve_tracks_looped(&tracks);
    let serial_secs = measure::per_call(rounds, reps, || solve_tracks_looped(&tracks));
    let solver = WlsSolver::new();
    let mut exec_rows = Vec::new();
    for &w in &[1usize, 2, 4, 8] {
        let exec = Executor::new(w).with_chunk(chunk);
        let run = || exec.map_indexed(&tracks, |t| solver.solve_obs(&t.observations, t.x0));
        let fanned = run();
        let identical = results_identical(&fanned, &serial);
        if !identical {
            eprintln!("# DIVERGENCE: {w} executor workers disagree with the serial loop");
            failure = true;
        }
        let secs = measure::per_call(rounds, reps, run);
        let speedup = serial_secs / secs;
        eprintln!(
            "# executor {w} workers ({n} tracks): {:.1} ms, {speedup:.2}x vs serial, \
             identical={identical}",
            secs * 1e3,
        );
        exec_rows.push(format!(
            "{{\"workers\": {w}, \"secs\": {}, \"speedup\": {}, \"bit_identical\": {identical}}}",
            fmt_f64(secs),
            fmt_f64(speedup),
        ));
    }

    emit(&format!(
        "{{\n  \"experiment\": \"geoloc_batch\",\n  \"quick\": {quick},\n  \
         \"cores\": {cores},\n  \"seed\": {seed},\n  \"passes\": {passes},\n  \
         \"scenario\": {{\"theta_min\": {THETA}, \"tc_min\": {TC}, \"revisit_min\": {REVISIT}}},\n  \
         \"batch_curve\": [{}],\n  \
         \"executor_overhead\": {{\"tracks\": {n}, \"serial_secs\": {}, \"workers\": [{}]}}\n}}",
        batch_rows.join(", "),
        fmt_f64(serial_secs),
        exec_rows.join(", "),
    ));

    if failure {
        eprintln!("# BATCH SOLVER CONTRACT VIOLATED: divergence or throughput miss (see above)");
        std::process::exit(1);
    }
}
