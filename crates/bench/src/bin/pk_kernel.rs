//! Experiment E17 — the sparse shared-iterate P(k) kernel vs the dense
//! per-panel baseline, plus the parallel sweep fan-out.
//!
//! Reports JSON on stdout (progress on stderr), written to
//! `BENCH_analytic.json` at the repo root / uploaded by CI:
//!
//! 1. **reference** — the paper's 256-panel `distribution_over` on the
//!    14+2 reference plane: dense per-panel uniformization (one
//!    independent O(n²)-matvec sweep per Simpson node) vs the sparse
//!    kernel (one shared CSR iterate sequence for all 257 nodes). The
//!    bench asserts sparse/dense agreement ≤ 1e-12 and exits non-zero on
//!    violation; the acceptance bar is speedup ≥ 10×.
//! 2. **phi_batch** — a φ-sweep served by `distributions_over` (every
//!    horizon riding one iterate sequence) vs one `distribution_over`
//!    call per φ.
//! 3. **parallel_sweep** — `figure7` over the paper's λ grid, serial vs
//!    the scoped-pool fan-out, with bit-identity of the rows re-checked.
//! 4. **scaling** — a state-count axis: planes scaled up to 10× the
//!    reference (capacity 140 + 20 spares), where the dense path's
//!    O(panels · K · n²) cost grows quadratically while the kernel stays
//!    O(K · nnz) with tridiagonal nnz ≈ 3n.
//!
//! Usage: `pk_kernel [--quick] [--panels N] [--workers N]`

use oaq_analytic::capacity::CapacityParams;
use oaq_analytic::sweep::{figure7, paper_lambda_grid};
use oaq_bench::args::CliSpec;
use oaq_bench::json::{emit, fmt_f64};
use oaq_bench::{max_abs_diff, measure, scaled_solve};
use oaq_san::plane::CapacitySolve;

const LAMBDA: f64 = 5e-5;
const PHI: f64 = 30_000.0;
const ETA: u32 = 10;

struct KernelRow {
    states: usize,
    dense_secs: f64,
    sparse_secs: f64,
    diff: f64,
}

/// Times dense-per-panel vs sparse-shared-iterate `distribution_over` on
/// one solve (`rounds` × `reps` calls each), asserting agreement.
fn bench_solve(solve: &CapacitySolve, panels: usize, (rounds, reps): (usize, usize)) -> KernelRow {
    // Agreement first (the sparse side builds its CSR kernel here).
    let sparse = solve.distribution_over(PHI, panels).expect("sparse solves");
    let dense = solve
        .distribution_over_dense(PHI, panels)
        .expect("dense solves");
    let diff = max_abs_diff(&sparse, &dense);
    let dense_secs = measure::per_call(rounds, reps, || {
        solve.distribution_over_dense(PHI, panels).unwrap()
    });
    let sparse_secs = measure::per_call(rounds, reps, || {
        solve.distribution_over(PHI, panels).unwrap()
    });
    KernelRow {
        states: solve.num_states(),
        dense_secs,
        sparse_secs,
        diff,
    }
}

fn main() {
    let cli = CliSpec::new("pk_kernel")
        .switch("--quick", "fewer reps and a shorter scaling axis (CI size)")
        .option("--panels", "N", "Simpson panels (default 256)")
        .option("--workers", "N", "sweep threads (default: all cores)")
        .option(
            "--chunk",
            "N",
            "grid points per work chunk (default: adaptive)",
        )
        .parse();
    let quick = cli.has("--quick");
    let panels = cli.get_usize("--panels", 256);
    let exec = cli.executor(0);
    // Timing rounds × calls per round.
    let timing = if quick { (3, 1) } else { (5, 2) };

    // 1. Reference plane: the exact solve `engine::eval` serves.
    let solve = CapacityParams::reference(LAMBDA, PHI, ETA)
        .solve()
        .expect("reference plane solves");
    let reference = bench_solve(&solve, panels, timing);
    eprintln!(
        "# reference ({} states, {panels} panels): dense {:.1} us, sparse {:.1} us, {:.1}x, \
         max|diff| {:.2e}",
        reference.states,
        reference.dense_secs * 1e6,
        reference.sparse_secs * 1e6,
        reference.dense_secs / reference.sparse_secs,
        reference.diff,
    );

    // 2. A φ-sweep batched over one iterate sequence vs per-φ calls.
    let phis: Vec<f64> = (1..=16).map(|i| PHI / 16.0 * f64::from(i)).collect();
    let batched = solve
        .distributions_over(&phis, panels)
        .expect("batch solves");
    let single: Vec<Vec<f64>> = phis
        .iter()
        .map(|&phi| solve.distribution_over(phi, panels).unwrap())
        .collect();
    let batch_identical = batched == single;
    let (rounds, reps) = timing;
    let batch_secs = measure::per_call(rounds, reps, || {
        solve.distributions_over(&phis, panels).unwrap()
    });
    let per_phi_secs = measure::per_call(rounds, reps, || {
        phis.iter()
            .map(|&phi| solve.distribution_over(phi, panels).unwrap())
            .collect::<Vec<_>>()
    });
    eprintln!(
        "# phi_batch ({} horizons): per-phi {:.1} us, batched {:.1} us, {:.1}x, identical={}",
        phis.len(),
        per_phi_secs * 1e6,
        batch_secs * 1e6,
        per_phi_secs / batch_secs,
        batch_identical,
    );

    // 3. The sweep layer fan-out on the paper's Figure 7 grid.
    let grid = paper_lambda_grid();
    let serial_rows = figure7(&grid, PHI, ETA, 1).expect("serial sweep");
    let parallel_rows = figure7(&grid, PHI, ETA, exec).expect("parallel sweep");
    let sweep_identical = serial_rows == parallel_rows;
    let sweep_rounds = if quick { 1 } else { 3 };
    let serial_secs = measure::per_call(sweep_rounds, 1, || figure7(&grid, PHI, ETA, 1).unwrap());
    let parallel_secs =
        measure::per_call(sweep_rounds, 1, || figure7(&grid, PHI, ETA, exec).unwrap());
    eprintln!(
        "# parallel_sweep ({} rows, {} workers): serial {:.1} ms, parallel {:.1} ms, {:.1}x, \
         identical={}",
        grid.len(),
        exec.effective_workers(),
        serial_secs * 1e3,
        parallel_secs * 1e3,
        serial_secs / parallel_secs,
        sweep_identical,
    );

    // 4. State-count scaling: how far past the paper's plane the dense
    // path stays affordable.
    let scales: &[u32] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 10] };
    let scaling: Vec<(u32, KernelRow)> = scales
        .iter()
        .map(|&scale| {
            let s = scaled_solve(scale, LAMBDA, PHI, ETA);
            let row = bench_solve(&s, panels, if quick { (1, 1) } else { (3, 1) });
            eprintln!(
                "# scaling x{scale} ({} states): dense {:.1} us, sparse {:.1} us, {:.1}x",
                row.states,
                row.dense_secs * 1e6,
                row.sparse_secs * 1e6,
                row.dense_secs / row.sparse_secs,
            );
            (scale, row)
        })
        .collect();

    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|(scale, r)| {
            format!(
                "{{\"scale\": {scale}, \"states\": {}, \"dense_secs\": {}, \"sparse_secs\": {}, \
                 \"speedup\": {}, \"max_abs_diff\": {}}}",
                r.states,
                fmt_f64(r.dense_secs),
                fmt_f64(r.sparse_secs),
                fmt_f64(r.dense_secs / r.sparse_secs),
                fmt_f64(r.diff),
            )
        })
        .collect();
    emit(&format!(
        "{{\n  \"experiment\": \"pk_kernel\",\n  \"quick\": {quick},\n  \"panels\": {panels},\n  \
         \"reference\": {{\"states\": {}, \"dense_per_panel_secs\": {}, \
         \"sparse_shared_secs\": {}, \"speedup\": {}, \"max_abs_diff\": {}}},\n  \
         \"phi_batch\": {{\"horizons\": {}, \"per_phi_secs\": {}, \"batched_secs\": {}, \
         \"speedup\": {}, \"bit_identical\": {batch_identical}}},\n  \
         \"parallel_sweep\": {{\"rows\": {}, \"workers\": {}, \"serial_secs\": {}, \
         \"parallel_secs\": {}, \"speedup\": {}, \"bit_identical\": {sweep_identical}}},\n  \
         \"scaling\": [{}]\n}}",
        reference.states,
        fmt_f64(reference.dense_secs),
        fmt_f64(reference.sparse_secs),
        fmt_f64(reference.dense_secs / reference.sparse_secs),
        fmt_f64(reference.diff),
        phis.len(),
        fmt_f64(per_phi_secs),
        fmt_f64(batch_secs),
        fmt_f64(per_phi_secs / batch_secs),
        grid.len(),
        exec.effective_workers(),
        fmt_f64(serial_secs),
        fmt_f64(parallel_secs),
        fmt_f64(serial_secs / parallel_secs),
        scaling_json.join(", "),
    ));

    let agreement_violated = reference.diff > 1e-12 || scaling.iter().any(|(_, r)| r.diff > 1e-12);
    if agreement_violated || !batch_identical || !sweep_identical {
        eprintln!("# KERNEL AGREEMENT VIOLATED: sparse/dense or batch/serial answers diverged");
        std::process::exit(1);
    }
}
