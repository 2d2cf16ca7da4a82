//! Experiment E17 — the exact interval-weight P(k) kernel vs the Simpson
//! quadrature it replaced.
//!
//! Reports JSON on stdout (progress on stderr), written to
//! `BENCH_analytic.json` at the repo root / uploaded by CI:
//!
//! 1. **reference** — `distribution_over` on the 14+2 reference plane at
//!    the paper's φ: the exact kernel (one scalar weight `P(N > k)/(Λφ)`
//!    per series term) vs `panels`-panel Simpson over the per-node
//!    transients (`product_form_pk` on the one plane, which is the old
//!    folded quadrature node for node). `max_abs_diff` is that Simpson's
//!    error. The bench also checks the exact kernel against
//!    32768-panel Simpson (≤ 2e-12) and exits non-zero on violation.
//! 2. **phi_batch** — a φ-sweep served by `distributions_over` (every
//!    horizon riding one iterate sequence) vs one `distribution_over`
//!    call per φ.
//! 3. **scaling** — a state-count axis: planes scaled up to 10× the
//!    reference (capacity 140 + 20 spares); both sides are O(K · nnz)
//!    matvecs, Simpson adds O(panels · K) scalar weight work.
//!
//! Usage: `pk_kernel [--quick] [--panels N]`

use oaq_analytic::capacity::CapacityParams;
use oaq_bench::args::CliSpec;
use oaq_bench::json::{emit, fmt_f64};
use oaq_bench::{max_abs_diff, measure, scaled_solve};
use oaq_san::plane::{product_form_pk, CapacitySolve};

const LAMBDA: f64 = 5e-5;
const PHI: f64 = 30_000.0;
const ETA: u32 = 10;
/// Simpson panels at which the quadrature has converged onto the exact
/// integral for the reference plane (its O(h⁴) error is below 1e-12).
const CONVERGED_PANELS: usize = 32_768;
/// Exact kernel vs converged Simpson.
const CONVERGED_TOL: f64 = 2e-12;

struct KernelRow {
    states: usize,
    simpson_secs: f64,
    exact_secs: f64,
    diff: f64,
}

/// Times `panels`-panel Simpson vs the exact `distribution_over` on one
/// solve (`rounds` × `reps` calls each) and measures their difference.
fn bench_solve(solve: &CapacitySolve, panels: usize, (rounds, reps): (usize, usize)) -> KernelRow {
    // Difference first (the exact side builds its CSR kernel here).
    let exact = solve.distribution_over(PHI).expect("exact solves");
    let simpson = product_form_pk(&[solve], PHI, panels).expect("Simpson solves");
    let diff = max_abs_diff(&exact, &simpson);
    let simpson_secs = measure::per_call(rounds, reps, || {
        product_form_pk(&[solve], PHI, panels).unwrap()
    });
    let exact_secs = measure::per_call(rounds, reps, || solve.distribution_over(PHI).unwrap());
    KernelRow {
        states: solve.num_states(),
        simpson_secs,
        exact_secs,
        diff,
    }
}

fn main() {
    let cli = CliSpec::new("pk_kernel")
        .switch("--quick", "fewer reps and a shorter scaling axis (CI size)")
        .option("--panels", "N", "Simpson panels (default 256)")
        .parse();
    let quick = cli.has("--quick");
    let panels = cli.get_usize("--panels", 256);
    // Timing rounds × calls per round.
    let timing = if quick { (3, 1) } else { (5, 2) };

    // 1. Reference plane: the exact solve `engine::eval` serves.
    let solve = CapacityParams::reference(LAMBDA, PHI, ETA)
        .solve()
        .expect("reference plane solves");
    let reference = bench_solve(&solve, panels, timing);
    let converged_diff = max_abs_diff(
        &solve.distribution_over(PHI).unwrap(),
        &product_form_pk(&[&solve], PHI, CONVERGED_PANELS).unwrap(),
    );
    eprintln!(
        "# reference ({} states): {panels}-panel Simpson {:.1} us, exact {:.1} us, {:.1}x, \
         max|diff| {:.2e} ({CONVERGED_PANELS} panels: {:.2e})",
        reference.states,
        reference.simpson_secs * 1e6,
        reference.exact_secs * 1e6,
        reference.simpson_secs / reference.exact_secs,
        reference.diff,
        converged_diff,
    );

    // 2. A φ-sweep batched over one iterate sequence vs per-φ calls.
    let phis: Vec<f64> = (1..=16).map(|i| PHI / 16.0 * f64::from(i)).collect();
    let batched = solve.distributions_over(&phis).expect("batch solves");
    let single: Vec<Vec<f64>> = phis
        .iter()
        .map(|&phi| solve.distribution_over(phi).unwrap())
        .collect();
    let batch_identical = batched == single;
    let (rounds, reps) = timing;
    let batch_secs = measure::per_call(rounds, reps, || solve.distributions_over(&phis).unwrap());
    let per_phi_secs = measure::per_call(rounds, reps, || {
        phis.iter()
            .map(|&phi| solve.distribution_over(phi).unwrap())
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

    // 3. State-count scaling: both sides on planes up to 10× the paper's.
    let scales: &[u32] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 10] };
    let scaling: Vec<(u32, KernelRow)> = scales
        .iter()
        .map(|&scale| {
            let s = scaled_solve(scale, LAMBDA, PHI, ETA);
            let row = bench_solve(&s, panels, if quick { (1, 1) } else { (3, 1) });
            eprintln!(
                "# scaling x{scale} ({} states): Simpson {:.1} us, exact {:.1} us, {:.1}x, \
                 max|diff| {:.2e}",
                row.states,
                row.simpson_secs * 1e6,
                row.exact_secs * 1e6,
                row.simpson_secs / row.exact_secs,
                row.diff,
            );
            (scale, row)
        })
        .collect();

    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|(scale, r)| {
            format!(
                "{{\"scale\": {scale}, \"states\": {}, \"simpson_secs\": {}, \"exact_secs\": {}, \
                 \"speedup\": {}, \"max_abs_diff\": {}}}",
                r.states,
                fmt_f64(r.simpson_secs),
                fmt_f64(r.exact_secs),
                fmt_f64(r.simpson_secs / r.exact_secs),
                fmt_f64(r.diff),
            )
        })
        .collect();
    emit(&format!(
        "{{\n  \"experiment\": \"pk_kernel\",\n  \"quick\": {quick},\n  \"panels\": {panels},\n  \
         \"reference\": {{\"states\": {}, \"simpson_secs\": {}, \"exact_secs\": {}, \
         \"speedup\": {}, \"max_abs_diff\": {}, \"converged_panels\": {CONVERGED_PANELS}, \
         \"converged_max_abs_diff\": {}}},\n  \
         \"phi_batch\": {{\"horizons\": {}, \"per_phi_secs\": {}, \"batched_secs\": {}, \
         \"speedup\": {}, \"bit_identical\": {batch_identical}}},\n  \
         \"scaling\": [{}]\n}}",
        reference.states,
        fmt_f64(reference.simpson_secs),
        fmt_f64(reference.exact_secs),
        fmt_f64(reference.simpson_secs / reference.exact_secs),
        fmt_f64(reference.diff),
        fmt_f64(converged_diff),
        phis.len(),
        fmt_f64(per_phi_secs),
        fmt_f64(batch_secs),
        fmt_f64(per_phi_secs / batch_secs),
        scaling_json.join(", "),
    ));

    if converged_diff > CONVERGED_TOL || !batch_identical {
        eprintln!("# KERNEL AGREEMENT VIOLATED: exact/Simpson or batch/serial answers diverged");
        std::process::exit(1);
    }
}
