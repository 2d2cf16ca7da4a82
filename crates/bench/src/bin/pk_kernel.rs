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
//! 2. **shape_table** — the reference plane shape's λ = 1 chain, which
//!    `CapacityParams::distribution` serves every (λ, φ) from: the cold
//!    first solve (exploration, kernel and iterate-table build included)
//!    vs a warm replay of the stored iterates. The bench also checks the
//!    replay against a fresh iterate loop over the same chain at horizons
//!    λφ from Λφ ≈ 2 to ones the steady-state detector closes early, and
//!    exits non-zero if any bit differs.
//! 3. **scaling** — a state-count axis: planes scaled up to 10× the
//!    reference (capacity 140 + 20 spares); both sides are O(K · nnz)
//!    matvecs, Simpson adds O(panels · K) scalar weight work.
//!
//! Usage: `pk_kernel [--quick] [--panels N]`

use oaq_bench::args::CliSpec;
use oaq_bench::json::{emit, fmt_f64};
use oaq_bench::{max_abs_diff, measure, scaled_solve};
use oaq_san::plane::{product_form_pk, CapacitySolve, PlaneModelConfig};

const LAMBDA: f64 = 5e-5;
const PHI: f64 = 30_000.0;
const ETA: u32 = 10;
/// Simpson panels at which the quadrature has converged onto the exact
/// integral for the reference plane (its O(h⁴) error is below 1e-12).
const CONVERGED_PANELS: usize = 32_768;
/// Exact kernel vs converged Simpson.
const CONVERGED_TOL: f64 = 2e-12;
/// Horizons λφ of the λ = 1 chain checked replay vs fresh loop: Λφ ≈ 2.1,
/// 21, 210 (the paper's λ = 5e-5 at φ = 3e5), 420 (λ = 1e-4 at φ = 3e5),
/// and one the steady-state detector closes early.
const REPLAY_HORIZONS: [f64; 5] = [0.15, 1.5, 15.0, 30.0, 1e4];

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

    // 1. Reference plane at the paper's λ.
    let solve = PlaneModelConfig::reference(LAMBDA, PHI, ETA)
        .capacity_solve(10_000)
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

    // 2. The shape table: one λ = 1 chain per plane shape, replayed.
    let (rounds, reps) = timing;
    let unit = || {
        PlaneModelConfig::reference(1.0, 1.0, ETA)
            .capacity_solve(10_000)
            .expect("unit-rate plane solves")
    };
    let horizon = LAMBDA * PHI;
    let cold_secs = measure::per_call(rounds, reps, || unit().distribution_over(horizon).unwrap());
    let warm = unit();
    let warm_secs = measure::per_call(rounds, reps, || warm.distribution_over(horizon).unwrap());
    let p0 = warm.ctmc().initial_distribution();
    let kernel = warm.ctmc().kernel().expect("kernel builds");
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let replay_identical = REPLAY_HORIZONS.iter().all(|&h| {
        let fresh = bits(kernel.time_average(&p0, h).unwrap());
        bits(warm.ctmc().time_average(h).unwrap()) == fresh
            && bits(unit().ctmc().time_average(h).unwrap()) == fresh
    });
    eprintln!(
        "# shape_table ({} states): cold {:.1} us, warm {:.1} us, {:.1}x, \
         replay identical to a fresh loop at {} horizons: {}",
        warm.num_states(),
        cold_secs * 1e6,
        warm_secs * 1e6,
        cold_secs / warm_secs,
        REPLAY_HORIZONS.len(),
        replay_identical,
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
         \"shape_table\": {{\"states\": {}, \"cold_secs\": {}, \"warm_secs\": {}, \
         \"speedup\": {}, \"horizons\": {}, \"bit_identical\": {replay_identical}}},\n  \
         \"scaling\": [{}]\n}}",
        reference.states,
        fmt_f64(reference.simpson_secs),
        fmt_f64(reference.exact_secs),
        fmt_f64(reference.simpson_secs / reference.exact_secs),
        fmt_f64(reference.diff),
        fmt_f64(converged_diff),
        warm.num_states(),
        fmt_f64(cold_secs),
        fmt_f64(warm_secs),
        fmt_f64(cold_secs / warm_secs),
        REPLAY_HORIZONS.len(),
        scaling_json.join(", "),
    ));

    if converged_diff > CONVERGED_TOL || !replay_identical {
        eprintln!("# KERNEL AGREEMENT VIOLATED: exact/Simpson or replay/fresh answers diverged");
        std::process::exit(1);
    }
}
