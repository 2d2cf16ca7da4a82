//! Experiment E23 — mega-constellation `P(k)` at scale: the
//! steady-state-detecting uniformization kernel, the per-plane
//! product-form decomposition, and QoS-vs-design curves over the Walker
//! presets.
//!
//! Reports JSON on stdout (progress on stderr), written to
//! `BENCH_mega.json` at the repo root / uploaded by CI:
//!
//! 1. **scaling** — per-solve `distribution_over` time on planes scaled
//!    up to 64× the reference complement (≥ 1000 within-cycle states),
//!    showing the sparse kernel stays affordable where the paper's
//!    16-state chain was.
//! 2. **steady_state** — `time_average_many` (adaptive steady-state
//!    detection) vs `time_average_many_full` (the PR 3 full-iteration
//!    kernel) on the 1015-state plane across a φ axis. The bench asserts
//!    agreement ≤ 1e-12 at the paper's φ = 30000 (≤ 5e-12 on longer
//!    horizons, where the *reference* path's own summation rounding grows
//!    like Λ·φ·ε past 1e-12) and speedup ≥ 2× at the longest φ, exiting
//!    non-zero on violation.
//! 3. **product_vs_joint** — the per-plane product-form assembly of the
//!    constellation capacity distribution vs the exact joint chain (2 and
//!    3 planes, 49 / 343 states) under the same quadrature, asserted to
//!    ≤ 1e-12.
//! 4. **qos_designs** — `P(Y ≥ 2)` under OAQ / BAQ over the λ grid for
//!    all four Walker presets (each preset's θ, Tc, plane capacity and
//!    spares routed through the typed `CapacityParams::new` /
//!    `EvaluationConfig::for_design` constructors), plus each preset's
//!    constellation-level capacity distribution by product form.
//!
//! `--panels` sets the Simpson panels of the product-form rows (3 and 4);
//! the time averages of rows 1 and 2 are exact and take none.
//!
//! Usage: `mega_pk [--quick] [--panels N]`

use std::time::Instant;

use oaq_analytic::capacity::CapacityParams;
use oaq_analytic::compose::{EvaluationConfig, Scheme};
use oaq_analytic::qos::QosParams;
use oaq_analytic::sweep::paper_lambda_grid;
use oaq_bench::args::CliSpec;
use oaq_bench::json::{emit, fmt_f64};
use oaq_bench::{max_abs_diff, measure, scaled_solve};
use oaq_orbit::constellation::Preset;
use oaq_orbit::coverage::design_geometry;
use oaq_san::plane::{product_form_pk, CapacitySolve, PlaneModelConfig, SparePolicy};

const LAMBDA: f64 = 5e-5;
const PHI: f64 = 30_000.0;
const ETA: u32 = 10;

/// Agreement bar for steady-state detection at the paper's φ.
const DETECT_TOL_PAPER: f64 = 1e-12;
/// Relaxed bar on long horizons: past Λ·φ ≈ 1e4 the full-iteration
/// reference accumulates ~Λ·φ·ε of its own summation rounding, so the
/// diff there measures reference noise, not detection error.
const DETECT_TOL_LONG: f64 = 5e-12;
/// Required detection speedup on the longest horizon.
const DETECT_SPEEDUP_BAR: f64 = 2.0;
/// Product-form vs joint-chain agreement bar.
const PRODUCT_TOL: f64 = 1e-12;

/// The paper's capacity model transplanted onto a preset plane: the
/// threshold sits the reference's `capacity − η = 4` below the complement.
fn preset_eta(capacity: u32) -> u32 {
    capacity - 4
}

fn main() {
    let cli = CliSpec::new("mega_pk")
        .switch("--quick", "fewer reps and a shorter lambda grid (CI size)")
        .option("--panels", "N", "product-form Simpson panels (default 64)")
        .parse();
    let quick = cli.has("--quick");
    let panels = cli.get_usize("--panels", 64);
    let rounds = if quick { 1 } else { 3 };
    let mut violations: Vec<String> = Vec::new();

    // 1. Scaling: per-solve P(k) cost up to a ≥ 1000-state plane.
    let scales: &[u32] = if quick {
        &[8, 32, 64]
    } else {
        &[8, 16, 32, 64, 96]
    };
    let scaling_json: Vec<String> = scales
        .iter()
        .map(|&scale| {
            let solve = scaled_solve(scale, LAMBDA, PHI, ETA);
            let secs = measure::per_call(rounds, 1, || solve.distribution_over(PHI).unwrap());
            eprintln!(
                "# scaling x{scale} ({} states): {:.2} ms per solve",
                solve.num_states(),
                secs * 1e3,
            );
            format!(
                "{{\"scale\": {scale}, \"states\": {}, \"solve_secs\": {}}}",
                solve.num_states(),
                fmt_f64(secs),
            )
        })
        .collect();

    // 2. Steady-state detection vs the full-iteration kernel on the
    // 1015-state plane over a φ axis reaching 10× the paper's horizon.
    let big = scaled_solve(64, LAMBDA, PHI, ETA);
    let kernel = big.ctmc().kernel().expect("kernel builds");
    let p0 = big.ctmc().initial_distribution();
    let phis = [PHI, 100_000.0, 300_000.0];
    let longest = phis[phis.len() - 1];
    let steady_json: Vec<String> = phis
        .iter()
        .map(|&phi| {
            let detected = kernel.time_average_many(&p0, &[phi]).unwrap();
            let full = kernel.time_average_many_full(&p0, &[phi]).unwrap();
            let diff = max_abs_diff(&detected[0], &full[0]);
            let detect_secs =
                measure::per_call(rounds, 1, || kernel.time_average_many(&p0, &[phi]).unwrap());
            let full_secs = measure::per_call(rounds, 1, || {
                kernel.time_average_many_full(&p0, &[phi]).unwrap()
            });
            let speedup = full_secs / detect_secs;
            eprintln!(
                "# steady_state phi={phi}: full {:.2} ms, detected {:.2} ms, {:.2}x, \
                 max|diff| {:.2e}",
                full_secs * 1e3,
                detect_secs * 1e3,
                speedup,
                diff,
            );
            let tol = if phi <= PHI {
                DETECT_TOL_PAPER
            } else {
                DETECT_TOL_LONG
            };
            if diff > tol {
                violations.push(format!(
                    "steady-state detection diverged at phi={phi}: {diff:e} > {tol:e}"
                ));
            }
            if phi == longest && speedup < DETECT_SPEEDUP_BAR {
                violations.push(format!(
                    "steady-state speedup {speedup:.2}x below {DETECT_SPEEDUP_BAR}x at phi={phi}"
                ));
            }
            format!(
                "{{\"phi\": {}, \"full_secs\": {}, \"detected_secs\": {}, \"speedup\": {}, \
                 \"max_abs_diff\": {}, \"tolerance\": {}}}",
                fmt_f64(phi),
                fmt_f64(full_secs),
                fmt_f64(detect_secs),
                fmt_f64(speedup),
                fmt_f64(diff),
                fmt_f64(tol),
            )
        })
        .collect();

    // 3. Product form vs the exact joint chain at paper scale.
    let cfg = PlaneModelConfig {
        capacity: 14,
        spares: 2,
        lambda: LAMBDA,
        phi: PHI,
        eta: ETA,
        policy: SparePolicy::PinAtThreshold,
    };
    let plane = cfg.capacity_solve(10_000).expect("reference plane solves");
    let product_json: Vec<String> = [2usize, 3]
        .iter()
        .map(|&q| {
            let joint = cfg
                .joint_capacity_solve(q, 100_000)
                .expect("joint chain explores");
            let refs: Vec<&CapacitySolve> = vec![&plane; q];
            let product = product_form_pk(&refs, PHI, panels).unwrap();
            let exact = product_form_pk(&[&joint], PHI, panels).unwrap();
            let diff = max_abs_diff(&product, &exact);
            let product_secs =
                measure::per_call(rounds, 1, || product_form_pk(&refs, PHI, panels).unwrap());
            let joint_secs = measure::per_call(rounds, 1, || {
                product_form_pk(&[&joint], PHI, panels).unwrap()
            });
            eprintln!(
                "# product_vs_joint q={q} ({} joint states): joint {:.2} ms, product {:.2} ms, \
                 max|diff| {:.2e}",
                joint.num_states(),
                joint_secs * 1e3,
                product_secs * 1e3,
                diff,
            );
            if diff > PRODUCT_TOL {
                violations.push(format!(
                    "product form diverged from joint chain at q={q}: {diff:e} > {PRODUCT_TOL:e}"
                ));
            }
            format!(
                "{{\"planes\": {q}, \"joint_states\": {}, \"joint_secs\": {}, \
                 \"product_secs\": {}, \"max_abs_diff\": {}}}",
                joint.num_states(),
                fmt_f64(joint_secs),
                fmt_f64(product_secs),
                fmt_f64(diff),
            )
        })
        .collect();

    // 4. QoS-vs-design curves over the Walker presets (E23).
    let grid: Vec<f64> = if quick {
        vec![1e-5, 5e-5, 1e-4]
    } else {
        paper_lambda_grid()
    };
    let design_json: Vec<String> = Preset::all()
        .iter()
        .map(|&preset| {
            let wc = preset.config();
            let c = preset.build();
            let geom = &design_geometry(&c)[0];
            let capacity = wc.satellites_per_plane as u32;
            let eta = preset_eta(capacity);
            let curve: Vec<String> = grid
                .iter()
                .map(|&lambda| {
                    let params =
                        CapacityParams::new(capacity, wc.spares_per_plane as u32, lambda, PHI, eta)
                            .expect("preset capacity params validate");
                    let eval = EvaluationConfig::for_design(
                        wc.period.value(),
                        wc.coverage_time.value(),
                        QosParams::paper_defaults(0.2),
                        params,
                    )
                    .expect("preset design is inside the geometric domain");
                    let oaq = eval.qos_ccdf(Scheme::Oaq).unwrap().p_at_least(2);
                    let baq = eval.qos_ccdf(Scheme::Baq).unwrap().p_at_least(2);
                    format!(
                        "{{\"lambda\": {}, \"oaq_p_ge_2\": {}, \"baq_p_ge_2\": {}}}",
                        fmt_f64(lambda),
                        fmt_f64(oaq),
                        fmt_f64(baq),
                    )
                })
                .collect();
            // Constellation-level capacity distribution by product form
            // over all homogeneous planes of the preset.
            let plane_solve = PlaneModelConfig {
                capacity,
                spares: wc.spares_per_plane as u32,
                lambda: LAMBDA,
                phi: PHI,
                eta,
                policy: SparePolicy::PinAtThreshold,
            }
            .capacity_solve(10_000)
            .expect("preset plane solves");
            let refs: Vec<&CapacitySolve> = vec![&plane_solve; wc.planes];
            let t0 = Instant::now();
            let pk = product_form_pk(&refs, PHI, panels).expect("product form assembles");
            let pk_secs = t0.elapsed().as_secs_f64();
            let mean: f64 = pk.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
            eprintln!(
                "# qos_designs {} ({} planes x {}): mean capacity {:.2}/{}, product form {:.2} ms",
                preset.name(),
                wc.planes,
                capacity,
                mean,
                wc.planes * wc.satellites_per_plane,
                pk_secs * 1e3,
            );
            format!(
                "{{\"preset\": \"{}\", \"planes\": {}, \"satellites_per_plane\": {capacity}, \
                 \"theta\": {}, \"tc\": {}, \"eta\": {eta}, \"overlap_fraction\": {}, \
                 \"mean_total_capacity\": {}, \"design_total\": {}, \
                 \"product_form_secs\": {}, \"curve\": [{}]}}",
                preset.name(),
                wc.planes,
                fmt_f64(wc.period.value()),
                fmt_f64(wc.coverage_time.value()),
                fmt_f64(geom.overlap_fraction),
                fmt_f64(mean),
                wc.planes * wc.satellites_per_plane,
                fmt_f64(pk_secs),
                curve.join(", "),
            )
        })
        .collect();

    emit(&format!(
        "{{\n  \"experiment\": \"mega_pk\",\n  \"quick\": {quick},\n  \"panels\": {panels},\n  \
         \"scaling\": [{}],\n  \
         \"steady_state\": {{\"states\": {}, \"rows\": [{}]}},\n  \
         \"product_vs_joint\": [{}],\n  \
         \"qos_designs\": [{}]\n}}",
        scaling_json.join(", "),
        big.num_states(),
        steady_json.join(", "),
        product_json.join(", "),
        design_json.join(", "),
    ));

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("# ACCEPTANCE VIOLATED: {v}");
        }
        std::process::exit(1);
    }
}
