//! Experiment E19 — the zero-allocation geolocation kernel vs the
//! heap/dynamic-dispatch baseline, plus the incremental sequential mode.
//!
//! Reports JSON on stdout (progress on stderr), written to
//! `BENCH_geoloc.json` at the repo root / uploaded by CI:
//!
//! 1. **per_solve** — one two-pass (18-observation) WLS solve through
//!    three estimator configurations: the pre-stack-kernel baseline
//!    (heap `Matrix` normal equations, `&dyn` dispatch, finite-difference
//!    Jacobians), the same heap path with the analytic Jacobians, and the
//!    monomorphized stack-kernel fast path. The stack path must agree with
//!    the heap path *bit for bit* for the same Jacobians — the bench exits
//!    non-zero on divergence. The acceptance bar is ≥ 3× over the FD
//!    baseline.
//! 2. **jacobian** — analytic-vs-finite-difference gradient agreement for
//!    the Doppler and TOA models (max abs/rel difference over a grid of
//!    linearization points).
//! 3. **chain_growth** — sequential localization over growing chains:
//!    batch re-solves (`estimate`, O(total observations) per extension)
//!    vs the incremental information-filter mode
//!    (`estimate_incremental`, O(new observations) per extension). The
//!    incremental win must grow with the chain length.
//!
//! Usage: `geoloc_kernel [--quick] [--reps N]`

use oaq_bench::args::CliSpec;
use oaq_bench::json::{emit, fmt_f64};
use oaq_bench::measure;
use oaq_geoloc::doppler::DopplerMeasurement;
use oaq_geoloc::emitter::Emitter;
use oaq_geoloc::scenario::PassScenario;
use oaq_geoloc::sequential::SequentialLocalizer;
use oaq_geoloc::wls::{Estimate, FdJacobian, Observation, WlsSolver, FD_STEPS, STATE_DIM};
use oaq_orbit::units::Degrees;
use oaq_orbit::GroundPoint;
use oaq_sim::SimRng;

/// Timing rounds per measurement; each round runs `1/ROUNDS` of the
/// requested repetitions.
const ROUNDS: usize = 5;

/// Full bitwise agreement of two estimates (state, cost, iterations,
/// covariance).
fn bits_equal(a: &Estimate, b: &Estimate) -> bool {
    a.iterations == b.iterations
        && a.cost.to_bits() == b.cost.to_bits()
        && a.state
            .iter()
            .zip(&b.state)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && (0..STATE_DIM).all(|i| {
            (0..STATE_DIM).all(|j| a.covariance[(i, j)].to_bits() == b.covariance[(i, j)].to_bits())
        })
}

/// Max absolute and relative analytic-vs-FD Jacobian differences of `obs`
/// over a set of linearization points.
fn jacobian_diff<O: Observation>(obs: &[O], points: &[[f64; STATE_DIM]]) -> (f64, f64) {
    let mut max_abs = 0.0f64;
    let mut max_rel = 0.0f64;
    for o in obs {
        for x in points {
            let a = o.jacobian_row(x);
            let fd = o.jacobian_row_fd(x);
            for j in 0..STATE_DIM {
                let d = (a[j] - fd[j]).abs();
                max_abs = max_abs.max(d);
                max_rel = max_rel.max(d / a[j].abs().max(fd[j].abs()).max(1e-30));
            }
        }
    }
    (max_abs, max_rel)
}

fn main() {
    let cli = CliSpec::new("geoloc_kernel")
        .switch("--quick", "fewer reps and a shorter chain axis (CI size)")
        .option("--reps", "N", "per-solve timing repetitions (default 2000)")
        .parse();
    let quick = cli.has("--quick");
    let reps = (cli.get_usize("--reps", if quick { 300 } else { 2000 }) / ROUNDS).max(1);

    let emitter = Emitter::new(
        GroundPoint::from_degrees(Degrees(30.0), Degrees(10.0)),
        400.0e6,
    );
    let scenario = PassScenario::reference(&emitter);
    let solver = WlsSolver::new();
    let x0 = emitter.initial_guess_nearby(1.0);

    // 1. Per-solve: a fixed two-pass problem at realistic track density
    // (33 samples per pass), solved by every configuration.
    let dense = scenario.clone().with_samples_per_pass(33);
    let mut rng = SimRng::seed_from(19);
    let mut obs: Vec<DopplerMeasurement> = dense.synthesize_pass(0, &mut rng);
    obs.extend(dense.synthesize_pass(1, &mut rng));
    let fd_obs: Vec<FdJacobian<DopplerMeasurement>> = obs.iter().map(|m| FdJacobian(*m)).collect();
    let fd_refs: Vec<&dyn Observation> = fd_obs.iter().map(|o| o as &dyn Observation).collect();
    let an_refs: Vec<&dyn Observation> = obs.iter().map(|o| o as &dyn Observation).collect();

    let heap_fd = solver.solve_heap(&fd_refs, x0).expect("baseline solves");
    let heap_an = solver
        .solve_heap(&an_refs, x0)
        .expect("heap analytic solves");
    let stack = solver.solve_obs(&obs, x0).expect("stack fast path solves");
    let bit_identical = bits_equal(&stack, &heap_an);
    // The FD baseline converges to the same emitter (not bit-identical —
    // different Jacobians — but the answers must coincide physically).
    let baseline_agreement_km = stack
        .position()
        .great_circle_distance(&heap_fd.position())
        .value();

    let heap_fd_secs = measure::per_call(ROUNDS, reps, || solver.solve_heap(&fd_refs, x0).unwrap());
    let heap_an_secs = measure::per_call(ROUNDS, reps, || solver.solve_heap(&an_refs, x0).unwrap());
    let stack_secs = measure::per_call(ROUNDS, reps, || solver.solve_obs(&obs, x0).unwrap());
    let speedup_fd = heap_fd_secs / stack_secs;
    let speedup_an = heap_an_secs / stack_secs;
    let baseline_agreement_json = fmt_f64(baseline_agreement_km);
    eprintln!(
        "# per_solve ({} obs): heap-dyn-FD {:.1} us, heap-dyn-analytic {:.1} us, \
         stack-generic {:.1} us, {:.2}x vs baseline, bit_identical={}",
        obs.len(),
        heap_fd_secs * 1e6,
        heap_an_secs * 1e6,
        stack_secs * 1e6,
        speedup_fd,
        bit_identical,
    );

    // 2. Analytic-vs-FD Jacobian agreement for both measurement models.
    let points: Vec<[f64; STATE_DIM]> = [0.1, 0.4, 0.8, 1.2]
        .iter()
        .map(|&off| emitter.initial_guess_nearby(off))
        .collect();
    let toa_obs = scenario.synthesize_toa_pass(1, 0.5, &mut rng);
    let (dop_abs, dop_rel) = jacobian_diff(&obs, &points);
    let (toa_abs, toa_rel) = jacobian_diff(&toa_obs, &points);
    eprintln!(
        "# jacobian: doppler max|diff| {dop_abs:.2e} (rel {dop_rel:.2e}), \
         toa max|diff| {toa_abs:.2e} (rel {toa_rel:.2e})"
    );

    // 3. Chain growth: batch re-solve vs incremental information filter.
    // Pass indices cycle so every pass keeps workable geometry.
    let lengths: &[usize] = if quick { &[2, 4, 8] } else { &[2, 4, 8, 16] };
    let chain_reps = if quick { 4 } else { 20 };
    let mut chain_rows = Vec::new();
    for &n in lengths {
        let mut rng = SimRng::seed_from(7);
        let passes: Vec<Vec<DopplerMeasurement>> = (0..n)
            .map(|pos| scenario.synthesize_pass(pos % 3, &mut rng))
            .collect();
        let run_batch = || {
            let mut loc = SequentialLocalizer::new(emitter.initial_guess_nearby(1.0));
            let mut last = None;
            for p in &passes {
                loc.add_pass(p.clone());
                last = Some(loc.estimate().expect("batch solves"));
            }
            last.expect("chain is non-empty")
        };
        let run_incremental = || {
            let mut loc = SequentialLocalizer::new(emitter.initial_guess_nearby(1.0));
            let mut last = None;
            for p in &passes {
                loc.add_pass(p.clone());
                last = Some(loc.estimate_incremental().expect("incremental solves"));
            }
            last.expect("chain is non-empty")
        };
        let batch_final = run_batch();
        let inc_final = run_incremental();
        let agreement_km = batch_final
            .position()
            .great_circle_distance(&inc_final.position())
            .value();
        let batch_secs = measure::per_call(ROUNDS, chain_reps, run_batch);
        let inc_secs = measure::per_call(ROUNDS, chain_reps, run_incremental);
        eprintln!(
            "# chain_growth n={n} ({} obs): batch {:.1} us, incremental {:.1} us, {:.2}x, \
             agreement {agreement_km:.2e} km",
            n * passes[0].len(),
            batch_secs * 1e6,
            inc_secs * 1e6,
            batch_secs / inc_secs,
        );
        chain_rows.push(format!(
            "{{\"passes\": {n}, \"observations\": {}, \"batch_secs\": {}, \
             \"incremental_secs\": {}, \"speedup\": {}, \"final_agreement_km\": {}}}",
            n * passes[0].len(),
            fmt_f64(batch_secs),
            fmt_f64(inc_secs),
            fmt_f64(batch_secs / inc_secs),
            fmt_f64(agreement_km),
        ));
    }

    emit(&format!(
        "{{\n  \"experiment\": \"geoloc_kernel\",\n  \"quick\": {quick},\n  \
         \"per_solve\": {{\"observations\": {}, \"heap_dyn_fd_secs\": {}, \
         \"heap_dyn_analytic_secs\": {}, \"stack_generic_secs\": {}, \
         \"speedup_vs_fd_baseline\": {}, \"speedup_vs_heap_analytic\": {}, \
         \"baseline_agreement_km\": {baseline_agreement_json}, \
         \"bit_identical\": {bit_identical}}},\n  \
         \"jacobian\": {{\"fd_steps\": [{}, {}, {}], \
         \"doppler_max_abs_diff\": {}, \"doppler_max_rel_diff\": {}, \
         \"toa_max_abs_diff\": {}, \"toa_max_rel_diff\": {}}},\n  \
         \"chain_growth\": [{}]\n}}",
        obs.len(),
        fmt_f64(heap_fd_secs),
        fmt_f64(heap_an_secs),
        fmt_f64(stack_secs),
        fmt_f64(speedup_fd),
        fmt_f64(speedup_an),
        fmt_f64(FD_STEPS[0]),
        fmt_f64(FD_STEPS[1]),
        fmt_f64(FD_STEPS[2]),
        fmt_f64(dop_abs),
        fmt_f64(dop_rel),
        fmt_f64(toa_abs),
        fmt_f64(toa_rel),
        chain_rows.join(", "),
    ));

    if !bit_identical {
        eprintln!("# KERNEL AGREEMENT VIOLATED: stack fast path diverged from the heap reference");
        std::process::exit(1);
    }
}
