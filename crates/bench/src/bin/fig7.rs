//! Experiment E2 — paper Figure 7: steady-state plane-capacity
//! distribution P(K = k) as a function of the node-failure rate λ
//! (η = 10, φ = 30000 h).
//!
//! Both solution paths are printed: the exact regeneration-cycle integral
//! and the SAN long-run simulation with the true deterministic clock.

use oaq_analytic::sweep::{figure7, paper_lambda_grid};
use oaq_bench::args::CliSpec;
use oaq_bench::{banner, tsv_header, tsv_row};
use oaq_san::plane::PlaneModelConfig;
use oaq_san::sim::SteadyStateOptions;

fn main() {
    let cli = CliSpec::new("fig7")
        .switch("--quick", "shorten the SAN simulation horizon for CI")
        .option("--seed", "N", "simulation RNG seed (default 7)")
        .parse();
    let quick = cli.has("--quick");
    let seed = cli.get_u64("--seed", 7);
    let (warmup, horizon) = if quick {
        (30_000.0, 900_000.0)
    } else {
        (150_000.0, 9_000_000.0)
    };
    let grid = paper_lambda_grid();

    banner("Figure 7 (exact): P(K=k) vs lambda, eta=10, phi=30000h");
    tsv_header(&[
        "lambda", "P(9)", "P(10)", "P(11)", "P(12)", "P(13)", "P(14)",
    ]);
    for row in figure7(&grid, 30_000.0, 10).expect("capacity model solves") {
        tsv_row(row.lambda, &row.p_k[9..=14]);
    }

    banner("Figure 7 (SAN simulation, deterministic clock): same rows");
    tsv_header(&[
        "lambda", "P(9)", "P(10)", "P(11)", "P(12)", "P(13)", "P(14)",
    ]);
    for &lambda in &grid {
        let dist = PlaneModelConfig::reference(lambda, 30_000.0, 10)
            .build_sim()
            .capacity_distribution_sim(&SteadyStateOptions {
                warmup,
                horizon,
                seed,
            });
        tsv_row(lambda, &dist[9..=14]);
    }

    println!("\nShape check (paper): P(14) dominates at lambda = 1e-5; P(10)");
    println!("rapidly increases and dominates as lambda approaches 1e-4.");
}
