//! Experiment E4 — paper Figure 9: the QoS measure P(Y ≥ y), y ∈ {1,2,3},
//! as a function of λ (τ = 5, µ = 0.2, η = 10, φ = 30000 h).

use oaq_analytic::compose::Scheme;
use oaq_analytic::sweep::{figure9, paper_lambda_grid};
use oaq_bench::args::CliSpec;
use oaq_bench::{banner, tsv_header, tsv_row};

fn main() {
    // No options: parsing only answers --help and rejects unknown flags.
    let _ = CliSpec::new("fig9").parse();
    let grid = paper_lambda_grid();
    banner("Figure 9: P(Y>=y) vs lambda (tau=5, mu=0.2, eta=10, phi=30000h)");
    tsv_header(&[
        "lambda", "OAQ:y=1", "OAQ:y=2", "OAQ:y=3", "BAQ:y=1", "BAQ:y=2", "BAQ:y=3",
    ]);
    let oaq = figure9(Scheme::Oaq, &grid).expect("solves");
    let baq = figure9(Scheme::Baq, &grid).expect("solves");
    for i in 0..grid.len() {
        tsv_row(
            grid[i],
            &[
                oaq[i].p_ge_1,
                oaq[i].p_ge_2,
                oaq[i].p_ge_3,
                baq[i].p_ge_1,
                baq[i].p_ge_2,
                baq[i].p_ge_3,
            ],
        );
    }
    println!("\nPaper anchors: OAQ P(Y>=2) = 0.75 at 1e-5 and 0.41 at 1e-4;");
    println!("BAQ P(Y>=2) = 0.33 and 0.04; P(Y>=1) = 1 for both throughout.");
    println!("(eta is unstated for Figure 9; eta = 10 is the only value");
    println!("consistent with those anchors -- see EXPERIMENTS.md.)");
}
