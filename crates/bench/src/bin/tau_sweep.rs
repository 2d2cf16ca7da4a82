//! Experiment E6 — the in-text τ sweep: "how the OAQ scheme achieves
//! better QoS by taking full advantage of the time allowance".

use oaq_analytic::compose::Scheme;
use oaq_analytic::sweep::tau_sweep;
use oaq_bench::args::CliSpec;
use oaq_bench::{banner, tsv_header, tsv_row};

fn main() {
    // No options: parsing only answers --help and rejects unknown flags.
    let _ = CliSpec::new("tau_sweep").parse();
    let taus: Vec<f64> = (1..=16).map(|i| 0.5 * f64::from(i)).collect();
    let lambda = 5e-5;
    banner("QoS vs deadline tau (lambda=5e-5, mu=0.2, eta=10)");
    tsv_header(&["tau", "OAQ:y>=2", "OAQ:y=3", "BAQ:y>=2", "BAQ:y=3"]);
    let oaq = tau_sweep(Scheme::Oaq, lambda, &taus).expect("solves");
    let baq = tau_sweep(Scheme::Baq, lambda, &taus).expect("solves");
    for i in 0..taus.len() {
        tsv_row(
            taus[i],
            &[oaq[i].p_ge_2, oaq[i].p_ge_3, baq[i].p_ge_2, baq[i].p_ge_3],
        );
    }
    println!("\nOAQ's curves rise steadily with tau (more allowance = wider");
    println!("window of opportunity); BAQ saturates almost immediately.");
}
