//! Experiment E7 — the in-text signal-duration sweep: "the OAQ scheme is
//! able to responsively treat a longer signal duration as the extended
//! opportunity to achieve better geolocation quality".

use oaq_analytic::compose::Scheme;
use oaq_analytic::sweep::duration_sweep;
use oaq_bench::args::CliSpec;
use oaq_bench::{banner, tsv_header, tsv_row};

fn main() {
    // No options: parsing only answers --help and rejects unknown flags.
    let _ = CliSpec::new("mu_sweep").parse();
    let durations = [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0];
    let lambda = 5e-5;
    banner("QoS vs mean signal duration 1/mu (lambda=5e-5, tau=5, eta=10)");
    tsv_header(&["mean_dur", "OAQ:y>=2", "OAQ:y=3", "BAQ:y>=2", "BAQ:y=3"]);
    let oaq = duration_sweep(Scheme::Oaq, lambda, &durations).expect("solves");
    let baq = duration_sweep(Scheme::Baq, lambda, &durations).expect("solves");
    for i in 0..durations.len() {
        tsv_row(
            durations[i],
            &[oaq[i].p_ge_2, oaq[i].p_ge_3, baq[i].p_ge_2, baq[i].p_ge_3],
        );
    }
    println!("\nLonger signals widen OAQ's advantage; BAQ's Y=3 is flat (it");
    println!("only exploits simultaneous coverage present at detection).");
}
