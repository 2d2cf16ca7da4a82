//! Experiment E9 — model validation: the distributed protocol simulation
//! vs the closed-form analytic model, for every capacity and both schemes.
//! (The integration test suite runs a smaller version of this; the binary
//! prints the full comparison table.)
//!
//! Parallelism comes from the deterministic replication engine inside
//! [`estimate_conditional_qos_par`]: episodes fan out on counter-based
//! substreams, so every worker count prints the identical table.
//!
//! Usage: `validate_protocol [--episodes N] [--workers N]`

use oaq_analytic::geometry::PlaneGeometry;
use oaq_analytic::qos::{conditional_qos, QosParams, Scheme as AScheme};
use oaq_bench::args::CliSpec;
use oaq_bench::banner;
use oaq_core::config::{ProtocolConfig, Scheme};
use oaq_core::experiment::{estimate_conditional_qos_par, MonteCarloOptions, QosEstimate};

fn main() {
    let cli = CliSpec::new("validate_protocol")
        .option("--episodes", "N", "episodes per cell (default 40000)")
        .option(
            "--workers",
            "N",
            "worker threads, 0 = all cores (default 0)",
        )
        .option(
            "--chunk",
            "N",
            "episodes per work chunk (default: adaptive)",
        )
        .parse();
    let episodes = cli.get_usize("--episodes", 40_000);
    let exec = cli.executor(0);

    let mut collected: Vec<QosEstimate> = Vec::new();
    for scheme in [Scheme::Oaq, Scheme::Baq] {
        for mu in [0.2, 0.5] {
            for k in 9..=14u32 {
                collected.push(estimate_conditional_qos_par(
                    &ProtocolConfig::reference(k as usize, scheme),
                    &MonteCarloOptions {
                        episodes,
                        mu,
                        seed: 31 + u64::from(k),
                    },
                    exec,
                ));
            }
        }
    }

    let mut idx = 0;
    for (ascheme, label) in [(AScheme::Oaq, "OAQ"), (AScheme::Baq, "BAQ")] {
        for mu in [0.2, 0.5] {
            banner(&format!(
                "{label}, mu = {mu}: P(Y=y|k) — analytic vs protocol ({episodes} episodes/row)"
            ));
            println!("k\ty\tanalytic\tsimulated\t|diff|");
            for k in 9..=14u32 {
                let exact = conditional_qos(
                    ascheme,
                    &PlaneGeometry::reference(k),
                    &QosParams::paper_defaults(mu),
                );
                let est = &collected[idx];
                idx += 1;
                for y in 0..=3 {
                    if exact.p(y) == 0.0 && est.p[y] == 0.0 {
                        continue;
                    }
                    println!(
                        "{}\t{}\t{:.4}\t\t{:.4}\t\t{:.4}",
                        k,
                        y,
                        exact.p(y),
                        est.p[y],
                        (exact.p(y) - est.p[y]).abs()
                    );
                }
            }
        }
    }
    println!("\nAgreement within Monte-Carlo noise + the protocol's real");
    println!("messaging overheads (delta, Tg) that the formula idealizes away.");
}
