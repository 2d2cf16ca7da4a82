//! Experiment E15 — the fault-injection campaign: dependability of the OAQ
//! protocol under bursty/transient crosslink faults, node failures, and
//! reliable-delivery retry budgets.
//!
//! Sweeps loss probability × burst length × node-failure rate × retry
//! budget and emits one JSON document on stdout: per-cell tallies,
//! degradation curves ordered by fault intensity, and a seed-reproducible
//! trace dump for every violation of the by-τ minimal-QoS guarantee
//! (expected: none). Progress goes to stderr so stdout stays
//! machine-readable.
//!
//! Usage: `robustness [--quick] [--seed N] [--episodes N] [--workers N]`
//! `--quick` shrinks the grid and the per-cell episode count for CI.
//! `--workers` fans the whole grid across a deterministic replication
//! pool (0 = one per core); the output is bit-identical for any count.

use oaq_bench::args::CliSpec;
use oaq_bench::campaign::{campaign_json, run_grid_fanout, CellSpec, LossAxis};
use oaq_bench::json::emit;

fn main() {
    let cli = CliSpec::new("robustness")
        .switch("--quick", "shrink the grid and episode count for CI")
        .option("--seed", "N", "base RNG seed (default 1515)")
        .option("--episodes", "N", "episodes per cell")
        .option(
            "--workers",
            "N",
            "worker threads, 0 = all cores (default 1)",
        )
        .option(
            "--chunk",
            "N",
            "episodes per work chunk (default: adaptive)",
        )
        .parse();
    let quick = cli.has("--quick");
    let base_seed = cli.get_u64("--seed", 1515);
    let episodes = cli.get_u64("--episodes", if quick { 100 } else { 1500 });
    let exec = cli.executor(1);

    let losses: Vec<LossAxis> = if quick {
        vec![
            LossAxis::Iid { p: 0.0 },
            LossAxis::Iid { p: 0.2 },
            LossAxis::Bursty {
                marginal: 0.2,
                burst_len: 5.0,
            },
        ]
    } else {
        vec![
            LossAxis::Iid { p: 0.0 },
            LossAxis::Iid { p: 0.05 },
            LossAxis::Iid { p: 0.2 },
            LossAxis::Iid { p: 0.4 },
            LossAxis::Bursty {
                marginal: 0.2,
                burst_len: 3.0,
            },
            LossAxis::Bursty {
                marginal: 0.2,
                burst_len: 8.0,
            },
            LossAxis::Bursty {
                marginal: 0.4,
                burst_len: 5.0,
            },
        ]
    };
    let failure_rates: &[f64] = if quick { &[0.0, 0.2] } else { &[0.0, 0.1, 0.3] };
    let budgets: &[u32] = &[0, 1, 3];

    let total = losses.len() * failure_rates.len() * budgets.len();
    eprintln!(
        "# robustness campaign: {total} cells x {episodes} episodes (seed {base_seed}{})",
        if quick { ", quick" } else { "" }
    );

    let mut specs = Vec::with_capacity(total);
    for loss in &losses {
        for &rate in failure_rates {
            for &budget in budgets {
                specs.push(CellSpec {
                    loss: *loss,
                    node_failure_rate: rate,
                    retry_budget: budget,
                });
            }
        }
    }
    let cells = run_grid_fanout(&specs, episodes, base_seed, exec);
    for (done, out) in cells.iter().enumerate() {
        eprintln!(
            "#   [{}/{total}] {} fail={} budget={}: \
             quality {:.3}, timely {:.3}, guarantee {:.3} ({} violations)",
            done + 1,
            out.spec.loss.label(),
            out.spec.node_failure_rate,
            out.spec.retry_budget,
            out.quality_frac(),
            out.timely_frac(),
            out.guarantee_frac(),
            out.violations.len()
        );
    }

    let violations: usize = cells.iter().map(|c| c.violations.len()).sum();
    emit(&campaign_json(&cells, base_seed, episodes));
    if violations > 0 {
        eprintln!("# GUARANTEE VIOLATED in {violations} episode(s) — see the JSON trace dump");
        std::process::exit(1);
    }
    eprintln!("# guarantee held in every live-detector episode");
}
