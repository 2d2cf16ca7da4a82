//! # oaq-bench — experiment harness for the OAQ reproduction
//!
//! One binary per table/figure of the paper (see `DESIGN.md`'s experiment
//! index and `EXPERIMENTS.md` for recorded results):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — QoS levels vs geometric properties |
//! | `fig7` | Figure 7 — P(K = k) vs λ |
//! | `fig8` | Figure 8 — P(Y = 3) vs λ, OAQ vs BAQ, µ ∈ {0.2, 0.5} |
//! | `fig9` | Figure 9 — P(Y ≥ y) vs λ |
//! | `text_numbers` | §4.3 in-text values |
//! | `tau_sweep` | §4.3 QoS vs deadline τ |
//! | `mu_sweep` | §4.3 QoS vs mean signal duration |
//! | `geometry_report` | Figures 2/5/6 — geometric regimes |
//! | `validate_protocol` | E9 — protocol simulation vs analytic model |
//! | `geoloc_accuracy` | E10 — sequential-localization accuracy |
//! | `ablation` | E11 — spare policies, Erlang order, messaging variants |
//! | `membership` | E12 (extension) — membership service + assisted recruitment |
//! | `latency` | E13 (analysis) — alert latency vs quality trade-off |
//! | `chain_depth` | E14 (analysis) — coordination-chain-length distribution |
//! | `robustness` | E15 (analysis) — fault-injection campaign: bursty/transient faults × retry budgets, JSON degradation curves |
//! | `qos_server` | E16 (engine) — serving-engine replay of a seeded Zipf query workload: throughput vs naive recompute, latency percentiles, cache/admission counters, JSON |
//! | `pk_kernel` | E17 (perf) — exact interval-weight P(k) kernel vs the 256-panel Simpson it replaced, JSON |
//! | `mc_replication` | E18 (perf) — deterministic parallel replication engine: traced vs fast-path campaign cells, worker fan-out with in-bench bit-identity assertion, JSON |
//! | `geoloc_kernel` | E19 (perf) — zero-allocation WLS kernel vs the heap/dynamic-dispatch baseline, analytic-vs-FD Jacobians, incremental sequential mode, JSON |
//! | `engine_faults` | E20 (robustness) — serving engine under injected panics/stalls and a tenant flood, exactly-one-outcome and bit-identity invariants, JSON |
//! | `serve_bench` | E21 (serving) — networked frontend over the wire: worker×shard scaling matrix with per-shard contention counters, open-loop (coordinated-omission-free) latency quantiles, snapshot warm-start, JSON |
//! | `geoloc_batch` | E22 (perf) — structure-of-arrays batched WLS vs the looped solver, executor scheduling overhead, JSON |
//! | `mega_pk` | E23 (perf) — mega-constellation `P(k)`: steady-state detection, product form vs joint chain, QoS over the Walker presets, JSON |
//! | `mc_scale` | E24 (perf) — zero-allocation episode engine: serial throughput gate, bit-identity across scheduling configs, Starlink-scale campaign, JSON |
//!
//! Repeated timings go through [`measure::per_call`], and every
//! JSON-printing binary prints through [`json::emit`], which refuses a
//! document that is not strict JSON with a string `experiment`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use oaq_san::plane::{CapacitySolve, PlaneModelConfig, SparePolicy};

pub mod args;
pub mod campaign;
pub mod json;
pub mod measure;
pub mod recruit;
pub mod serve_report;

/// Prints a TSV header row.
pub fn tsv_header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Prints one TSV data row of floats with 6 significant digits.
pub fn tsv_row(x: f64, values: &[f64]) {
    let mut s = format!("{x:.6e}");
    for v in values {
        s.push('\t');
        s.push_str(&format!("{v:.6}"));
    }
    println!("{s}");
}

/// A section banner for experiment output.
pub fn banner(title: &str) {
    println!("\n# {title}");
}

/// The reference plane's capacity solve scaled to `scale`× its complement
/// (14 operational + 2 spares per unit, pinned at the threshold). η stays
/// fixed, so the within-cycle death chain grows with the scale.
///
/// # Panics
///
/// Panics if the chain exceeds 100 000 states.
#[must_use]
pub fn scaled_solve(scale: u32, lambda: f64, phi: f64, eta: u32) -> CapacitySolve {
    PlaneModelConfig {
        capacity: 14 * scale,
        spares: 2 * scale,
        lambda,
        phi,
        eta,
        policy: SparePolicy::PinAtThreshold,
    }
    .capacity_solve(100_000)
    .expect("scaled plane explores")
}

/// The largest element-wise absolute difference of two equal-length
/// vectors.
#[must_use]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    #[test]
    fn helpers_do_not_panic() {
        super::tsv_header(&["a", "b"]);
        super::tsv_row(1e-5, &[0.5, 0.25]);
        super::banner("smoke");
    }
}
