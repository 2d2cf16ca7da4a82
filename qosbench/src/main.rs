//! The repository's end-to-end benchmark.
//!
//! ```text
//! qosbench --workload <serve_hot|query_cold|campaign> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop generated from `--seed` by this
//! package alone, verifies every answer, and prints as its last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones, read from spans the
//! benchmark records around its own calls into each layer and written to
//! `.bench_trace/` when the run ends. Timed phases are cut into windows
//! ranked by the CPU time the host stole (see [`window`]).

mod alloc;
mod campaign;
mod engine_stats;
mod query_cold;
mod rng;
mod serve_hot;
mod stats;
mod trace;
mod window;

use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The per-layer metrics a traced run reports, with their units. A layer
/// the workload bypasses reads zero.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.round_trip_us", "us"),
    ("serve.stall_frac", "ratio"),
    ("serve.window_ms", "ms"),
    ("serve.codec_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.allocs_per_query", "count"),
    ("serve.boot_ms", "ms"),
    ("engine.hit_us", "us"),
    ("engine.warm_ms", "ms"),
    ("engine.miss_overhead_us", "us"),
    ("engine.queue_wait_p50_us", "us"),
    ("engine.result_hit_ratio", "ratio"),
    ("engine.pk_hit_ratio", "ratio"),
    ("engine.contended", "count"),
    ("engine.allocs_per_miss", "count"),
    ("san.pk_solve_us", "us"),
    ("san.pk_solve_long_phi_us", "us"),
    ("analytic.compose_us", "us"),
    ("geoloc.track_us", "us"),
    ("core.synthesize_us", "us"),
    ("core.paper_episode_us", "us"),
    ("core.starlink_episode_us", "us"),
    ("net.messages_per_episode", "count"),
    ("core.allocs_per_episode", "count"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.call_overhead_us", "us"),
    ("orbit.geometry_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// How one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the metric tables.
    pub metrics: Vec<(&'static str, f64)>,
    /// One-line notes printed before the result (sample counts, classes).
    pub notes: Vec<String>,
    /// Spans of a traced run, written out when it ends.
    pub spans: Vec<trace::Span>,
}

/// How often a workload repeats its set-up: `blocks` blocks of
/// `per_block` set-ups each, back to back.
#[derive(Debug, Clone, Copy)]
pub struct Repeats {
    pub blocks: usize,
    pub per_block: usize,
}

/// Runs `set_up` as often as `repeats` says and keeps the last result for
/// the run; `tear_down` takes each earlier one before the next set-up
/// starts. Returns the kept result and, per block, the mean seconds of its
/// set-ups; `setup_s` is the median of those means.
///
/// The means are over blocks of about half a second because one set-up is
/// too short to average out the host. On a shared 2-vCPU virtual machine
/// the same sub-millisecond set-up ran in stretches of 50–300 ms at about
/// 64 µs and others at about 110 µs, whatever vCPU it was on and whatever
/// the other vCPU did, so the median of single set-ups jumped between the
/// two from run to run. A block's mean moves with the share of slow
/// stretches instead, and eight blocks span about four seconds of them.
pub fn set_up_repeatedly<T, E>(
    repeats: Repeats,
    mut set_up: impl FnMut() -> Result<(T, f64), E>,
    mut tear_down: impl FnMut(T),
) -> Result<(T, Vec<f64>), E> {
    let mut kept = None;
    let mut means = Vec::with_capacity(repeats.blocks);
    for _ in 0..repeats.blocks {
        let mut total = 0.0;
        for _ in 0..repeats.per_block {
            if let Some(earlier) = kept.take() {
                tear_down(earlier);
            }
            let (next, secs) = set_up()?;
            kept = Some(next);
            total += secs;
        }
        means.push(total / repeats.per_block as f64);
    }
    let kept = kept.expect("at least one set-up");
    Ok((kept, means))
}

/// The block means behind `setup_s`, in microseconds.
pub fn set_up_note(block_means: &[f64]) -> String {
    let us: Vec<String> = block_means
        .iter()
        .map(|s| format!("{:.1}", s * 1e6))
        .collect();
    format!("set-up block means [{}] us", us.join(", "))
}

/// The end-to-end metrics every untraced run reports. `peak_rss_mb` is
/// read right after the timed phase; the repeated set-ups before it tear
/// each earlier set-up down, so they add at most one set-up's leftovers.
pub fn end_to_end(
    throughput_per_s: f64,
    latency: &stats::Summary,
    setup_s: f64,
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("throughput_per_s", throughput_per_s),
        ("latency_p50_ms", latency.p50),
        ("latency_p90_ms", latency.p90),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

const END_TO_END_UNITS: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Peak resident set size of this process so far, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bit-for-bit equality of two answers.
pub fn same_value(a: &oaq_engine::QosValue, b: &oaq_engine::QosValue) -> bool {
    use oaq_engine::QosValue::{Distribution, Scalar};
    match (a, b) {
        (Scalar(x), Scalar(y)) => x.to_bits() == y.to_bits(),
        (Distribution(x), Distribution(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => false,
    }
}

const USAGE: &str = "usage: qosbench --workload <serve_hot|query_cold|campaign> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("qosbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "serve_hot" => serve_hot::run(&ctx),
        "query_cold" => query_cold::run(&ctx),
        "campaign" => campaign::run(&ctx),
        other => {
            eprintln!("qosbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qosbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    if ctx.trace {
        let path =
            std::path::Path::new(".bench_trace").join(format!("{workload}-{}.tsv", ctx.seed));
        if let Err(e) = trace::write_tsv(&outcome.spans, &path) {
            eprintln!("qosbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    for note in &outcome.notes {
        println!("# {workload}: {note}");
    }
    match render(&outcome, ctx.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qosbench: {workload}: {e}");
            ExitCode::from(1)
        }
    }
}

/// The result line: every metric of the run's table, in table order.
fn render(o: &Outcome, traced: bool) -> Result<String, String> {
    let table = if traced { PER_LAYER } else { END_TO_END_UNITS };
    if let Some((name, _)) = o
        .metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        return Err(format!("metric {name} is not in the reported table"));
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = o
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |m| m.1);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    let correct = o.failed == 0 && o.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.attempted, o.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_ups_keep_the_last_and_average_each_block() {
        let repeats = Repeats {
            blocks: 3,
            per_block: 2,
        };
        let mut made = 0;
        let mut torn_down = Vec::new();
        let (kept, means) = set_up_repeatedly(
            repeats,
            || {
                made += 1;
                Ok::<_, ()>((made, f64::from(made)))
            },
            |earlier| torn_down.push(earlier),
        )
        .unwrap();
        assert_eq!(kept, 6);
        assert_eq!(torn_down, [1, 2, 3, 4, 5]);
        assert_eq!(means, [1.5, 3.5, 5.5]);
    }

    #[test]
    fn a_failed_set_up_ends_the_repeats() {
        let repeats = Repeats {
            blocks: 2,
            per_block: 2,
        };
        let mut made = 0;
        let out = set_up_repeatedly(
            repeats,
            || {
                made += 1;
                if made == 3 {
                    Err("third")
                } else {
                    Ok((made, 0.0))
                }
            },
            drop,
        );
        assert_eq!(out.unwrap_err(), "third");
        assert_eq!(made, 3);
    }
}
