//! Experiment E16 — the serving engine under a Zipf-skewed query workload.
//!
//! Replays a seeded workload three ways and reports JSON on stdout
//! (progress on stderr):
//!
//! 1. **naive** — a sequential loop calling `direct_eval` per query, the
//!    recompute-everything baseline;
//! 2. **engine_cold** — a fresh engine (empty caches), `run_all` fanned
//!    out on the executor's workers;
//! 3. **engine_warm** — the same engine replaying the same workload with
//!    hot caches.
//!
//! Alongside throughput and the engine's per-stage latency percentiles,
//! the report records `bit_identical`: every engine answer (cold and
//! warm) compared bit-for-bit against the naive baseline. The acceptance
//! bar for this experiment is `speedup_warm_vs_naive >= 5`.
//!
//! A `worker_matrix` section additionally replays the workload on fresh
//! engines pinned to 1, 2, and 4 workers (cold and warm each), with every
//! answer re-checked against the naive baseline — worker count must never
//! change an answer, only its latency.
//!
//! Usage: `qos_server [--quick] [--seed N] [--queries N] [--workers N]`

use std::time::Instant;

use oaq_bench::args::CliSpec;
use oaq_bench::json::{cache_stats_json, emit, escape, fmt_f64, results_json};
use oaq_engine::{
    direct_eval, zipf_workload, Engine, EngineConfig, EngineResult, LatencySnapshot,
    MetricsSnapshot, QosQuery, WorkloadConfig,
};

/// FNV-1a over the deterministic result digest, so two runs (or two
/// machines) can compare answers without shipping the full array.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// Sub-five-sample quantiles (and empty-stage min/max) are `None`/NaN —
// serialize those as JSON null, never a bare NaN token.
fn latency_json(l: &LatencySnapshot) -> String {
    format!(
        "{{\"count\":{},\"mean_s\":{},\"p50_s\":{},\"p95_s\":{},\"p99_s\":{},\"max_s\":{}}}",
        l.count,
        fmt_f64(l.mean),
        fmt_f64(l.p50),
        fmt_f64(l.p95),
        fmt_f64(l.p99),
        fmt_f64(l.max),
    )
}

fn metrics_json(m: &MetricsSnapshot) -> String {
    format!(
        "{{\"submitted\":{},\"served\":{},\"rejected\":{},\"result_cache_hits\":{},\
         \"coalesced\":{},\"pk_solves\":{},\"pk_cache_hits\":{},\"eval_panics\":{},\
         \"deadline_expired\":{},\"quota_rejected\":{},\"shed\":{},\
         \"shed_probability\":{},\"solve\":{},\"end_to_end\":{}}}",
        m.submitted,
        m.served,
        m.rejected,
        m.result_cache_hits,
        m.coalesced,
        m.pk_solves,
        m.pk_cache_hits,
        m.eval_panics,
        m.deadline_expired,
        m.quota_rejected,
        m.shed,
        fmt_f64(m.shed_probability),
        latency_json(&m.solve),
        latency_json(&m.end_to_end),
    )
}

fn bit_identical(a: &[EngineResult], b: &[EngineResult]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

#[allow(clippy::cast_precision_loss)]
fn throughput(queries: usize, secs: f64) -> f64 {
    queries as f64 / secs
}

fn main() {
    let cli = CliSpec::new("qos_server")
        .switch("--quick", "1k queries over 40 scenarios (CI size)")
        .option("--seed", "N", "workload seed (default 2003)")
        .option("--queries", "N", "workload length (default 10000)")
        .option("--workers", "N", "engine workers (default: all cores)")
        .parse();
    let quick = cli.has("--quick");
    let seed = cli.get_u64("--seed", 2003);
    let queries = cli.get_usize("--queries", if quick { 1000 } else { 10_000 });
    let workers = cli.get_usize("--workers", 0);

    let workload_cfg = WorkloadConfig {
        scenarios: if quick { 40 } else { 200 },
        skew: 1.0,
        queries,
    };
    let workload: Vec<QosQuery> = zipf_workload(&workload_cfg, seed);
    let engine_cfg = EngineConfig {
        workers,
        ..EngineConfig::default()
    };
    eprintln!(
        "# qos_server: {} queries over {} scenarios (seed {seed}), {} workers",
        workload.len(),
        workload_cfg.scenarios,
        engine_cfg.effective_workers()
    );

    // 1. Naive sequential recompute: the baseline the engine must beat.
    let t0 = Instant::now();
    let naive: Vec<EngineResult> = workload.iter().map(direct_eval).collect();
    let naive_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "#   naive sequential: {naive_secs:.3}s ({:.0} q/s)",
        throughput(queries, naive_secs)
    );

    // 2. Cold engine: caches empty, coalescing and the P(k) layer do the
    // lifting.
    let engine = Engine::new(engine_cfg);
    let t0 = Instant::now();
    let cold = engine.run_all(&workload);
    let cold_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "#   engine cold:      {cold_secs:.3}s ({:.0} q/s)",
        throughput(queries, cold_secs)
    );

    // 3. Warm engine: the steady serving state.
    let t0 = Instant::now();
    let warm = engine.run_all(&workload);
    let warm_secs = t0.elapsed().as_secs_f64();
    eprintln!(
        "#   engine warm:      {warm_secs:.3}s ({:.0} q/s)",
        throughput(queries, warm_secs)
    );

    // 4. Worker-count matrix: the same workload on fresh engines pinned to
    // 1/2/4 workers, cold and warm, every answer still checked against the
    // naive baseline.
    let matrix: Vec<(bool, String)> = [1usize, 2, 4]
        .iter()
        .map(|&w| {
            let eng = Engine::new(EngineConfig {
                workers: w,
                ..EngineConfig::default()
            });
            let t0 = Instant::now();
            let mat_cold = eng.run_all(&workload);
            let mat_cold_secs = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let mat_warm = eng.run_all(&workload);
            let mat_warm_secs = t0.elapsed().as_secs_f64();
            let ok = bit_identical(&naive, &mat_cold) && bit_identical(&naive, &mat_warm);
            eprintln!(
                "#   workers={w}: cold {mat_cold_secs:.3}s, warm {mat_warm_secs:.3}s, \
                 bit_identical={ok}"
            );
            let row = format!(
                "{{\"workers\": {w}, \"cold_secs\": {}, \"cold_qps\": {}, \"warm_secs\": {}, \
                 \"warm_qps\": {}, \"bit_identical\": {ok}}}",
                fmt_f64(mat_cold_secs),
                fmt_f64(throughput(queries, mat_cold_secs)),
                fmt_f64(mat_warm_secs),
                fmt_f64(throughput(queries, mat_warm_secs)),
            );
            (ok, row)
        })
        .collect();
    let matrix_identical = matrix.iter().all(|(ok, _)| *ok);

    let identical =
        bit_identical(&naive, &cold) && bit_identical(&naive, &warm) && matrix_identical;
    let digest = fnv1a(&results_json(&naive));
    let metrics = engine.metrics();
    let speedup_cold = naive_secs / cold_secs;
    let speedup_warm = naive_secs / warm_secs;
    eprintln!(
        "#   bit_identical={identical}, speedup cold {speedup_cold:.1}x, warm {speedup_warm:.1}x"
    );

    emit(&format!(
        "{{\n  \"experiment\": \"qos_server\",\n  \"seed\": {seed},\n  \"queries\": {queries},\n  \
         \"scenarios\": {},\n  \"workers\": {},\n  \"quick\": {quick},\n  \
         \"bit_identical\": {identical},\n  \"results_digest_fnv1a\": \"{}\",\n  \
         \"naive\": {{\"secs\": {}, \"throughput_qps\": {}}},\n  \
         \"engine_cold\": {{\"secs\": {}, \"throughput_qps\": {}}},\n  \
         \"engine_warm\": {{\"secs\": {}, \"throughput_qps\": {}}},\n  \
         \"speedup_cold_vs_naive\": {},\n  \"speedup_warm_vs_naive\": {},\n  \
         \"worker_matrix\": [{}],\n  \
         \"engine_metrics\": {},\n  \
         \"cache_shards\": {}\n}}",
        workload_cfg.scenarios,
        engine.config().effective_workers(),
        escape(&format!("{digest:016x}")),
        fmt_f64(naive_secs),
        fmt_f64(throughput(queries, naive_secs)),
        fmt_f64(cold_secs),
        fmt_f64(throughput(queries, cold_secs)),
        fmt_f64(warm_secs),
        fmt_f64(throughput(queries, warm_secs)),
        fmt_f64(speedup_cold),
        fmt_f64(speedup_warm),
        matrix
            .iter()
            .map(|(_, row)| row.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&metrics),
        cache_stats_json(&engine.cache_stats()),
    ));

    if !identical {
        eprintln!("# BIT-IDENTITY VIOLATED: engine answers diverged from direct evaluation");
        std::process::exit(1);
    }
}
