//! JSON document assembly for `BENCH_serve.json` (experiment E21).
//!
//! The `serve_bench` binary fills a [`ServeReport`] from its measurements
//! and prints [`ServeReport::render`]. Keeping the assembly here (rather
//! than inline in the binary) lets the round-trip test feed a synthetic
//! report through [`crate::json::check`] and assert the document is a
//! valid record without running the full benchmark.

use oaq_engine::CacheStatsSnapshot;

use crate::json::{cache_stats_json, fmt_f64, quantiles_json, rate_json};

/// A (queries, seconds) pair rendered as `{"secs":…,"qps":…}`.
#[derive(Debug, Clone, Copy)]
pub struct Rate {
    /// How many queries the phase answered.
    pub queries: usize,
    /// Wall-clock seconds the phase took.
    pub secs: f64,
}

impl Rate {
    fn json(&self) -> String {
        rate_json(self.queries, self.secs)
    }
}

/// One worker×shard cell of the scaling matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Engine worker threads.
    pub workers: usize,
    /// Cache shard count.
    pub shards: usize,
    /// Closed-loop cold replay (one connection).
    pub cold: Rate,
    /// Concurrent connections in the warm phase.
    pub warm_clients: usize,
    /// Closed-loop warm replay across all warm connections.
    pub warm: Rate,
    /// Result-cache `try_lock` failures during the cell.
    pub result_contended: u64,
    /// `P(k)`-cache `try_lock` failures during the cell.
    pub pk_contended: u64,
    /// Every wire answer matched `direct_eval` bit-for-bit.
    pub bit_identical: bool,
}

impl MatrixCell {
    fn json(&self) -> String {
        format!(
            "{{\"workers\":{},\"shards\":{},\"cold\":{},\"warm_clients\":{},\"warm\":{},\
             \"result_contended\":{},\"pk_contended\":{},\"bit_identical\":{}}}",
            self.workers,
            self.shards,
            self.cold.json(),
            self.warm_clients,
            self.warm.json(),
            self.result_contended,
            self.pk_contended,
            self.bit_identical,
        )
    }
}

/// One cell of the in-process lock-contention probe: several threads
/// hammer warm cache hits in a tight loop, so the per-shard `try_lock`
/// failure counters expose how far a single lock (1 shard) versus a
/// split lock (N shards) serializes the hot path — measurable even on a
/// one-core box, where wire-path timings cannot show warm scaling.
#[derive(Debug, Clone)]
pub struct ProbeCell {
    /// Cache shard count under test.
    pub shards: usize,
    /// Hammering threads.
    pub threads: usize,
    /// Total warm lookups issued.
    pub ops: u64,
    /// Result-cache `try_lock` failures observed.
    pub result_contended: u64,
    /// Wall-clock seconds the hammer took.
    pub secs: f64,
}

impl ProbeCell {
    fn json(&self) -> String {
        format!(
            "{{\"shards\":{},\"threads\":{},\"ops\":{},\"result_contended\":{},\"secs\":{}}}",
            self.shards,
            self.threads,
            self.ops,
            self.result_contended,
            fmt_f64(self.secs),
        )
    }
}

/// The open-loop (coordinated-omission-free) latency phase.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The paced send rate.
    pub target_qps: f64,
    /// What actually went over the wire.
    pub achieved: Rate,
    /// Latency quantiles in seconds, measured from each request's
    /// *scheduled* send instant.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// 99.9th percentile.
    pub p999_s: f64,
    /// Worst observed.
    pub max_s: f64,
}

impl OpenLoopReport {
    fn json(&self) -> String {
        format!(
            "{{\"target_qps\":{},\"achieved\":{},\"latency\":{}}}",
            fmt_f64(self.target_qps),
            self.achieved.json(),
            quantiles_json(
                self.achieved.queries,
                &[
                    ("p50_s", self.p50_s),
                    ("p95_s", self.p95_s),
                    ("p99_s", self.p99_s),
                    ("p999_s", self.p999_s),
                    ("max_s", self.max_s),
                ],
            ),
        )
    }
}

/// The snapshot warm-start phase: one server life that solves, one that
/// reloads and must not.
#[derive(Debug, Clone)]
pub struct WarmStartReport {
    /// Cold replay on the first server life.
    pub cold: Rate,
    /// `P(k)` solves the cold life ran.
    pub cold_pk_solves: u64,
    /// Replay on the snapshot-warmed second life.
    pub warm: Rate,
    /// `P(k)` solves after reload (the acceptance bar is `0`).
    pub warm_pk_solves: u64,
    /// Snapshot size on disk.
    pub snapshot_bytes: u64,
    /// Capacity-cache entries persisted.
    pub pk_entries: usize,
    /// Result-cache entries persisted.
    pub result_entries: usize,
    /// A deliberately corrupted snapshot was rejected (typed) and the
    /// third life booted cold.
    pub corrupt_rejected: bool,
}

impl WarmStartReport {
    fn json(&self) -> String {
        format!(
            "{{\"cold\":{},\"cold_pk_solves\":{},\"warm\":{},\"warm_pk_solves\":{},\
             \"snapshot_bytes\":{},\"pk_entries\":{},\"result_entries\":{},\
             \"corrupt_rejected\":{}}}",
            self.cold.json(),
            self.cold_pk_solves,
            self.warm.json(),
            self.warm_pk_solves,
            self.snapshot_bytes,
            self.pk_entries,
            self.result_entries,
            self.corrupt_rejected,
        )
    }
}

/// The whole `BENCH_serve.json` document.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Workload seed.
    pub seed: u64,
    /// Queries per replay.
    pub queries: usize,
    /// Distinct workload scenarios.
    pub scenarios: usize,
    /// CI-sized run.
    pub quick: bool,
    /// Every phase's every answer matched `direct_eval` bit-for-bit.
    pub bit_identical: bool,
    /// Sequential `direct_eval` baseline.
    pub naive: Rate,
    /// The worker×shard scaling matrix.
    pub matrix: Vec<MatrixCell>,
    /// The in-process lock-contention probe, one cell per shard count.
    pub contention: Vec<ProbeCell>,
    /// The open-loop latency phase.
    pub open_loop: OpenLoopReport,
    /// The snapshot warm-start phase.
    pub warm_start: WarmStartReport,
    /// Per-shard cache counters from the open-loop server.
    pub cache: CacheStatsSnapshot,
}

impl ServeReport {
    /// The document, pretty enough for a human and strict enough for
    /// [`crate::json::emit`].
    #[must_use]
    pub fn render(&self) -> String {
        let rows: Vec<String> = self.matrix.iter().map(MatrixCell::json).collect();
        let probes: Vec<String> = self.contention.iter().map(ProbeCell::json).collect();
        format!(
            "{{\n  \"experiment\": \"serve_bench\",\n  \"seed\": {},\n  \"queries\": {},\n  \
             \"scenarios\": {},\n  \"quick\": {},\n  \"bit_identical\": {},\n  \
             \"naive\": {},\n  \"matrix\": [{}],\n  \"contention_probe\": [{}],\n  \
             \"open_loop\": {},\n  \
             \"warm_start\": {},\n  \"cache\": {}\n}}",
            self.seed,
            self.queries,
            self.scenarios,
            self.quick,
            self.bit_identical,
            self.naive.json(),
            rows.join(", "),
            probes.join(", "),
            self.open_loop.json(),
            self.warm_start.json(),
            cache_stats_json(&self.cache),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{check, JsonValue};
    use oaq_engine::CacheShardStats;

    fn synthetic() -> ServeReport {
        let shard = CacheShardStats {
            hits: 7,
            misses: 3,
            inserts: 3,
            contended: 2,
            entries: 3,
        };
        ServeReport {
            seed: 2003,
            queries: 1000,
            scenarios: 40,
            quick: true,
            bit_identical: true,
            naive: Rate {
                queries: 1000,
                secs: 2.5,
            },
            matrix: vec![MatrixCell {
                workers: 4,
                shards: 8,
                cold: Rate {
                    queries: 1000,
                    secs: 1.0,
                },
                warm_clients: 4,
                warm: Rate {
                    queries: 4000,
                    secs: 0.5,
                },
                result_contended: 11,
                pk_contended: 0,
                bit_identical: true,
            }],
            contention: vec![
                ProbeCell {
                    shards: 1,
                    threads: 4,
                    ops: 200_000,
                    result_contended: 531,
                    secs: 0.8,
                },
                ProbeCell {
                    shards: 8,
                    threads: 4,
                    ops: 200_000,
                    result_contended: 42,
                    secs: 0.7,
                },
            ],
            open_loop: OpenLoopReport {
                target_qps: 500.0,
                achieved: Rate {
                    queries: 2000,
                    secs: 4.0,
                },
                p50_s: 1e-4,
                p95_s: 2e-4,
                p99_s: 3e-4,
                // An empty tail quantile must render as null, not NaN.
                p999_s: f64::NAN,
                max_s: 5e-4,
            },
            warm_start: WarmStartReport {
                cold: Rate {
                    queries: 1000,
                    secs: 1.2,
                },
                cold_pk_solves: 40,
                warm: Rate {
                    queries: 1000,
                    secs: 0.1,
                },
                warm_pk_solves: 0,
                snapshot_bytes: 65536,
                pk_entries: 40,
                result_entries: 120,
                corrupt_rejected: true,
            },
            cache: CacheStatsSnapshot {
                result: vec![shard; 8],
                pk: vec![shard; 8],
            },
        }
    }

    /// The emitted document is strict JSON end to end — the round-trip
    /// bar for `BENCH_serve.json`.
    #[test]
    fn rendered_report_parses_as_strict_json() {
        let doc = synthetic().render();
        let v = check(&doc).unwrap();
        assert_eq!(
            v.get("experiment"),
            Some(&JsonValue::String("serve_bench".to_string()))
        );
        assert_eq!(
            v.get("matrix")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(1)
        );
        assert_eq!(
            v.get("contention_probe")
                .and_then(JsonValue::as_array)
                .and_then(|a| a.first())
                .and_then(|c| c.get("result_contended"))
                .and_then(JsonValue::as_f64),
            Some(531.0)
        );
        assert_eq!(
            v.get("open_loop")
                .and_then(|o| o.get("latency"))
                .and_then(|l| l.get("p999_s")),
            Some(&JsonValue::Null),
            "NaN quantiles must emit as null"
        );
        assert_eq!(
            v.get("warm_start")
                .and_then(|w| w.get("warm_pk_solves"))
                .and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert_eq!(
            v.get("cache")
                .and_then(|c| c.get("result_shards"))
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(8)
        );
    }
}
