//! Experiment E21 — the networked serving frontend under load.
//!
//! Everything here goes over the wire: a real `oaq-serve` TCP server, a
//! real protocol client, answers compared bit-for-bit against a
//! sequential `direct_eval` baseline. Three phases, JSON on stdout
//! (progress on stderr):
//!
//! 1. **worker×shard matrix** — fresh servers pinned to each (workers,
//!    cache shards) cell replay the seeded Zipf workload cold (one
//!    connection) and warm (several concurrent connections), recording
//!    throughput and the per-shard `try_lock`-failure counters that
//!    demonstrate the lock split even on a single-core box;
//! 2. **open loop** — a paced, coordinated-omission-free load phase:
//!    requests are sent on a fixed schedule and each latency is measured
//!    from the request's *scheduled* send instant, so server stalls
//!    surface as tail latency instead of silently slowing the generator;
//! 3. **snapshot warm-start** — one server life solves the working set
//!    and persists its caches on graceful shutdown; the next life reloads
//!    the snapshot and must replay the same workload with *zero* `P(k)`
//!    solves; a deliberately corrupted snapshot must be rejected typed.
//!
//! Any answer diverging from `direct_eval` exits non-zero.
//!
//! Usage: `serve_bench [--quick] [--seed N] [--queries N] [--rate QPS]`

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oaq_bench::args::CliSpec;
use oaq_bench::json::emit;
use oaq_bench::serve_report::{
    MatrixCell, OpenLoopReport, ProbeCell, Rate, ServeReport, WarmStartReport,
};
use oaq_engine::{
    direct_eval, shard_of, zipf_workload, Engine, EngineConfig, QosQuery, QosValue, WorkloadConfig,
};
use oaq_serve::client::{Client, Reply};
use oaq_serve::proto::{decode_frame, encode_request, read_frame, write_frame, Frame, Request};
use oaq_serve::server::{serve, ServerConfig, ServerHandle, WarmStart};

/// How many requests a closed-loop replay keeps on the wire at once —
/// deep enough to keep the server busy, shallow enough that neither
/// side's socket buffer fills with unread replies.
const WINDOW: usize = 64;

/// Replays `queries` over one connection, `WINDOW`-deep pipelined,
/// checking every reply bit-for-bit. Returns (seconds, all-identical).
fn replay(addr: SocketAddr, queries: &[QosQuery], expected: &[QosValue]) -> (f64, bool) {
    let mut client = Client::connect(addr).expect("connect");
    let mut identical = true;
    let t0 = Instant::now();
    let mut sent = 0usize;
    let mut received = 0usize;
    while received < queries.len() {
        while sent < queries.len() && sent - received < WINDOW {
            client
                .send_buffered(&Request::from_query(sent as u64, &queries[sent]))
                .expect("send");
            sent += 1;
        }
        client.flush().expect("flush");
        match client.recv().expect("recv") {
            Reply::Value { req_id, value } => {
                if req_id != received as u64 || value != expected[received] {
                    identical = false;
                }
            }
            Reply::Error { .. } => identical = false,
        }
        received += 1;
    }
    (t0.elapsed().as_secs_f64(), identical)
}

/// One (workers, shards) cell: cold replay on one connection, then a
/// concurrent warm phase, with the cell's cache counters read off the
/// engine afterwards.
fn matrix_cell(
    workers: usize,
    shards: usize,
    queries: &Arc<Vec<QosQuery>>,
    expected: &Arc<Vec<QosValue>>,
    warm_clients: usize,
) -> MatrixCell {
    let handle = serve(&ServerConfig {
        engine: EngineConfig {
            workers,
            cache_shards: shards,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr();

    let (cold_secs, cold_ok) = replay(addr, queries, expected);

    let t0 = Instant::now();
    let threads: Vec<_> = (0..warm_clients)
        .map(|_| {
            let queries = Arc::clone(queries);
            let expected = Arc::clone(expected);
            std::thread::spawn(move || replay(addr, &queries, &expected).1)
        })
        .collect();
    let warm_ok = threads
        .into_iter()
        .all(|t| t.join().expect("warm client panicked"));
    let warm_secs = t0.elapsed().as_secs_f64();

    let stats = handle.engine().cache_stats();
    let cell = MatrixCell {
        workers,
        shards,
        cold: Rate {
            queries: queries.len(),
            secs: cold_secs,
        },
        warm_clients,
        warm: Rate {
            queries: queries.len() * warm_clients,
            secs: warm_secs,
        },
        result_contended: stats.result.iter().map(|s| s.contended).sum(),
        pk_contended: stats.pk.iter().map(|s| s.contended).sum(),
        bit_identical: cold_ok && warm_ok,
    };
    drop(handle);
    eprintln!(
        "#   workers={workers} shards={shards}: cold {:.3}s, warm {:.3}s x{warm_clients}, \
         contended {}+{}, bit_identical={}",
        cell.cold.secs,
        cell.warm.secs,
        cell.result_contended,
        cell.pk_contended,
        cell.bit_identical
    );
    cell
}

/// The in-process lock-contention probe: each thread hammers its own hot
/// key in a tight loop of warm cache hits. The keys are chosen (via the
/// engine's public shard routing) to land on *distinct* shards of an
/// 8-shard cache — so with 1 shard every thread serializes on one mutex
/// and the `try_lock`-failure counter climbs, while with 8 shards the
/// same four threads touch four different locks and contention collapses.
/// This is the sharding claim made observable on a one-core box, where
/// wall-clock scaling cannot show it: the wire path is syscall-dominated,
/// so only a loop whose body *is* the cache hit exposes the lock.
fn probe_keys(queries: &[QosQuery], threads: usize, shards: usize) -> Vec<QosQuery> {
    let mut picked: Vec<QosQuery> = Vec::new();
    let mut taken = vec![false; shards];
    for q in queries {
        let s = shard_of(&q.key(), shards);
        if !taken[s] {
            taken[s] = true;
            picked.push(*q);
            if picked.len() == threads {
                break;
            }
        }
    }
    assert_eq!(
        picked.len(),
        threads,
        "workload too narrow to find {threads} keys on distinct shards"
    );
    picked
}

fn contention_probe(
    shards: usize,
    queries: &[QosQuery],
    threads: usize,
    probe_secs: f64,
) -> ProbeCell {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        cache_shards: shards,
        ..EngineConfig::default()
    }));
    let results = engine.run_all(queries); // prewarm every key
    assert!(results.iter().all(Result::is_ok), "prewarm must succeed");
    // Prewarm itself contends (workers + coalescing); measure the delta.
    let base: u64 = engine
        .cache_stats()
        .result
        .iter()
        .map(|s| s.contended)
        .sum();
    // One hot key per thread, each on its own shard of an 8-shard cache.
    let keys = probe_keys(queries, threads, 8);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let key = keys[t];
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let _ = engine.evaluate(key);
                    ops += 1;
                }
                ops
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(probe_secs));
    stop.store(true, Ordering::Relaxed);
    let ops: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("probe thread panicked"))
        .sum();
    let secs = t0.elapsed().as_secs_f64();
    let stats = engine.cache_stats();
    engine.shutdown();
    let cell = ProbeCell {
        shards,
        threads,
        ops,
        result_contended: stats
            .result
            .iter()
            .map(|s| s.contended)
            .sum::<u64>()
            .saturating_sub(base),
        secs,
    };
    eprintln!(
        "#   probe shards={shards}: {} ops in {:.3}s, result_contended={}",
        cell.ops, cell.secs, cell.result_contended
    );
    cell
}

/// The `p`-quantile of an ascending-sorted sample (nearest rank).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The open-loop phase: `count` requests on a fixed `rate` schedule over
/// a pre-warmed server; latency from scheduled send time.
#[allow(clippy::cast_precision_loss)]
fn open_loop(
    handle: &ServerHandle,
    queries: &[QosQuery],
    expected: &[QosValue],
    count: usize,
    rate: f64,
) -> (OpenLoopReport, bool) {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let m = queries.len();
    let start = Instant::now();
    let receiver = {
        let expected: Vec<QosValue> = expected.to_vec();
        std::thread::spawn(move || {
            let mut instants = Vec::with_capacity(count);
            let mut identical = true;
            for i in 0..count {
                let payload = read_frame(&mut reader)
                    .expect("read")
                    .expect("server closed mid-phase");
                instants.push(Instant::now());
                match decode_frame(&payload) {
                    Ok(Frame::Response(r)) => {
                        if r.req_id != i as u64 || r.value != expected[i % expected.len()] {
                            identical = false;
                        }
                    }
                    _ => identical = false,
                }
            }
            (instants, identical)
        })
    };
    for i in 0..count {
        let target = start + interval.mul_f64(i as f64);
        if let Some(wait) = target.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        write_frame(
            &mut writer,
            &encode_request(&Request::from_query(i as u64, &queries[i % m])),
        )
        .expect("send");
    }
    let (instants, identical) = receiver.join().expect("receiver panicked");
    let total_secs = start.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = instants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let scheduled = start + interval.mul_f64(i as f64);
            t.saturating_duration_since(scheduled).as_secs_f64()
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let report = OpenLoopReport {
        target_qps: rate,
        achieved: Rate {
            queries: count,
            secs: total_secs,
        },
        p50_s: quantile(&latencies, 0.50),
        p95_s: quantile(&latencies, 0.95),
        p99_s: quantile(&latencies, 0.99),
        p999_s: quantile(&latencies, 0.999),
        max_s: latencies.last().copied().unwrap_or(f64::NAN),
    };
    eprintln!(
        "#   open loop: {count} @ {rate:.0}/s, p50 {:.2e}s p99 {:.2e}s p999 {:.2e}s, \
         bit_identical={identical}",
        report.p50_s, report.p99_s, report.p999_s
    );
    (report, identical)
}

/// The snapshot warm-start phase: three server lives against one path.
fn warm_start_phase(queries: &[QosQuery], expected: &[QosValue]) -> (WarmStartReport, bool) {
    let path = std::env::temp_dir().join(format!("oaq_serve_bench_{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = ServerConfig {
        engine: EngineConfig::default(),
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    };

    // Life 1: cold — solve everything, persist on graceful shutdown.
    let first = serve(&config).expect("bind");
    let (cold_secs, cold_ok) = replay(first.local_addr(), queries, expected);
    let cold_pk_solves = first.engine().metrics().pk_solves;
    let saved = first
        .shutdown()
        .expect("snapshot save")
        .expect("snapshot configured");

    // Life 2: warm — reload, replay, and re-solve nothing.
    let second = serve(&config).expect("bind");
    let loaded = matches!(second.warm_start(), WarmStart::Loaded(_));
    let (warm_secs, warm_ok) = replay(second.local_addr(), queries, expected);
    let warm_pk_solves = second.engine().metrics().pk_solves;
    second.shutdown().expect("snapshot re-save");

    // Life 3: corrupt the file; the server must boot cold, not die.
    let mut bytes = std::fs::read(&path).expect("snapshot readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("snapshot writable");
    let third = serve(&config).expect("bind");
    let corrupt_rejected = matches!(third.warm_start(), WarmStart::Rejected(_))
        && third.engine().export_pk_cache().is_empty();
    drop(third);
    let _ = std::fs::remove_file(&path);

    let ok = cold_ok && warm_ok && loaded && warm_pk_solves == 0 && corrupt_rejected;
    eprintln!(
        "#   warm start: cold {cold_secs:.3}s ({cold_pk_solves} solves) -> warm {warm_secs:.3}s \
         ({warm_pk_solves} solves), corrupt_rejected={corrupt_rejected}"
    );
    (
        WarmStartReport {
            cold: Rate {
                queries: queries.len(),
                secs: cold_secs,
            },
            cold_pk_solves,
            warm: Rate {
                queries: queries.len(),
                secs: warm_secs,
            },
            warm_pk_solves,
            snapshot_bytes: saved.bytes,
            pk_entries: saved.pk_entries,
            result_entries: saved.result_entries,
            corrupt_rejected,
        },
        ok,
    )
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let cli = CliSpec::new("serve_bench")
        .switch("--quick", "1k queries over 40 scenarios (CI size)")
        .option("--seed", "N", "workload seed (default 2003)")
        .option("--queries", "N", "workload length (default 6000)")
        .option(
            "--rate",
            "QPS",
            "open-loop send rate (default: half of warm qps)",
        )
        .parse();
    let quick = cli.has("--quick");
    let seed = cli.get_u64("--seed", 2003);
    let n_queries = cli.get_usize("--queries", if quick { 1000 } else { 6000 });
    let rate_override = cli.get_f64_nonneg("--rate", 0.0);

    let workload_cfg = WorkloadConfig {
        scenarios: if quick { 40 } else { 120 },
        skew: 1.0,
        queries: n_queries,
    };
    let queries: Arc<Vec<QosQuery>> = Arc::new(zipf_workload(&workload_cfg, seed));
    eprintln!(
        "# serve_bench: {} queries over {} scenarios (seed {seed})",
        queries.len(),
        workload_cfg.scenarios
    );

    // The ground truth every wire answer is held to.
    let t0 = Instant::now();
    let expected: Arc<Vec<QosValue>> = Arc::new(
        queries
            .iter()
            .map(|q| direct_eval(q).expect("workload queries are valid"))
            .collect(),
    );
    let naive_secs = t0.elapsed().as_secs_f64();
    eprintln!("#   naive baseline: {naive_secs:.3}s");

    // Phase 1: the worker×shard matrix.
    let warm_clients = 4;
    let cells: Vec<(usize, usize)> = if quick {
        vec![(1, 1), (1, 8), (4, 1), (4, 8)]
    } else {
        vec![(1, 1), (1, 8), (2, 1), (2, 8), (4, 1), (4, 8)]
    };
    let matrix: Vec<MatrixCell> = cells
        .into_iter()
        .map(|(w, s)| matrix_cell(w, s, &queries, &expected, warm_clients))
        .collect();
    let matrix_identical = matrix.iter().all(|c| c.bit_identical);

    // Phase 1b: the in-process contention probe, 1 shard vs 8 shards.
    let probe_secs = if quick { 0.75 } else { 2.0 };
    let contention: Vec<ProbeCell> = [1usize, 8]
        .into_iter()
        .map(|s| contention_probe(s, &queries, warm_clients, probe_secs))
        .collect();

    // Phase 2: open loop on a default-shaped, pre-warmed server.
    let handle = serve(&ServerConfig::default()).expect("bind");
    let (warm_secs, prewarm_ok) = {
        let (_, _) = replay(handle.local_addr(), &queries, &expected); // cold fill
        replay(handle.local_addr(), &queries, &expected)
    };
    let warm_qps = queries.len() as f64 / warm_secs;
    let rate = if rate_override > 0.0 {
        rate_override
    } else {
        (warm_qps * 0.5).clamp(200.0, 50_000.0)
    };
    let open_count = if quick { 2000 } else { 8000 };
    let (open_report, open_identical) = open_loop(&handle, &queries, &expected, open_count, rate);
    let cache = handle.engine().cache_stats();
    drop(handle);

    // Phase 3: snapshot warm-start.
    let (warm_report, warm_identical) = warm_start_phase(&queries, &expected);

    let bit_identical = matrix_identical && prewarm_ok && open_identical && warm_identical;
    let report = ServeReport {
        seed,
        queries: n_queries,
        scenarios: workload_cfg.scenarios,
        quick,
        bit_identical,
        naive: Rate {
            queries: n_queries,
            secs: naive_secs,
        },
        matrix,
        contention,
        open_loop: open_report,
        warm_start: warm_report,
        cache,
    };
    emit(&report.render());

    if !bit_identical {
        eprintln!("# BIT-IDENTITY VIOLATED: a wire answer diverged from direct evaluation");
        std::process::exit(1);
    }
}
