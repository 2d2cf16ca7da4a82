//! `serve_hot`: the query path over loopback TCP with a warm cache.
//!
//! Both connections draw Zipf(1.0) over a warmed working set, so every
//! answer is a result-cache hit: the wire and the engine's hit path do all
//! the work. The interactive connection issues one `Client::call` at a
//! time; the bulk connection sends windows of [`WINDOW`] requests before
//! reading any answer. A change that buys bulk throughput with single-call
//! latency shows, and so does the reverse.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use oaq_engine::{direct_eval, Measure, QosQuery, QosValue, QuerySpec, Scheme};
use oaq_serve::client::{Client, Reply};
use oaq_serve::proto::{decode_frame, encode_request, encode_response, Frame, Request};
use oaq_serve::server::{serve, ServerConfig, ServerHandle};

use crate::engine_stats::Counters;
use crate::rng::{Rng, Zipf};
use crate::stats::{self, Summary};
use crate::trace::{self, SpanLog, NO_PARENT};
use crate::window::{self, Windows};
use crate::{alloc, same_value, Ctx, Outcome, Repeats};

const WORKING_SET: usize = 2000;
const ZIPF_S: f64 = 1.0;
const WINDOW: usize = 32;
/// Set-ups of an untraced run, behind `setup_s`.
const SETUPS: Repeats = Repeats {
    blocks: 8,
    per_block: 4,
};
const RESERVOIR: usize = 1 << 16;

/// One in-domain, paper-scale scenario; every measure but emitter
/// tracking.
fn scenario(rng: &mut Rng) -> QosQuery {
    let scheme = if rng.chance(0.5) {
        Scheme::Oaq
    } else {
        Scheme::Baq
    };
    let y = 1 + rng.below(3) as u8;
    let measure = match rng.below(8) {
        0..=4 => Measure::QosAtLeast { scheme, y },
        5 => Measure::OaqBaqGap { y },
        6 => Measure::CapacityDistribution,
        _ => Measure::ConditionalQos {
            scheme,
            k: 1 + rng.below(14),
            y: rng.below(4) as u8,
        },
    };
    let mut spec = QuerySpec::paper_defaults(rng.log_uniform(1e-5, 1e-4), measure);
    spec.phi = rng.log_uniform(3e3, 3e5);
    spec.eta = 8 + rng.below(5);
    spec.tau = rng.uniform(2.0, 8.0);
    spec.mu = rng.uniform(0.1, 0.6);
    spec.delta_eff = if rng.chance(0.25) {
        rng.uniform(0.0, 1.0)
    } else {
        0.0
    };
    spec.build().expect("generated scenarios are in-domain")
}

fn working_set(seed: u64) -> Vec<QosQuery> {
    let mut rng = Rng::stream(seed, 1);
    (0..WORKING_SET).map(|_| scenario(&mut rng)).collect()
}

/// A booted, warmed server with its two connections.
struct Rig {
    handle: ServerHandle,
    interactive: Client,
    bulk: Client,
}

/// Boots `serve()` with the default configuration, warms the working set
/// through the server's engine and connects both clients.
fn set_up(ws: &[QosQuery], log: &mut SpanLog) -> Result<(Rig, f64), String> {
    let t0 = Instant::now();
    let handle = serve(&ServerConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let t1 = Instant::now();
    let warmed = handle.engine().run_all(ws);
    let t2 = Instant::now();
    if let Some(e) = warmed.iter().find_map(|r| r.as_ref().err()) {
        return Err(format!("warm-up query failed: {e}"));
    }
    let addr = handle.local_addr();
    let interactive = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let bulk = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let t3 = Instant::now();
    log.record("serve.boot", t0, t1, NO_PARENT, 0);
    log.record("engine.warm", t1, t2, NO_PARENT, 0);
    log.record("serve.connect", t2, t3, NO_PARENT, 0);
    let rig = Rig {
        handle,
        interactive,
        bulk,
    };
    Ok((rig, (t3 - t0).as_secs_f64()))
}

/// What one connection did in a timed phase.
struct Side {
    ops: u64,
    failed: u64,
    /// Milliseconds per call (interactive) or per window (bulk).
    win: Windows,
    last: Instant,
    log: SpanLog,
}

impl Side {
    fn new(seed: u64, log: SpanLog) -> Self {
        Side {
            ops: 0,
            failed: 0,
            win: Windows::new(RESERVOIR, seed),
            last: Instant::now(),
            log,
        }
    }

    /// Counts `ops` answers completed at `now` by an exchange of `ms`.
    fn completed(&mut self, ops: u64, ms: f64, now: Instant) {
        self.win.record(ms);
        self.win.add(ops, (now - self.last).as_secs_f64());
        self.win.tick();
        self.last = now;
    }
}

/// The working set, its reference answers and the phase's stop signal.
struct Load<'a> {
    ws: &'a [QosQuery],
    refs: &'a [QosValue],
    seconds: f64,
    /// Set by the interactive connection once it has measured enough.
    stop: AtomicBool,
}

fn answered(reply: &Result<Reply, oaq_serve::ClientError>, id: u64, want: &QosValue) -> bool {
    matches!(reply, Ok(Reply::Value { req_id, value }) if *req_id == id && same_value(value, want))
}

fn interactive(client: &mut Client, load: &Load, mut rng: Rng, log: SpanLog) -> Side {
    let zipf = Zipf::new(load.ws.len(), ZIPF_S);
    let mut side = Side::new(rng.next_u64(), log);
    let root = side.log.open("caller", NO_PARENT, 0);
    while !side.win.done(load.seconds) {
        let idx = zipf.sample(&mut rng);
        side.ops += 1;
        let req = Request::from_query(side.ops, &load.ws[idx]);
        let t0 = Instant::now();
        let reply = client.call(&req);
        let t1 = Instant::now();
        side.log.record("serve.call", t0, t1, root, side.ops);
        side.completed(1, (t1 - t0).as_secs_f64() * 1e3, t1);
        if !answered(&reply, side.ops, &load.refs[idx]) {
            side.failed += 1;
            if reply.is_err() {
                break; // the connection is gone
            }
        }
    }
    load.stop.store(true, Ordering::SeqCst);
    side.log.close(root);
    side
}

fn bulk(client: &mut Client, load: &Load, mut rng: Rng, log: SpanLog) -> Side {
    let zipf = Zipf::new(load.ws.len(), ZIPF_S);
    let mut side = Side::new(rng.next_u64(), log);
    let root = side.log.open("caller", NO_PARENT, 0);
    let mut idx = [0usize; WINDOW];
    let mut broken = false;
    while !broken && !load.stop.load(Ordering::SeqCst) {
        let first = side.ops + 1;
        for slot in &mut idx {
            *slot = zipf.sample(&mut rng);
        }
        let t0 = Instant::now();
        let mut sent = Ok(());
        for (w, &i) in idx.iter().enumerate() {
            sent = sent.and_then(|()| {
                client.send_buffered(&Request::from_query(first + w as u64, &load.ws[i]))
            });
        }
        broken = sent.and_then(|()| client.flush()).is_err();
        for (w, &i) in idx.iter().enumerate() {
            side.ops += 1;
            if broken {
                side.failed += 1;
                continue;
            }
            let reply = client.recv();
            broken = reply.is_err();
            if !answered(&reply, first + w as u64, &load.refs[i]) {
                side.failed += 1;
            }
        }
        let t1 = Instant::now();
        side.log.record("serve.window", t0, t1, root, first);
        side.completed(WINDOW as u64, (t1 - t0).as_secs_f64() * 1e3, t1);
    }
    side.log.close(root);
    side
}

/// The two connections' Zipf streams.
fn streams(seed: u64, first: u64) -> [Rng; 2] {
    [Rng::stream(seed, first), Rng::stream(seed, first + 1)]
}

/// One closed-loop phase on both connections.
struct Phase {
    ops: u64,
    failed: u64,
    wall_s: f64,
    /// Interactive calls.
    calls: Windows,
    /// Bulk windows of [`WINDOW`] requests.
    windows: Windows,
    log: SpanLog,
}

impl Phase {
    /// Interactive-call latency, and the throughput of both connections.
    fn summary(&self, seconds: f64) -> (Summary, f64) {
        let (calls, _) = window::summarize(&[&self.calls], seconds);
        let (_, throughput) = window::summarize(&[&self.calls, &self.windows], seconds);
        (calls, throughput)
    }
}

fn timed_phase(
    rig: &mut Rig,
    ws: &[QosQuery],
    refs: &[QosValue],
    [inter_rng, bulk_rng]: [Rng; 2],
    seconds: f64,
    epoch: Instant,
    traced: bool,
) -> Phase {
    let load = Load {
        ws,
        refs,
        seconds,
        stop: AtomicBool::new(false),
    };
    let barrier = Barrier::new(2);
    let start = Instant::now();
    let (inter, bulk_side) = std::thread::scope(|s| {
        let inter = s.spawn(|| {
            barrier.wait();
            let log = SpanLog::new(epoch, traced);
            interactive(&mut rig.interactive, &load, inter_rng, log)
        });
        let bulk_side = s.spawn(|| {
            barrier.wait();
            let log = SpanLog::new(epoch, traced);
            bulk(&mut rig.bulk, &load, bulk_rng, log)
        });
        (
            inter.join().expect("interactive caller panicked"),
            bulk_side.join().expect("bulk caller panicked"),
        )
    });
    let end = inter.last.max(bulk_side.last);
    let mut log = inter.log;
    log.absorb(bulk_side.log);
    Phase {
        ops: inter.ops + bulk_side.ops,
        failed: inter.failed + bulk_side.failed,
        wall_s: (end - start).as_secs_f64(),
        calls: inter.win,
        windows: bulk_side.win,
        log,
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let ws = working_set(ctx.seed);
    let refs = ws
        .iter()
        .map(|q| direct_eval(q).map_err(|e| format!("reference evaluation failed: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let epoch = Instant::now();
    let mut setup_log = SpanLog::new(epoch, ctx.trace);

    if ctx.trace {
        let (mut rig, _) = set_up(&ws, &mut setup_log)?;
        let outcome = traced(ctx, &mut rig, &ws, &refs, epoch, setup_log);
        drop_rig(rig);
        return Ok(outcome);
    }
    let (mut rig, mut setups) =
        crate::set_up_repeatedly(SETUPS, || set_up(&ws, &mut setup_log), drop_rig)?;
    let p = timed_phase(
        &mut rig,
        &ws,
        &refs,
        streams(ctx.seed, 2),
        ctx.seconds,
        epoch,
        false,
    );
    let rss = crate::peak_rss_mb();
    drop_rig(rig);

    let (calls, throughput) = p.summary(ctx.seconds);
    let (windows, _) = window::summarize(&[&p.windows], ctx.seconds);
    let notes =
        vec![
            format!(
            "interactive calls {} (p90 has {} samples beyond it{}), bulk windows {} of {WINDOW}, \
             window p50 {:.3} ms",
            calls.seen,
            stats::beyond(calls.kept.max(1), 90),
            if calls.p90_supported() { "" } else { ": TOO FEW" },
            windows.seen,
            windows.p50,
        ),
            format!("answers {} in {:.3} s", p.ops, p.wall_s),
            window::describe(&p.calls, ctx.seconds),
            crate::set_up_note(&setups),
        ];
    Ok(Outcome {
        attempted: p.ops,
        failed: p.failed,
        metrics: crate::end_to_end(throughput, &calls, stats::median(&mut setups), rss),
        notes,
        spans: Vec::new(),
    })
}

fn drop_rig(rig: Rig) {
    drop(rig.interactive);
    drop(rig.bulk);
    // The server is down whether or not a (disabled) snapshot was written.
    let _ = rig.handle.shutdown();
}

fn traced(
    ctx: &Ctx,
    rig: &mut Rig,
    ws: &[QosQuery],
    refs: &[QosValue],
    epoch: Instant,
    mut log: SpanLog,
) -> Outcome {
    let half = ctx.seconds / 2.0;
    let plain = timed_phase(rig, ws, refs, streams(ctx.seed, 2), half, epoch, false);

    let engine = std::sync::Arc::clone(rig.handle.engine());
    let before = Counters::read(&engine);
    let allocs = alloc::count();
    alloc::set_counting(true);
    let p = timed_phase(rig, ws, refs, streams(ctx.seed, 4), half, epoch, true);
    alloc::set_counting(false);
    let allocs = alloc::count() - allocs;
    let mut metrics = before.layer_metrics(&engine);
    let overhead = 1.0 - p.summary(half).1 / plain.summary(half).1;
    log.absorb(p.log);

    // In-process costs of the same queries: the codec on both sides of the
    // wire, and the engine's hit path.
    let layers = log.open("layers", NO_PARENT, 0);
    let mut in_process_failed = 0;
    for (i, (q, want)) in ws.iter().zip(refs).enumerate() {
        let req = Request::from_query(i as u64, q);
        let codec_ok = log.time("serve.codec", layers, i as u64, || {
            let back = decode_frame(&encode_request(&req));
            let answer = decode_frame(&encode_response(req.req_id, want));
            matches!(back, Ok(Frame::Request(r)) if r == req)
                && matches!(answer, Ok(Frame::Response(r)) if same_value(&r.value, want))
        });
        let hit = log.time("engine.hit", layers, i as u64, || engine.evaluate(*q));
        let hit_ok = matches!(hit, Ok(v) if same_value(&v, want));
        in_process_failed += u64::from(!(codec_ok && hit_ok));
    }
    log.close(layers);

    let spans = log.spans().to_vec();
    let calls_ms: Vec<f64> = trace::durations_us(&spans, "serve.call")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let round_trip = trace::p50_us(&spans, "serve.call");
    let codec = trace::p50_us(&spans, "serve.codec");
    let hit = trace::p50_us(&spans, "engine.hit");
    metrics.extend([
        ("serve.round_trip_us", round_trip),
        (
            "serve.stall_frac",
            if calls_ms.is_empty() {
                0.0
            } else {
                stats::stall_frac(&calls_ms)
            },
        ),
        (
            "serve.window_ms",
            trace::p50_us(&spans, "serve.window") / 1e3,
        ),
        ("serve.codec_us", codec),
        ("serve.residual_us", round_trip - codec - hit),
        (
            "serve.allocs_per_query",
            allocs as f64 / p.ops.max(1) as f64,
        ),
        ("serve.boot_ms", trace::p50_us(&spans, "serve.boot") / 1e3),
        ("engine.hit_us", hit),
        ("engine.warm_ms", trace::p50_us(&spans, "engine.warm") / 1e3),
        ("trace.coverage", trace::coverage(&spans, &["caller"])),
        ("trace.overhead_frac", overhead),
    ]);
    Outcome {
        attempted: plain.ops + p.ops + ws.len() as u64,
        failed: plain.failed + p.failed + in_process_failed,
        metrics,
        notes: vec![format!(
            "traced: interactive calls {}, answers {} untraced + {} traced, allocations {allocs}",
            calls_ms.len(),
            plain.ops,
            p.ops
        )],
        spans,
    }
}
