//! `query_cold`: the engine's miss path, in process.
//!
//! Two caller threads each call `Engine::evaluate` one query at a time on
//! a seeded stream that never repeats a question, so every query misses
//! the result cache: san `P(k)` solves, analytic composition and geoloc
//! batched WLS do the work, and the result cache is written rather than
//! read. The mix has three classes:
//!
//! * a capacity-solving query on a fresh (λ, φ, η) — φ log-spread over
//!   3·10³–3·10⁵ h — which misses both cache levels;
//! * τ/µ/ν variants of the scenario just solved, which hit the `P(k)`
//!   cache;
//! * a minority of emitter-tracking queries.
//!
//! The shares put the p50 inside the capacity-solve class and the p90 in
//! its long-φ tail, below the tracking class.
//!
//! Answers are checked bit for bit against `direct_eval`. The stream is
//! measured in segments of [`SEGMENT`] queries per caller: before each,
//! both callers generate their queries and compute the references outside
//! the timed interval, which keeps the benchmark's memory independent of
//! the throughput it measures.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use oaq_core::fullstack::{solve_tracks_batched, synthesize_emitter_tracks};
use oaq_engine::{
    direct_eval, eval_with_pk, DefaultEvaluator, Engine, EngineConfig, Evaluator, Measure,
    QosQuery, QuerySpec, Scheme,
};
use oaq_geoloc::{BatchSolver, WlsSolver};

use crate::engine_stats::Counters;
use crate::rng::Rng;
use crate::stats::{self, Reservoir, Summary};
use crate::trace::{self, SpanLog, NO_PARENT};
use crate::window::{self, Ticks, Windows};
use crate::{alloc, same_value, Ctx, Outcome, Repeats};

const CALLERS: usize = 2;
const SEGMENT: usize = 1024;
/// Engine constructions of an untraced run, behind `setup_s`.
const CONSTRUCTIONS: Repeats = Repeats {
    blocks: 8,
    per_block: 2000,
};
const RESERVOIR: usize = 1 << 16;
/// Chance that the next query is an emitter-tracking one.
const P_TRACKING: f64 = 0.06;
/// Variants after a capacity solve, drawn uniformly from this list.
const VARIANTS: [u32; 6] = [0, 0, 0, 1, 1, 2];
/// Layer samples of the traced run.
const LAYER_SOLVES: usize = 300;
const LAYER_MISSES: usize = 200;
const LAYER_TRACKS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Solve = 0,
    Variant = 1,
    Tracking = 2,
}

const CLASS_NAMES: [&str; 3] = ["solve", "variant", "tracking"];

/// A caller's query stream: one generator, never repeating a question.
pub struct Stream {
    rng: Rng,
    base: Option<QuerySpec>,
    variants_left: u32,
}

impl Stream {
    pub fn new(seed: u64, caller: u64) -> Self {
        Stream {
            rng: Rng::stream(seed, 100 + caller),
            base: None,
            variants_left: 0,
        }
    }

    pub fn next(&mut self) -> (QosQuery, Class) {
        let rng = &mut self.rng;
        if let (Some(base), true) = (self.base, self.variants_left > 0) {
            self.variants_left -= 1;
            let mut spec = base;
            spec.tau = rng.uniform(2.0, 8.0);
            spec.mu = rng.uniform(0.1, 0.6);
            spec.nu = rng.uniform(20.0, 40.0);
            return (build(spec), Class::Variant);
        }
        if rng.chance(P_TRACKING) {
            let measure = Measure::EmitterTracking {
                emitters: 16 + rng.below(49),
                passes: 2 + rng.below(3),
                seed: rng.next_u64() as u32,
            };
            let spec = QuerySpec::paper_defaults(rng.log_uniform(1e-5, 1e-4), measure);
            return (build(spec), Class::Tracking);
        }
        let y = 1 + rng.below(3) as u8;
        let measure = match rng.below(20) {
            0..=7 => Measure::QosAtLeast {
                scheme: Scheme::Oaq,
                y,
            },
            8..=12 => Measure::QosAtLeast {
                scheme: Scheme::Baq,
                y,
            },
            13..=16 => Measure::OaqBaqGap { y },
            _ => Measure::CapacityDistribution,
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
        self.base = Some(spec);
        self.variants_left = VARIANTS[rng.below(VARIANTS.len() as u32) as usize];
        (build(spec), Class::Solve)
    }
}

fn build(spec: QuerySpec) -> QosQuery {
    spec.build().expect("generated queries are in-domain")
}

/// One caller's share of a phase.
struct Caller {
    ops: u64,
    failed: u64,
    /// Milliseconds per `evaluate`; one window per segment.
    win: Windows,
    /// The same by class, over every segment, for the notes.
    by_class: [Reservoir; 3],
    class_ops: [u64; 3],
    log: SpanLog,
}

/// A measured phase of both callers.
struct Phase {
    ops: u64,
    failed: u64,
    callers: Vec<Caller>,
    allocs: u64,
}

impl Phase {
    fn summary(&self, seconds: f64) -> (Summary, f64) {
        let wins: Vec<&Windows> = self.callers.iter().map(|c| &c.win).collect();
        window::summarize(&wins, seconds)
    }
}

/// Runs segments until the callers have measured `seconds` of clean
/// windows (see [`crate::window`]).
fn timed_phase(
    engine: &Engine,
    ctx: &Ctx,
    first_caller: u64,
    seconds: f64,
    epoch: Instant,
    traced: bool,
) -> Phase {
    let allocs = alloc::count();
    let barrier = Barrier::new(CALLERS);
    let stolen = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let callers: Vec<Caller> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS as u64)
            .map(|c| {
                let (barrier, stolen, stop) = (&barrier, &stolen, &stop);
                s.spawn(move || {
                    let leader = c == 0;
                    let mut stream = Stream::new(ctx.seed, first_caller + c);
                    let seed = ctx.seed ^ (first_caller + c);
                    let mut me = Caller {
                        ops: 0,
                        failed: 0,
                        win: Windows::new(RESERVOIR, seed),
                        by_class: std::array::from_fn(|k| Reservoir::new(4096, seed + k as u64)),
                        class_ops: [0; 3],
                        log: SpanLog::new(epoch, traced),
                    };
                    let mut batch = Vec::with_capacity(SEGMENT);
                    let mut refs = Vec::with_capacity(SEGMENT);
                    loop {
                        // Outside the timed interval: the next queries and
                        // their references.
                        batch.clear();
                        batch.extend((0..SEGMENT).map(|_| stream.next()));
                        refs.clear();
                        refs.extend(batch.iter().map(|(q, _)| direct_eval(q)));
                        barrier.wait();
                        if leader && traced {
                            alloc::set_counting(true);
                        }
                        let ticks = Ticks::now();
                        let start = Instant::now();
                        barrier.wait();
                        let root = me.log.open("caller", NO_PARENT, 0);
                        for ((q, class), want) in batch.iter().zip(&refs) {
                            let t0 = Instant::now();
                            let got = engine.evaluate(*q);
                            let t1 = Instant::now();
                            me.ops += 1;
                            me.log.record("engine.evaluate", t0, t1, root, me.ops);
                            let ms = (t1 - t0).as_secs_f64() * 1e3;
                            me.win.record(ms);
                            me.by_class[*class as usize].record(ms);
                            me.class_ops[*class as usize] += 1;
                            let ok = matches!((&got, want), (Ok(g), Ok(w)) if same_value(g, w));
                            me.failed += u64::from(!ok);
                        }
                        me.log.close(root);
                        barrier.wait();
                        // Both callers are done: the segment is one window,
                        // judged once for both.
                        me.win.add(SEGMENT as u64, start.elapsed().as_secs_f64());
                        if leader {
                            alloc::set_counting(false);
                            let share = ticks.stolen_until(&Ticks::now());
                            stolen.store(share.to_bits(), Ordering::SeqCst);
                            me.win.close_at(share);
                            stop.store(me.win.done(seconds), Ordering::SeqCst);
                        }
                        barrier.wait();
                        if !leader {
                            me.win
                                .close_at(f64::from_bits(stolen.load(Ordering::SeqCst)));
                        }
                        if stop.load(Ordering::SeqCst) {
                            return me;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller panicked"))
            .collect()
    });
    Phase {
        ops: callers.iter().map(|c| c.ops).sum(),
        failed: callers.iter().map(|c| c.failed).sum(),
        callers,
        // Counting is on only inside the timed segments of a traced phase.
        allocs: alloc::count() - allocs,
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let epoch = Instant::now();
    // Engine construction is the whole set-up, and it is well under a
    // millisecond; the median of many keeps it steady.
    let construct = || {
        let t0 = Instant::now();
        let engine = Engine::new(EngineConfig::default());
        Ok::<_, String>((engine, t0.elapsed().as_secs_f64()))
    };
    if ctx.trace {
        let (engine, _) = construct()?;
        return Ok(traced(ctx, &engine, epoch));
    }
    let (engine, mut setups) = crate::set_up_repeatedly(CONSTRUCTIONS, construct, drop)?;
    let p = timed_phase(&engine, ctx, 0, ctx.seconds, epoch, false);
    let rss = crate::peak_rss_mb();
    drop(engine);
    let (lat, throughput) = p.summary(ctx.seconds);
    let mut notes = vec![format!(
        "evaluations {} ({} callers, segments of {SEGMENT} each), p90 has {} samples beyond it{}",
        p.ops,
        CALLERS,
        stats::beyond(lat.kept.max(1), 90),
        if lat.p90_supported() { "" } else { ": TOO FEW" },
    )];
    notes.push(window::describe(&p.callers[0].win, ctx.seconds));
    notes.push(class_note(&p.callers, &lat));
    notes.push(crate::set_up_note(&setups));
    Ok(Outcome {
        attempted: p.ops,
        failed: p.failed,
        metrics: crate::end_to_end(throughput, &lat, stats::median(&mut setups), rss),
        notes,
        spans: Vec::new(),
    })
}

/// Each class's share of the evaluations and latency range, so a reader can
/// see which class the p50 and p90 fall in.
fn class_note(callers: &[Caller], lat: &Summary) -> String {
    let total: u64 = callers.iter().map(|c| c.ops).sum();
    let mut out = format!("p50 {:.4} ms, p90 {:.4} ms;", lat.p50, lat.p90);
    for (k, name) in CLASS_NAMES.iter().enumerate() {
        let parts: Vec<&Reservoir> = callers.iter().map(|c| &c.by_class[k]).collect();
        let n: u64 = callers.iter().map(|c| c.class_ops[k]).sum();
        let mut all: Vec<f64> = parts
            .iter()
            .flat_map(|r| r.sample().iter().copied())
            .collect();
        stats::sort(&mut all);
        if all.is_empty() {
            continue;
        }
        out += &format!(
            " {name} {:.1}% of evaluations, p5..p95 {:.4}..{:.4} ms;",
            100.0 * n as f64 / total as f64,
            stats::percentile(&all, 5),
            stats::percentile(&all, 95),
        );
    }
    out
}

fn traced(ctx: &Ctx, engine: &Engine, epoch: Instant) -> Outcome {
    let half = ctx.seconds / 2.0;
    let plain = timed_phase(engine, ctx, 0, half, epoch, false);
    let before = Counters::read(engine);
    let p = timed_phase(engine, ctx, CALLERS as u64, half, epoch, true);
    let mut metrics = before.layer_metrics(engine);

    let mut log = SpanLog::new(epoch, true);
    let overhead = 1.0 - p.summary(half).1 / plain.summary(half).1;
    for c in p.callers {
        log.absorb(c.log);
    }
    let (layer_attempted, layer_failed) = layer_probes(ctx, engine, &mut log);
    let spans = log.spans().to_vec();

    // The solve spans carry their query's φ bits as the request id.
    let long_phi: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "san.solve_pk" && f64::from_bits(s.req) >= 1e5)
        .map(|s| s.dur() as f64 / 1e3)
        .collect();
    let per_track = |name: &str| {
        let total: f64 = trace::durations_us(&spans, name).iter().sum();
        let tracks: u64 = spans.iter().filter(|s| s.name == name).map(|s| s.req).sum();
        total / tracks.max(1) as f64
    };
    metrics.extend([
        ("engine.miss_overhead_us", miss_overhead_us(&spans)),
        (
            "engine.allocs_per_miss",
            p.allocs as f64 / p.ops.max(1) as f64,
        ),
        ("san.pk_solve_us", trace::p50_us(&spans, "san.solve_pk")),
        ("san.pk_solve_long_phi_us", stats::median_or_zero(long_phi)),
        (
            "analytic.compose_us",
            trace::p50_us(&spans, "analytic.eval_with_pk"),
        ),
        ("geoloc.track_us", per_track("geoloc.solve_tracks_batched")),
        (
            "core.synthesize_us",
            per_track("core.synthesize_emitter_tracks"),
        ),
        ("trace.coverage", trace::coverage(&spans, &["caller"])),
        ("trace.overhead_frac", overhead),
    ]);
    Outcome {
        attempted: plain.ops + p.ops + layer_attempted,
        failed: plain.failed + p.failed + layer_failed,
        metrics,
        notes: vec![format!(
            "traced: evaluations {} untraced + {} traced, allocations {}",
            plain.ops, p.ops, p.allocs
        )],
        spans,
    }
}

/// Median over paired queries of `evaluate` on a miss minus `direct_eval`
/// of the same query.
fn miss_overhead_us(spans: &[trace::Span]) -> f64 {
    let direct = trace::durations_us(spans, "engine.direct_eval");
    let missed = trace::durations_us(spans, "engine.evaluate_miss");
    stats::median_or_zero(missed.iter().zip(&direct).map(|(m, d)| m - d).collect())
}

/// Times each layer's public functions on fresh queries of the workload's
/// classes, single-threaded, and checks their answers.
fn layer_probes(ctx: &Ctx, engine: &Engine, log: &mut SpanLog) -> (u64, u64) {
    let root = log.open("layers", NO_PARENT, 0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut stream = Stream::new(ctx.seed, 90);
    let mut pick = |class: Class, n: usize| -> Vec<QosQuery> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let (q, c) = stream.next();
            if c == class {
                out.push(q);
            }
        }
        out
    };

    // san: the P(k) solve; analytic: composition over the solved P(k).
    for q in pick(Class::Solve, LAYER_SOLVES) {
        let phi_bits = q.spec().phi.to_bits();
        let pk = log.time("san.solve_pk", root, phi_bits, || {
            DefaultEvaluator.solve_pk(&q)
        });
        attempted += 1;
        match pk {
            Ok(pk) => {
                let v = log.time("analytic.eval_with_pk", root, 0, || eval_with_pk(&q, &pk));
                failed += u64::from(!matches!(direct_eval(&q), Ok(w) if same_value(&v, &w)));
            }
            Err(_) => failed += 1,
        }
    }

    // engine: a miss through the engine against the direct path, in
    // alternating order so neither side always runs with warm caches.
    for (i, q) in pick(Class::Solve, LAYER_MISSES).into_iter().enumerate() {
        let direct =
            |log: &mut SpanLog| log.time("engine.direct_eval", root, 0, || direct_eval(&q));
        let missed =
            |log: &mut SpanLog| log.time("engine.evaluate_miss", root, 0, || engine.evaluate(q));
        let (d, m) = if i % 2 == 0 {
            let d = direct(log);
            (d, missed(log))
        } else {
            let m = missed(log);
            (direct(log), m)
        };
        attempted += 1;
        failed += u64::from(!matches!((&d, &m), (Ok(d), Ok(m)) if same_value(d, m)));
    }

    // core and geoloc: the two halves of an emitter-tracking query.
    let mut batch = BatchSolver::new(WlsSolver::new());
    for q in pick(Class::Tracking, LAYER_TRACKS) {
        let s = q.spec();
        let Measure::EmitterTracking {
            emitters,
            passes,
            seed,
        } = s.measure
        else {
            unreachable!("picked from the tracking class")
        };
        let revisit = s.theta / f64::from(s.eta);
        let n = u64::from(emitters);
        let tracks = log.time("core.synthesize_emitter_tracks", root, n, || {
            synthesize_emitter_tracks(s.theta, s.tc, revisit, emitters, passes, u64::from(seed))
        });
        let solved = log.time("geoloc.solve_tracks_batched", root, n, || {
            solve_tracks_batched(&tracks, &mut batch)
        });
        attempted += 1;
        failed += u64::from(solved.len() != tracks.len() || solved.iter().all(Result::is_err));
    }
    log.close(root);
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_never_repeats_a_question() {
        let take = |seed, caller| {
            let mut s = Stream::new(seed, caller);
            (0..2000).map(|_| s.next()).collect::<Vec<_>>()
        };
        let a = take(5, 0);
        assert_eq!(a, take(5, 0));
        let mut keys: Vec<_> = a
            .iter()
            .chain(&take(5, 1))
            .map(|(q, _)| q.key().encode())
            .collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "a question repeated");
    }

    #[test]
    fn variants_share_the_capacity_key_of_their_solve() {
        let mut s = Stream::new(9, 0);
        let mut last_solve = None;
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            let (q, class) = s.next();
            counts[class as usize] += 1;
            match class {
                Class::Solve => last_solve = Some(q.capacity_key()),
                Class::Variant => assert_eq!(Some(q.capacity_key()), last_solve),
                Class::Tracking => assert!(!q.measure().needs_capacity_solve()),
            }
        }
        // Solves are the largest class and tracking a small minority.
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        assert!(
            counts[2] * 100 > 2 * 5000 && counts[2] * 100 < 6 * 5000,
            "{counts:?}"
        );
    }
}
