//! `campaign`: the alert path as a Monte Carlo fault campaign.
//!
//! One operation of the loop is a grid step: a paper-scale cell (the
//! reference k = 10 plane, [`PAPER_EPISODES`] episodes) and a Starlink
//! cell (1584 nodes under the `Preset::Starlink` coverage geometry,
//! [`STARLINK_EPISODES`] episodes) under the same `CellSpec`, each run by
//! `run_cell_scenario` on [`WORKERS`] workers. Steps cycle through i.i.d.
//! and bursty loss × node-failure rate × retry budget. Core, net, sim,
//! exec and orbit do all the work; serve, engine and san do none. The two
//! cells split a step's time roughly evenly between per-episode fixed cost
//! and topology-size cost.
//!
//! Each timed cell is compared with a one-worker run of the same
//! (scenario, spec, seed), computed before the timed phase, and every
//! violation that reference records is replayed through
//! `replay_episode_scenario`.

use std::f64::consts::TAU;
use std::time::Instant;

use oaq_bench::campaign::{
    replay_episode_scenario, run_cell_scenario, CellOutcome, CellSpec, LossAxis, Scenario,
};
use oaq_core::config::{ProtocolConfig, Scheme};
use oaq_core::protocol::{Episode, EpisodeScratch};
use oaq_core::signal::CoverageGeometry;
use oaq_orbit::Preset;

use crate::rng::Rng;
use crate::stats::{self, Reservoir, Summary};
use crate::trace::{self, SpanLog, NO_PARENT};
use crate::window::{self, Windows};
use crate::{alloc, Ctx, Outcome, Repeats};

const PAPER_EPISODES: u64 = 2000;
const STARLINK_EPISODES: u64 = 50;
const WORKERS: usize = 2;
/// Distinct grid steps the loop cycles through: every one of the
/// [`GRID_CELLS`] grid cells eight times, each time with its own seed.
const DISTINCT_STEPS: usize = 64;
const GRID_CELLS: usize = 8;
/// Set-ups of an untraced run, behind `setup_s`.
const SETUPS: Repeats = Repeats {
    blocks: 8,
    per_block: 4000,
};
/// Set-ups of a traced run, behind `orbit.geometry_ms`.
const TRACED_SETUPS: Repeats = Repeats {
    blocks: 1,
    per_block: 1001,
};
/// Serial episodes timed per scale in the traced run.
const SERIAL_PAPER: u64 = 2000;
const SERIAL_STARLINK: u64 = 200;
/// Alternating 1- and 2-worker runs of one cell in the traced run.
const EFFICIENCY_REPS: usize = 5;

/// The grid: i.i.d./bursty loss × node-failure rate × retry budget.
fn grid() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for loss in [
        LossAxis::Iid { p: 0.2 },
        LossAxis::Bursty {
            marginal: 0.2,
            burst_len: 4.0,
        },
    ] {
        for node_failure_rate in [0.02, 0.2] {
            for retry_budget in [0, 2] {
                cells.push(CellSpec {
                    loss,
                    node_failure_rate,
                    retry_budget,
                });
            }
        }
    }
    cells
}

/// The Starlink shell-1 coverage geometry: satellite `(p, s)` (node
/// `p·S + s`) reaches the target `θ·phase/2π` minutes into the period,
/// with the Walker phase `2π·F·p/T + 2π·s/S`.
fn starlink_geometry() -> CoverageGeometry {
    let w = Preset::Starlink.config();
    let total = w.total_satellites() as f64;
    let per_plane = w.satellites_per_plane as f64;
    let theta = w.period.value();
    let offsets = (0..w.planes)
        .flat_map(|p| (0..w.satellites_per_plane).map(move |s| (p, s)))
        .map(|(p, s)| {
            let phase =
                (TAU * (w.phasing_factor * p) as f64 / total + TAU * s as f64 / per_plane) % TAU;
            theta * phase / TAU
        })
        .collect();
    CoverageGeometry::with_offsets(offsets, theta, w.coverage_time.value())
}

/// Everything the loop needs, built before it starts.
struct Setup {
    geometry: CoverageGeometry,
    paper: ProtocolConfig,
    starlink: ProtocolConfig,
    steps: Vec<(CellSpec, u64)>,
}

/// Builds the loop's inputs and returns them with the seconds it took.
fn set_up(seed: u64, log: &mut SpanLog) -> (Setup, f64) {
    let t0 = Instant::now();
    let geometry = starlink_geometry();
    log.record("orbit.geometry", t0, Instant::now(), NO_PARENT, 0);
    let walker = Preset::Starlink.config();
    let mut starlink = ProtocolConfig::reference(walker.total_satellites(), Scheme::Oaq);
    starlink.theta = walker.period.value();
    starlink.tc = walker.coverage_time.value();
    starlink.validate();
    let mut rng = Rng::stream(seed, 7);
    let cells = grid();
    let steps = (0..DISTINCT_STEPS)
        .map(|i| (cells[i % cells.len()], rng.next_u64()))
        .collect();
    let setup = Setup {
        geometry,
        paper: ProtocolConfig::reference(10, Scheme::Oaq),
        starlink,
        steps,
    };
    (setup, t0.elapsed().as_secs_f64())
}

/// The run's set-up, repeated as `repeats` says, and the mean seconds of
/// each block of set-ups.
fn set_up_times(seed: u64, repeats: Repeats, log: &mut SpanLog) -> (Setup, Vec<f64>) {
    let repeated = crate::set_up_repeatedly(repeats, || Ok::<_, ()>(set_up(seed, log)), drop);
    repeated.expect("set-up cannot fail")
}

impl Setup {
    fn paper_scenario(&self, workers: usize) -> Scenario<'_> {
        Scenario::new(&self.paper, workers)
    }

    fn starlink_scenario(&self, workers: usize) -> Scenario<'_> {
        Scenario::new(&self.starlink, workers).with_geometry(&self.geometry)
    }

    /// One grid step's two cells.
    fn step(&self, i: usize, workers: usize) -> [CellOutcome; 2] {
        let (spec, seed) = &self.steps[i % self.steps.len()];
        [
            run_cell_scenario(&self.paper_scenario(workers), spec, PAPER_EPISODES, *seed),
            run_cell_scenario(
                &self.starlink_scenario(workers),
                spec,
                STARLINK_EPISODES,
                *seed,
            ),
        ]
    }
}

/// Full equality of two cell outcomes: every tally and every violation
/// record, trace included.
fn same_cell(a: &CellOutcome, b: &CellOutcome) -> bool {
    a.spec == b.spec
        && a.episodes == b.episodes
        && a.detected == b.detected
        && a.timely == b.timely
        && a.quality == b.quality
        && a.live_detector == b.live_detector
        && a.live_detector_timely == b.live_detector_timely
        && a.violations.len() == b.violations.len()
        && a.violations.iter().zip(&b.violations).all(|(x, y)| {
            x.episode == y.episode
                && x.seed == y.seed
                && x.detector == y.detector
                && x.outcome == y.outcome
                && x.trace == y.trace
        })
}

/// One-worker references for every distinct step, and how many recorded
/// violations failed to replay identically.
fn references(setup: &Setup) -> (Vec<[CellOutcome; 2]>, u64, u64) {
    let refs: Vec<[CellOutcome; 2]> = (0..setup.steps.len()).map(|i| setup.step(i, 1)).collect();
    let (mut replayed, mut diverged) = (0u64, 0u64);
    for (i, cells) in refs.iter().enumerate() {
        let (spec, seed) = &setup.steps[i];
        let scenarios = [setup.paper_scenario(1), setup.starlink_scenario(1)];
        for (cell, scenario) in cells.iter().zip(&scenarios) {
            for v in &cell.violations {
                let (outcome, trace) = replay_episode_scenario(scenario, spec, *seed, v.episode);
                replayed += 1;
                diverged += u64::from(format!("{outcome:?}") != v.outcome || trace != v.trace);
            }
        }
    }
    (refs, replayed, diverged)
}

struct Phase {
    steps: u64,
    episodes: u64,
    failed: u64,
    wall_s: f64,
    /// Milliseconds per grid step.
    win: Windows,
    /// Step latency by grid cell, to show where the percentiles fall.
    by_cell: Vec<Reservoir>,
    allocs: u64,
}

fn timed_phase(
    setup: &Setup,
    refs: &[[CellOutcome; 2]],
    first: usize,
    seconds: f64,
    log: &mut SpanLog,
) -> Phase {
    let mut p = Phase {
        steps: 0,
        episodes: 0,
        failed: 0,
        wall_s: 0.0,
        win: Windows::new(1 << 16, first as u64),
        by_cell: (0..GRID_CELLS)
            .map(|k| Reservoir::new(4096, k as u64))
            .collect(),
        allocs: 0,
    };
    let allocs = alloc::count();
    let start = Instant::now();
    let mut i = first;
    let mut last = start;
    while !p.win.done(seconds) {
        let t0 = Instant::now();
        let root = log.open("campaign.step", NO_PARENT, i as u64);
        let (spec, seed) = &setup.steps[i % setup.steps.len()];
        let paper = log.time("campaign.cell.paper", root, i as u64, || {
            run_cell_scenario(&setup.paper_scenario(WORKERS), spec, PAPER_EPISODES, *seed)
        });
        let starlink = log.time("campaign.cell.starlink", root, i as u64, || {
            run_cell_scenario(
                &setup.starlink_scenario(WORKERS),
                spec,
                STARLINK_EPISODES,
                *seed,
            )
        });
        log.close(root);
        let t1 = Instant::now();
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        p.win.record(ms);
        p.by_cell[i % GRID_CELLS].record(ms);
        let want = &refs[i % refs.len()];
        for (got, want) in [paper, starlink].iter().zip(want) {
            p.episodes += got.episodes;
            if !same_cell(got, want) {
                p.failed += got.episodes;
            }
        }
        p.win.add(
            PAPER_EPISODES + STARLINK_EPISODES,
            (t1 - last).as_secs_f64(),
        );
        p.win.tick();
        last = t1;
        p.steps += 1;
        i += 1;
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.allocs = alloc::count() - allocs;
    p
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, ctx.trace);
    let repeats = if ctx.trace { TRACED_SETUPS } else { SETUPS };
    let (setup, mut setups) = set_up_times(ctx.seed, repeats, &mut log);
    let (refs, replayed, diverged) = references(&setup);
    if ctx.trace {
        return Ok(traced(ctx, &setup, &refs, replayed, diverged, log));
    }
    let p = timed_phase(&setup, &refs, 0, ctx.seconds, &mut log);
    let rss = crate::peak_rss_mb();
    let (lat, throughput) = window::summarize(&[&p.win], ctx.seconds);
    let notes = vec![
        format!(
            "grid steps {} ({} episodes) in {:.3} s, p90 has {} samples beyond it{}",
            p.steps,
            p.episodes,
            p.wall_s,
            stats::beyond(lat.kept.max(1), 90),
            if lat.p90_supported() { "" } else { ": TOO FEW" },
        ),
        window::describe(&p.win, ctx.seconds),
        format!("violations replayed {replayed}, diverged {diverged}"),
        cell_note(&p, &lat),
        crate::set_up_note(&setups),
    ];
    Ok(Outcome {
        attempted: p.episodes + replayed,
        failed: p.failed + diverged,
        metrics: crate::end_to_end(throughput, &lat, stats::median(&mut setups), rss),
        notes,
        spans: Vec::new(),
    })
}

/// Each grid cell's step-latency range, so a reader can see which cells
/// the p50 and p90 fall in.
fn cell_note(p: &Phase, lat: &Summary) -> String {
    let mut out = format!(
        "p50 {:.4} ms, p90 {:.4} ms; p5..p95 by grid cell:",
        lat.p50, lat.p90
    );
    for (spec, r) in grid().iter().zip(&p.by_cell) {
        let mut v = r.sample().to_vec();
        if v.is_empty() {
            continue;
        }
        stats::sort(&mut v);
        out += &format!(
            " [{} fail {} retry {}] {:.3}..{:.3};",
            spec.loss.label(),
            spec.node_failure_rate,
            spec.retry_budget,
            stats::percentile(&v, 5),
            stats::percentile(&v, 95)
        );
    }
    out
}

fn traced(
    ctx: &Ctx,
    setup: &Setup,
    refs: &[[CellOutcome; 2]],
    replayed: u64,
    diverged: u64,
    mut log: SpanLog,
) -> Outcome {
    let half = ctx.seconds / 2.0;
    let plain = timed_phase(
        setup,
        refs,
        0,
        half,
        &mut SpanLog::new(Instant::now(), false),
    );
    alloc::set_counting(true);
    let p = timed_phase(setup, refs, DISTINCT_STEPS / 2, half, &mut log);
    alloc::set_counting(false);

    let layers = log.open("layers", NO_PARENT, 0);
    // core and net: serial episodes at both scales under the first cell's
    // loss and retry budget.
    let mut rng = Rng::stream(ctx.seed, 8);
    let mut messages = [0u64; 2];
    for (k, (cfg, geometry, n, name)) in [
        (setup.paper, None, SERIAL_PAPER, "core.episode.paper"),
        (
            setup.starlink,
            Some(&setup.geometry),
            SERIAL_STARLINK,
            "core.episode.starlink",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let mut cfg = cfg;
        cfg.message_loss = 0.2;
        cfg.retry_budget = 2;
        let mut ep = Episode::new(&cfg, 0);
        if let Some(g) = geometry {
            ep = ep.with_geometry(g.clone());
        }
        let mut scratch = EpisodeScratch::new();
        for i in 0..n {
            let seed = rng.next_u64();
            let birth = cfg.theta + rng.uniform(0.0, cfg.theta);
            let duration = -(1.0 - rng.unit()).ln() / 0.2;
            let out = log.time(name, layers, i, || {
                ep.reset(&cfg, seed);
                ep.run_scratch(birth, duration, &mut scratch)
            });
            messages[k] += out.messages_sent;
        }
    }
    // exec: the same cell on one and on two workers, alternating.
    let (spec, seed) = setup.steps[0];
    for _ in 0..EFFICIENCY_REPS {
        for (workers, name) in [(1, "exec.cell.w1"), (WORKERS, "exec.cell.w2")] {
            let scenario = setup.paper_scenario(workers);
            log.time(name, layers, workers as u64, || {
                run_cell_scenario(&scenario, &spec, PAPER_EPISODES, seed)
            });
        }
    }
    log.close(layers);

    let spans = log.spans().to_vec();
    let p50 = |name: &str| trace::p50_us(&spans, name);
    let (w1, w2) = (p50("exec.cell.w1"), p50("exec.cell.w2"));
    // Messages per episode, weighted as a grid step weights the two scales.
    let per_step = (messages[0] as f64 / SERIAL_PAPER as f64 * PAPER_EPISODES as f64
        + messages[1] as f64 / SERIAL_STARLINK as f64 * STARLINK_EPISODES as f64)
        / (PAPER_EPISODES + STARLINK_EPISODES) as f64;
    let metrics = vec![
        ("core.paper_episode_us", p50("core.episode.paper")),
        ("core.starlink_episode_us", p50("core.episode.starlink")),
        ("net.messages_per_episode", per_step),
        (
            "core.allocs_per_episode",
            p.allocs as f64 / p.episodes.max(1) as f64,
        ),
        ("exec.parallel_efficiency", w1 / (WORKERS as f64 * w2)),
        ("exec.call_overhead_us", w2 - w1 / WORKERS as f64),
        ("orbit.geometry_ms", p50("orbit.geometry") / 1e3),
        (
            "trace.coverage",
            trace::coverage(&spans, &["campaign.step"]),
        ),
        (
            "trace.overhead_frac",
            1.0 - window::summarize(&[&p.win], half).1 / window::summarize(&[&plain.win], half).1,
        ),
    ];
    Outcome {
        attempted: plain.episodes + p.episodes + replayed,
        failed: plain.failed + p.failed + diverged,
        metrics,
        notes: vec![format!(
            "traced: grid steps {} untraced + {} traced, allocations {}",
            plain.steps, p.steps, p.allocs
        )],
        spans,
    }
}
