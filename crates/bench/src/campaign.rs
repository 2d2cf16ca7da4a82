//! Fault-injection campaign engine (experiment E15).
//!
//! Sweeps the OAQ protocol across a grid of fault mixes — i.i.d. and
//! bursty crosslink loss, random node failures (permanent and
//! crash-recovery), and reliable-delivery retry budgets — and tallies the
//! resulting degradation curves. Every episode's fault plan is derived
//! deterministically from `(cell, episode index)`, so a reported guarantee
//! violation can be replayed bit-for-bit from its seed; the campaign dumps
//! the full protocol trace of each violation for exactly that purpose.
//!
//! The invariant under test: *an episode whose detector stays alive
//! through `[t0, t0 + τ]` delivers at least the minimal-QoS (single
//! coverage) alert by τ*, whatever the fault mix does to quality.

use std::f64::consts::TAU;
use std::sync::{Mutex, PoisonError};

use oaq_core::config::{ProtocolConfig, Scheme};
use oaq_core::protocol::{Episode, EpisodeScratch};
use oaq_core::qos_level::{EpisodeOutcome, QosLevel};
use oaq_core::signal::CoverageGeometry;
use oaq_exec::{Executor, TARGET_CHUNKS};
use oaq_net::GilbertElliott;
use oaq_orbit::Preset;
use oaq_sim::par::{Merge, Replicator};
use oaq_sim::rng::substream_seed;
use oaq_sim::SimRng;

use crate::json::escape;

/// The loss process of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossAxis {
    /// Independent per-message loss with probability `p`.
    Iid {
        /// Loss probability, `[0, 1)`.
        p: f64,
    },
    /// Gilbert–Elliott bursty loss tuned to a marginal rate.
    Bursty {
        /// Long-run (stationary) loss probability.
        marginal: f64,
        /// Mean burst length, messages.
        burst_len: f64,
    },
}

impl LossAxis {
    /// The long-run fraction of messages lost — the cell's fault intensity
    /// along the loss axis.
    #[must_use]
    pub fn marginal(&self) -> f64 {
        match *self {
            LossAxis::Iid { p } => p,
            LossAxis::Bursty { marginal, .. } => marginal,
        }
    }

    /// Mean burst length (0 for i.i.d. loss).
    #[must_use]
    pub fn burst_len(&self) -> f64 {
        match *self {
            LossAxis::Iid { .. } => 0.0,
            LossAxis::Bursty { burst_len, .. } => burst_len,
        }
    }

    /// A short label for tables and JSON.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            LossAxis::Iid { p } => format!("iid({p})"),
            LossAxis::Bursty {
                marginal,
                burst_len,
            } => {
                format!("bursty({marginal},len={burst_len})")
            }
        }
    }

    fn apply(&self, cfg: &mut ProtocolConfig) {
        match *self {
            LossAxis::Iid { p } => cfg.message_loss = p,
            LossAxis::Bursty {
                marginal,
                burst_len,
            } => {
                // With loss_bad = 1 and a lossless good state the marginal
                // rate is π_bad = enter/(enter + 1/len), so
                // enter = m / (len (1 − m)).
                let enter = marginal / (burst_len * (1.0 - marginal));
                cfg.bursty_loss = Some(
                    GilbertElliott::bursts(enter, burst_len, 1.0)
                        .expect("campaign burst parameters in range"),
                );
            }
        }
    }
}

/// One cell of the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Crosslink loss process.
    pub loss: LossAxis,
    /// Probability each satellite independently receives a failure (half
    /// permanent fail-silent, half crash-recovery windows).
    pub node_failure_rate: f64,
    /// Reliable-delivery retry budget (0 = plain fire-and-forget).
    pub retry_budget: u32,
}

/// A replayable record of one guarantee violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Episode index within the cell.
    pub episode: u64,
    /// The exact simulator seed (fault plan = `seed + 1`'s stream).
    pub seed: u64,
    /// The detecting satellite that stayed alive yet missed τ.
    pub detector: usize,
    /// Debug rendering of the outcome.
    pub outcome: String,
    /// The full protocol trace, one rendered line per event.
    pub trace: Vec<String>,
}

/// Tallies of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The swept parameters.
    pub spec: CellSpec,
    /// Episodes simulated.
    pub episodes: u64,
    /// Episodes where the signal was detected at all.
    pub detected: u64,
    /// Detected episodes delivering by τ.
    pub timely: u64,
    /// Detected episodes reaching dual coverage or better.
    pub quality: u64,
    /// Detected episodes whose detector stayed alive through `[t0, t0+τ]`.
    pub live_detector: u64,
    /// Live-detector episodes delivering at least `Single` by τ.
    pub live_detector_timely: u64,
    /// Live-detector episodes that missed the guarantee (should be empty).
    pub violations: Vec<Violation>,
}

impl CellOutcome {
    /// Fraction of detected episodes reaching dual coverage or better.
    #[must_use]
    pub fn quality_frac(&self) -> f64 {
        if self.detected == 0 {
            0.0
        } else {
            self.quality as f64 / self.detected as f64
        }
    }

    /// Fraction of detected episodes delivering by τ.
    #[must_use]
    pub fn timely_frac(&self) -> f64 {
        if self.detected == 0 {
            1.0
        } else {
            self.timely as f64 / self.detected as f64
        }
    }

    /// Fraction of live-detector episodes meeting the by-τ guarantee.
    #[must_use]
    pub fn guarantee_frac(&self) -> f64 {
        if self.live_detector == 0 {
            1.0
        } else {
            self.live_detector_timely as f64 / self.live_detector as f64
        }
    }
}

/// Mixes an episode index into the campaign seed (splitmix-style).
///
/// Delegates to the simulator's counter-based substream derivation
/// ([`oaq_sim::rng::substream_seed`]), which uses the identical mixing
/// function this module originally shipped with — every seed recorded in a
/// published violation report stays replayable bit-for-bit.
#[must_use]
pub fn episode_seed(base: u64, episode: u64) -> u64 {
    substream_seed(base, episode)
}

/// The failure plan drawn for one episode: `(sat, from, until)`, with
/// `until = None` for permanent fail-silence.
type FailurePlan = Vec<(usize, f64, Option<f64>)>;

fn draw_plan(
    cfg: &ProtocolConfig,
    rate: f64,
    birth: f64,
    rng: &mut SimRng,
    plan: &mut FailurePlan,
) {
    plan.clear();
    for sat in 0..cfg.k {
        if !rng.chance(rate) {
            continue;
        }
        let from = rng.uniform(0.0, birth + cfg.tau);
        if rng.chance(0.5) {
            plan.push((sat, from, None));
        } else {
            // Crash-recovery: down for an Exp(0.2) window (mean 5 min).
            let len = rng.exp(0.2).max(1e-3);
            plan.push((sat, from, Some(from + len)));
        }
    }
}

fn apply_plan(mut ep: Episode, plan: &FailurePlan) -> Episode {
    for &(sat, from, until) in plan {
        ep = match until {
            None => ep.with_failure(sat, from),
            Some(u) => ep.with_failure_window(sat, from, u),
        };
    }
    ep
}

/// `true` when the plan leaves `sat` untouched over `[t0, t0 + tau]`.
fn stays_alive(plan: &FailurePlan, sat: usize, t0: f64, tau: f64) -> bool {
    plan.iter()
        .all(|&(s, from, until)| s != sat || from > t0 + tau || until.is_some_and(|u| u <= t0))
}

/// The protocol configuration of one campaign cell (reference k = 10
/// plane with the cell's fault mix applied).
fn cell_config(spec: &CellSpec) -> ProtocolConfig {
    cell_config_from(&ProtocolConfig::reference(10, Scheme::Oaq), spec)
}

/// Applies one cell's fault mix on top of an arbitrary base scenario —
/// the generalization behind [`cell_config`] that lets a campaign sweep a
/// Walker-preset mega-constellation instead of the reference plane.
fn cell_config_from(base: &ProtocolConfig, spec: &CellSpec) -> ProtocolConfig {
    let mut cfg = *base;
    spec.loss.apply(&mut cfg);
    cfg.retry_budget = spec.retry_budget;
    cfg.retry_timeout = 0.25;
    cfg.validate();
    cfg
}

/// The constellation a campaign runs against plus how its episodes are
/// spread: a base protocol configuration (each cell's fault mix is applied
/// on top), an optional explicit coverage geometry for non-reference
/// constellations (e.g. a Walker/Starlink preset), and the [`Executor`].
/// [`run_cell_fanout`] is the reference-plane shorthand for it.
#[derive(Debug, Clone, Copy)]
pub struct Scenario<'a> {
    /// Base protocol configuration (fault-free; cells overlay their mix).
    pub base: &'a ProtocolConfig,
    /// Explicit coverage geometry, `None` = derive from `base` (reference
    /// evenly-spaced plane).
    pub geometry: Option<&'a CoverageGeometry>,
    /// Workers, chunk override and steal stressor; none of them can change
    /// an outcome — that is the contract the invariance tests pin down.
    pub exec: Executor,
}

impl<'a> Scenario<'a> {
    /// A scenario over `base` fanned out on `exec` (a bare worker count
    /// converts, `0` = one per core).
    #[must_use]
    pub fn new(base: &'a ProtocolConfig, exec: impl Into<Executor>) -> Self {
        Scenario {
            base,
            geometry: None,
            exec: exec.into(),
        }
    }

    /// Attaches an explicit coverage geometry (Walker presets etc.).
    #[must_use]
    pub fn with_geometry(mut self, geometry: &'a CoverageGeometry) -> Self {
        self.geometry = Some(geometry);
        self
    }
}

/// The Starlink shell-1 coverage geometry: satellite `(p, s)` (node
/// `p·S + s`) reaches the target `θ·phase/2π` minutes into the period,
/// where `phase` is the Walker builder's phase convention
/// (`2π·F·p/T + 2π·s/S`).
#[must_use]
pub fn starlink_geometry() -> CoverageGeometry {
    let w = Preset::Starlink.config();
    let total = w.total_satellites();
    let theta = w.period.value();
    let offsets: Vec<f64> = (0..w.planes)
        .flat_map(|p| (0..w.satellites_per_plane).map(move |s| (p, s)))
        .map(|(p, s)| {
            let phase = (TAU * (w.phasing_factor * p) as f64 / total as f64
                + TAU * s as f64 / w.satellites_per_plane as f64)
                % TAU;
            theta * phase / TAU
        })
        .collect();
    CoverageGeometry::with_offsets(offsets, theta, w.coverage_time.value())
}

/// Derives episode `i`'s `(seed, birth, duration, fault plan)` from the
/// campaign seed alone — the single code path behind the serial loop, the
/// parallel fan-out, and violation replay.
fn episode_setup(
    cfg: &ProtocolConfig,
    spec: &CellSpec,
    base_seed: u64,
    i: u64,
) -> (u64, f64, f64, FailurePlan) {
    let mut plan = Vec::new();
    let (seed, birth, duration) = episode_setup_into(cfg, spec, base_seed, i, &mut plan);
    (seed, birth, duration, plan)
}

/// [`episode_setup`] writing the fault plan into a recycled buffer, so the
/// campaign hot loop draws each episode's plan without allocating.
fn episode_setup_into(
    cfg: &ProtocolConfig,
    spec: &CellSpec,
    base_seed: u64,
    i: u64,
    plan: &mut FailurePlan,
) -> (u64, f64, f64) {
    let seed = episode_seed(base_seed, i);
    // The fault plan draws from an offset stream so it stays
    // independent of (but reproducible with) the episode's own RNG.
    let mut plan_rng = SimRng::seed_from(seed.wrapping_add(1));
    let birth = cfg.theta + plan_rng.uniform(0.0, cfg.theta);
    let duration = plan_rng.exp(0.2);
    draw_plan(cfg, spec.node_failure_rate, birth, &mut plan_rng, plan);
    (seed, birth, duration)
}

/// Per-chunk campaign tallies; all-integer plus an order-preserving
/// violation list, so the parallel reduction is exact.
#[derive(Debug, Clone, Default)]
struct CellSink {
    detected: u64,
    timely: u64,
    quality: u64,
    live_detector: u64,
    live_detector_timely: u64,
    violations: Vec<Violation>,
}

impl Merge for CellSink {
    fn merge(&mut self, other: &Self) {
        self.detected.merge(&other.detected);
        self.timely.merge(&other.timely);
        self.quality.merge(&other.quality);
        self.live_detector.merge(&other.live_detector);
        self.live_detector_timely.merge(&other.live_detector_timely);
        self.violations.merge(&other.violations);
    }
}

impl CellSink {
    fn into_outcome(self, spec: &CellSpec, episodes: u64) -> CellOutcome {
        CellOutcome {
            spec: *spec,
            episodes,
            detected: self.detected,
            timely: self.timely,
            quality: self.quality,
            live_detector: self.live_detector,
            live_detector_timely: self.live_detector_timely,
            violations: self.violations,
        }
    }
}

/// Per-worker campaign scratch: the core episode buffers plus a recycled
/// [`Episode`] (keeping its shared geometry and fault-list capacity) and
/// the drawn fault plan. A worker borrows one from [`SCRATCH_POOL`] for
/// the length of a call, so only the first calls of a process build the
/// topology, attach the geometry and grow the buffers; later episodes
/// allocate only when one outgrows them (a longer fault plan, a deeper
/// event queue) or records a violation.
#[derive(Default)]
struct CellScratch {
    scratch: EpisodeScratch,
    episode: Option<Episode>,
    plan: FailurePlan,
    /// The satellite count of the last cell this scratch ran, so a
    /// borrower can prefer a scratch whose cached topology fits.
    k: usize,
}

/// Most spare [`CellScratch`]es kept between calls: two cell shapes (a
/// paper-scale and a mega-constellation cell, say) on up to four workers.
const POOL_CAP: usize = 8;

/// Spare cell scratch, oldest first, returned by each worker's
/// [`PooledScratch`] when its call ends. Scratch is capacity, not state
/// (the `EpisodeScratch` statics check decides whether a cached topology
/// is reused), so which spare a worker gets never shows in an outcome.
/// Every update is one `remove` or `push`, so a lock poisoned by a
/// panicking holder still guards a valid list and is recovered.
static SCRATCH_POOL: Mutex<Vec<CellScratch>> = Mutex::new(Vec::new());

/// One worker's borrowed [`CellScratch`]; dropping it hands the scratch
/// back to [`SCRATCH_POOL`].
struct PooledScratch(CellScratch);

impl PooledScratch {
    /// Borrows the newest spare whose last cell had `k` satellites, else
    /// a fresh scratch: taking another shape's spare would only make the
    /// next call of that shape rebuild its topology in turn. The spare
    /// keeps its episode only if that episode's geometry equals
    /// `geometry`, so a later call on the same geometry neither clones it
    /// nor builds a new episode.
    fn borrow(k: usize, geometry: Option<&CoverageGeometry>) -> Self {
        let mut pool = SCRATCH_POOL.lock().unwrap_or_else(PoisonError::into_inner);
        let spare = pool.iter().rposition(|c| c.k == k).map(|i| pool.remove(i));
        drop(pool);
        let mut cell = spare.unwrap_or_default();
        cell.k = k;
        if cell
            .episode
            .as_ref()
            .is_some_and(|ep| ep.geometry() != geometry)
        {
            cell.episode = None;
        }
        PooledScratch(cell)
    }
}

impl Drop for PooledScratch {
    fn drop(&mut self) {
        // A scratch unwinding from a panic may be mid-episode: drop it.
        if std::thread::panicking() {
            return;
        }
        let cell = std::mem::take(&mut self.0);
        let mut pool = SCRATCH_POOL.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() == POOL_CAP {
            pool.remove(0);
        }
        pool.push(cell);
    }
}

/// Runs episode `i` of a cell on the untraced fast path and tallies it.
///
/// Tracing is only needed for the (normally empty) violation set, so the
/// hot loop skips it entirely; a violating episode is re-run traced from
/// its recorded seed — bit-identical by construction — to capture the
/// replayable record.
fn run_episode(
    cfg: &ProtocolConfig,
    geometry: Option<&CoverageGeometry>,
    spec: &CellSpec,
    base_seed: u64,
    i: u64,
    cell: &mut CellScratch,
    sink: &mut CellSink,
) {
    let CellScratch {
        scratch,
        episode,
        plan,
        ..
    } = cell;
    let (seed, birth, duration) = episode_setup_into(cfg, spec, base_seed, i, plan);
    // One `Episode` per worker, re-armed in place each iteration: its
    // geometry and fault lists persist across episodes.
    let ep = episode.get_or_insert_with(|| build_episode(cfg, geometry, seed));
    ep.reset(cfg, seed);
    for &(sat, from, until) in plan.iter() {
        match until {
            None => ep.add_failure(sat, from),
            Some(u) => ep.add_failure_window(sat, from, u),
        }
    }
    let result = ep.run_scratch(birth, duration, scratch);
    let (Some(t0), Some(detector)) = (result.detected_at, result.detector) else {
        return;
    };
    sink.detected += 1;
    if result.deadline_met {
        sink.timely += 1;
    }
    if result.level >= QosLevel::SequentialDual {
        sink.quality += 1;
    }
    if stays_alive(plan, detector, t0, cfg.tau) {
        sink.live_detector += 1;
        let guaranteed = result.deadline_met && result.level >= QosLevel::Single;
        if guaranteed {
            sink.live_detector_timely += 1;
        } else {
            let (replayed, trace) = replay_with(cfg, geometry, spec, base_seed, i);
            debug_assert_eq!(
                replayed, result,
                "traced replay must agree with the fast path"
            );
            sink.violations.push(Violation {
                episode: i,
                seed,
                detector,
                outcome: format!("{result:?}"),
                trace,
            });
        }
    }
}

/// Builds the episode for one cell run, attaching the scenario's explicit
/// geometry when it has one.
fn build_episode(cfg: &ProtocolConfig, geometry: Option<&CoverageGeometry>, seed: u64) -> Episode {
    let ep = Episode::new(cfg, seed);
    match geometry {
        Some(g) => ep.with_geometry(g.clone()),
        None => ep,
    }
}

/// Re-runs one campaign episode with full tracing enabled.
///
/// This is the replay path behind every [`Violation`] record: the episode
/// is reconstructed purely from `(scenario, spec, base_seed, episode)` —
/// the cell config is rebuilt from `scenario.base` and the scenario's
/// geometry (if any) is re-attached — so a violation reported by any past
/// campaign run, serial or parallel, reference plane or
/// mega-constellation, can be reproduced bit-for-bit, trace and all.
#[must_use]
pub fn replay_episode_scenario(
    scenario: &Scenario<'_>,
    spec: &CellSpec,
    base_seed: u64,
    episode: u64,
) -> (EpisodeOutcome, Vec<String>) {
    replay_with(
        &cell_config_from(scenario.base, spec),
        scenario.geometry,
        spec,
        base_seed,
        episode,
    )
}

fn replay_with(
    cfg: &ProtocolConfig,
    geometry: Option<&CoverageGeometry>,
    spec: &CellSpec,
    base_seed: u64,
    episode: u64,
) -> (EpisodeOutcome, Vec<String>) {
    let (seed, birth, duration, plan) = episode_setup(cfg, spec, base_seed, episode);
    let ep = apply_plan(build_episode(cfg, geometry, seed), &plan);
    let (result, trace) = ep.run_traced(birth, duration);
    (result, trace.iter().map(ToString::to_string).collect())
}

/// Runs one campaign cell: `episodes` episodes of the reference k = 10
/// plane under the cell's fault mix, signal births spread over a full
/// orbit period, durations Exp(0.2), fanned out on `exec` (a bare worker
/// count converts, `0` = one per core).
///
/// Every tally is an integer and the violation list concatenates in
/// episode order, so the outcome is bit-identical for any worker count
/// and chunk size — including the one-worker serial path.
#[must_use]
pub fn run_cell_fanout(
    spec: &CellSpec,
    episodes: u64,
    base_seed: u64,
    exec: impl Into<Executor>,
) -> CellOutcome {
    let base = ProtocolConfig::reference(10, Scheme::Oaq);
    run_cell_scenario(&Scenario::new(&base, exec), spec, episodes, base_seed)
}

/// Runs one campaign cell against an arbitrary [`Scenario`] — any base
/// configuration and coverage geometry (Walker presets included), any
/// worker/chunk/forced-steal mix. Per-worker [`EpisodeScratch`], kept
/// across calls, keeps the episode hot loop allocation-free; the outcome
/// is bit-identical across every scheduling configuration.
///
/// Without a pinned chunk the cell is cut into about
/// [`TARGET_CHUNKS`] chunks with no floor: the sink's merge is exact, so
/// the chunk size cannot change the outcome, and a short cell of long
/// episodes (50 Starlink episodes) still splits evenly across workers.
///
/// # Panics
///
/// Panics on an invalid base config.
#[must_use]
pub fn run_cell_scenario(
    scenario: &Scenario<'_>,
    spec: &CellSpec,
    episodes: u64,
    base_seed: u64,
) -> CellOutcome {
    let cfg = cell_config_from(scenario.base, spec);
    let geometry = scenario.geometry;
    let exec = match scenario.exec.chunk_override() {
        Some(_) => scenario.exec,
        None => scenario
            .exec
            .with_chunk(Some(episodes.div_ceil(TARGET_CHUNKS).max(1))),
    };
    // The engine's substream rng is deliberately unused: the campaign's
    // episode-seed scheme predates the replication engine and recorded
    // violation seeds must stay replayable, so episodes re-derive their
    // streams from `episode_seed` (the same mixing function) instead.
    let sink = Replicator::new(exec).run_scratch(
        episodes,
        base_seed,
        CellSink::default,
        || PooledScratch::borrow(cfg.k, geometry),
        |i, _rng, scratch, sink| {
            run_episode(&cfg, geometry, spec, base_seed, i, &mut scratch.0, sink);
        },
    );
    sink.into_outcome(spec, episodes)
}

/// Legacy always-traced serial cell runner, kept as the baseline the
/// `mc_replication` bench measures the untraced fast path against.
#[must_use]
pub fn run_cell_traced_baseline(spec: &CellSpec, episodes: u64, base_seed: u64) -> CellOutcome {
    let cfg = cell_config(spec);
    let mut sink = CellSink::default();
    for i in 0..episodes {
        let (seed, birth, duration, plan) = episode_setup(&cfg, spec, base_seed, i);
        let ep = apply_plan(Episode::new(&cfg, seed), &plan);
        let (result, trace) = ep.run_traced(birth, duration);
        let (Some(t0), Some(detector)) = (result.detected_at, result.detector) else {
            continue;
        };
        sink.detected += 1;
        if result.deadline_met {
            sink.timely += 1;
        }
        if result.level >= QosLevel::SequentialDual {
            sink.quality += 1;
        }
        if stays_alive(&plan, detector, t0, cfg.tau) {
            sink.live_detector += 1;
            if result.deadline_met && result.level >= QosLevel::Single {
                sink.live_detector_timely += 1;
            } else {
                sink.violations.push(Violation {
                    episode: i,
                    seed,
                    detector,
                    outcome: format!("{result:?}"),
                    trace: trace.iter().map(ToString::to_string).collect(),
                });
            }
        }
    }
    sink.into_outcome(spec, episodes)
}

/// A grid sink: one [`CellSink`] slot per cell, merged elementwise (the
/// blanket `Vec` impl concatenates, which is not what a fixed-size grid
/// wants).
struct GridSink(Vec<CellSink>);

impl Merge for GridSink {
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.merge(b);
        }
    }
}

/// Runs a whole campaign grid of reference-plane cells through one
/// two-level fan-out: the engine partitions the flattened
/// `cells × episodes` index space in chunks (adaptive unless `exec` pins
/// one), so workers stay busy even when cells outnumber episodes or vice
/// versa.
///
/// Each cell's outcome is bit-identical to [`run_cell_fanout`] on that
/// cell (same per-episode seeds, same episode-ordered violation list), and
/// the whole grid is bit-identical for any worker count.
#[must_use]
pub fn run_grid_fanout(
    specs: &[CellSpec],
    episodes: u64,
    base_seed: u64,
    exec: impl Into<Executor>,
) -> Vec<CellOutcome> {
    let base = ProtocolConfig::reference(10, Scheme::Oaq);
    run_grid_scenario(&Scenario::new(&base, exec), specs, episodes, base_seed)
}

/// [`run_grid_fanout`] against an arbitrary [`Scenario`]. Each cell's
/// outcome is bit-identical to [`run_cell_scenario`] on that cell, for any
/// worker count, chunk size, or steal schedule.
///
/// # Panics
///
/// Panics on an invalid base config.
#[must_use]
pub fn run_grid_scenario(
    scenario: &Scenario<'_>,
    specs: &[CellSpec],
    episodes: u64,
    base_seed: u64,
) -> Vec<CellOutcome> {
    if episodes == 0 {
        return specs
            .iter()
            .map(|spec| CellSink::default().into_outcome(spec, 0))
            .collect();
    }
    let cfgs: Vec<ProtocolConfig> = specs
        .iter()
        .map(|spec| cell_config_from(scenario.base, spec))
        .collect();
    let geometry = scenario.geometry;
    let total = specs.len() as u64 * episodes;
    let sink = Replicator::new(scenario.exec).run_scratch(
        total,
        base_seed,
        || GridSink(vec![CellSink::default(); specs.len()]),
        || PooledScratch::borrow(scenario.base.k, geometry),
        |g, _rng, scratch, sink| {
            let c = (g / episodes) as usize;
            let i = g % episodes;
            run_episode(
                &cfgs[c],
                geometry,
                &specs[c],
                base_seed,
                i,
                &mut scratch.0,
                &mut sink.0[c],
            );
        },
    );
    sink.0
        .into_iter()
        .zip(specs)
        .map(|(s, spec)| s.into_outcome(spec, episodes))
        .collect()
}

fn cell_json(c: &CellOutcome) -> String {
    let violations: Vec<String> = c
        .violations
        .iter()
        .map(|v| {
            let trace: Vec<String> = v
                .trace
                .iter()
                .map(|l| format!("\"{}\"", escape(l)))
                .collect();
            format!(
                "{{\"episode\":{},\"seed\":{},\"detector\":{},\"outcome\":\"{}\",\"trace\":[{}]}}",
                v.episode,
                v.seed,
                v.detector,
                escape(&v.outcome),
                trace.join(",")
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"loss\":\"{}\",\"marginal_loss\":{},\"burst_len\":{},",
            "\"node_failure_rate\":{},\"retry_budget\":{},\"episodes\":{},",
            "\"detected\":{},\"timely_frac\":{:.6},\"quality_frac\":{:.6},",
            "\"live_detector\":{},\"guarantee_frac\":{:.6},\"violations\":[{}]}}"
        ),
        c.spec.loss.label(),
        c.spec.loss.marginal(),
        c.spec.loss.burst_len(),
        c.spec.node_failure_rate,
        c.spec.retry_budget,
        c.episodes,
        c.detected,
        c.timely_frac(),
        c.quality_frac(),
        c.live_detector,
        c.guarantee_frac(),
        violations.join(",")
    )
}

/// Serializes a finished campaign as one JSON document: the raw cells plus
/// degradation curves (quality and timeliness vs marginal loss) grouped by
/// `(node_failure_rate, retry_budget)` and ordered by fault intensity.
#[must_use]
pub fn campaign_json(cells: &[CellOutcome], base_seed: u64, episodes: u64) -> String {
    let cell_docs: Vec<String> = cells.iter().map(cell_json).collect();

    let mut groups: Vec<(f64, u32)> = cells
        .iter()
        .map(|c| (c.spec.node_failure_rate, c.spec.retry_budget))
        .collect();
    groups.dedup();
    groups.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    groups.dedup();
    let curves: Vec<String> = groups
        .iter()
        .map(|&(rate, budget)| {
            let mut pts: Vec<&CellOutcome> = cells
                .iter()
                .filter(|c| {
                    c.spec.node_failure_rate == rate && c.spec.retry_budget == budget
                })
                .collect();
            pts.sort_by(|a, b| {
                (a.spec.loss.marginal(), a.spec.loss.burst_len())
                    .partial_cmp(&(b.spec.loss.marginal(), b.spec.loss.burst_len()))
                    .expect("finite")
            });
            let points: Vec<String> = pts
                .iter()
                .map(|c| {
                    format!(
                        "{{\"intensity\":{},\"burst_len\":{},\"quality\":{:.6},\"timely\":{:.6},\"guarantee\":{:.6}}}",
                        c.spec.loss.marginal(),
                        c.spec.loss.burst_len(),
                        c.quality_frac(),
                        c.timely_frac(),
                        c.guarantee_frac()
                    )
                })
                .collect();
            format!(
                "{{\"node_failure_rate\":{rate},\"retry_budget\":{budget},\"points\":[{}]}}",
                points.join(",")
            )
        })
        .collect();

    let total_violations: usize = cells.iter().map(|c| c.violations.len()).sum();
    format!(
        concat!(
            "{{\"experiment\":\"robustness-campaign\",\"base_seed\":{},",
            "\"episodes_per_cell\":{},\"total_violations\":{},",
            "\"cells\":[{}],\"degradation_curves\":[{}]}}"
        ),
        base_seed,
        episodes,
        total_violations,
        cell_docs.join(","),
        curves.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_seeds_are_stable_and_spread() {
        let a = episode_seed(42, 0);
        let b = episode_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, episode_seed(42, 0), "must be a pure function");
    }

    #[test]
    fn bursty_axis_hits_its_marginal() {
        let axis = LossAxis::Bursty {
            marginal: 0.2,
            burst_len: 5.0,
        };
        let mut cfg = ProtocolConfig::reference(10, Scheme::Oaq);
        axis.apply(&mut cfg);
        let ge = cfg.bursty_loss.expect("bursty set");
        assert!((ge.stationary_loss() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn cells_are_reproducible() {
        let spec = CellSpec {
            loss: LossAxis::Iid { p: 0.2 },
            node_failure_rate: 0.2,
            retry_budget: 1,
        };
        let a = run_cell_fanout(&spec, 60, 7, 1);
        let b = run_cell_fanout(&spec, 60, 7, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_never_changes_a_cell() {
        let spec = CellSpec {
            loss: LossAxis::Bursty {
                marginal: 0.3,
                burst_len: 4.0,
            },
            node_failure_rate: 0.3,
            retry_budget: 1,
        };
        let reference = run_cell_fanout(&spec, 120, 11, 1);
        for workers in [2, 4] {
            let par = run_cell_fanout(&spec, 120, 11, workers);
            assert_eq!(par, reference);
        }
    }

    #[test]
    fn chunk_override_never_changes_a_cell() {
        let spec = CellSpec {
            loss: LossAxis::Iid { p: 0.2 },
            node_failure_rate: 0.2,
            retry_budget: 1,
        };
        let reference = run_cell_fanout(&spec, 120, 11, 1);
        for chunk in [1u64, 7, 64, 1000] {
            let out = run_cell_fanout(&spec, 120, 11, Executor::new(2).with_chunk(Some(chunk)));
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn forced_steals_never_change_a_cell() {
        let spec = CellSpec {
            loss: LossAxis::Bursty {
                marginal: 0.3,
                burst_len: 4.0,
            },
            node_failure_rate: 0.3,
            retry_budget: 1,
        };
        let reference = run_cell_fanout(&spec, 120, 11, 1);
        let base = ProtocolConfig::reference(10, Scheme::Oaq);
        for workers in [2, 4] {
            for chunk in [None, Some(16u64), Some(7)] {
                let stressed = run_cell_scenario(
                    &Scenario::new(
                        &base,
                        Executor::new(workers)
                            .with_chunk(chunk)
                            .with_forced_steals(true),
                    ),
                    &spec,
                    120,
                    11,
                );
                assert_eq!(stressed, reference);
            }
        }
    }

    #[test]
    fn scenario_geometry_changes_outcomes_but_stays_deterministic() {
        // A staggered two-plane geometry is a different constellation, so
        // the tallies differ from the reference plane — but the scenario
        // path keeps its own bit-identity across scheduling configs and
        // its violations replay through `replay_episode_scenario`.
        let spec = CellSpec {
            loss: LossAxis::Iid { p: 0.2 },
            node_failure_rate: 0.2,
            retry_budget: 1,
        };
        let base = ProtocolConfig::reference(10, Scheme::Oaq);
        let geom = CoverageGeometry::with_offsets(
            vec![0.0, 9.0, 18.0, 27.0, 36.0, 45.0, 54.0, 63.0, 72.0, 81.0],
            base.theta,
            base.tc,
        );
        let scenario = Scenario::new(&base, 1).with_geometry(&geom);
        let a = run_cell_scenario(&scenario, &spec, 80, 7);
        let b = run_cell_scenario(
            &Scenario::new(
                &base,
                Executor::new(4)
                    .with_chunk(Some(5))
                    .with_forced_steals(true),
            )
            .with_geometry(&geom),
            &spec,
            80,
            7,
        );
        assert_eq!(a, b);
        let (out_a, trace_a) = replay_episode_scenario(&scenario, &spec, 7, 3);
        let (out_b, trace_b) = replay_episode_scenario(&scenario, &spec, 7, 3);
        assert_eq!(out_a, out_b);
        assert_eq!(trace_a, trace_b);
    }

    #[test]
    fn grid_matches_per_cell_runs() {
        let specs = [
            CellSpec {
                loss: LossAxis::Iid { p: 0.0 },
                node_failure_rate: 0.0,
                retry_budget: 0,
            },
            CellSpec {
                loss: LossAxis::Iid { p: 0.3 },
                node_failure_rate: 0.25,
                retry_budget: 2,
            },
            CellSpec {
                loss: LossAxis::Bursty {
                    marginal: 0.2,
                    burst_len: 5.0,
                },
                node_failure_rate: 0.1,
                retry_budget: 1,
            },
        ];
        let grid = run_grid_fanout(&specs, 70, 42, 2);
        assert_eq!(grid.len(), specs.len());
        for (cell, spec) in grid.iter().zip(&specs) {
            let solo = run_cell_fanout(spec, 70, 42, 1);
            assert_eq!(cell, &solo);
        }
    }

    #[test]
    fn fast_path_matches_traced_baseline() {
        let spec = CellSpec {
            loss: LossAxis::Iid { p: 0.35 },
            node_failure_rate: 0.4,
            retry_budget: 1,
        };
        let fast = run_cell_fanout(&spec, 150, 5, 1);
        let traced = run_cell_traced_baseline(&spec, 150, 5);
        assert_eq!(fast, traced);
    }

    /// The Starlink shell-1 protocol configuration matching
    /// [`starlink_geometry`].
    fn starlink_base() -> ProtocolConfig {
        let walker = Preset::Starlink.config();
        let mut starlink = ProtocolConfig::reference(walker.total_satellites(), Scheme::Oaq);
        starlink.theta = walker.period.value();
        starlink.tc = walker.coverage_time.value();
        starlink
    }

    /// FNV-1a over the `Debug` rendering (which round-trips every `f64`)
    /// of each episode outcome of one cell, run serially on one scratch.
    fn outcome_digest(
        cfg: &ProtocolConfig,
        geometry: Option<&CoverageGeometry>,
        spec: &CellSpec,
        base_seed: u64,
        episodes: u64,
    ) -> u64 {
        let mut scratch = EpisodeScratch::new();
        let mut rendered = String::new();
        for i in 0..episodes {
            let (seed, birth, duration, plan) = episode_setup(cfg, spec, base_seed, i);
            let ep = apply_plan(build_episode(cfg, geometry, seed), &plan);
            rendered.push_str(&format!(
                "{:?}\n",
                ep.run_scratch(birth, duration, &mut scratch)
            ));
        }
        oaq_serve::snapshot::fnv1a64(rendered.as_bytes())
    }

    #[test]
    fn campaign_grid_matches_golden_values() {
        // Recorded from the linear-scan coverage kernel, the link-by-link
        // topology build and per-episode loss-state maps: the range-query
        // kernel, the row-built topology and the recycled maps must
        // reproduce every tally and every episode outcome of the 8-cell
        // campaign grid, at 1 and 2 workers. The Starlink outcomes do not
        // depend on the loss process (equal digests along the loss axis),
        // so the paper cells are what exercise the bursty-loss maps.
        // Columns: detected, timely, quality, live_detector,
        // live_detector_timely, violations, per-episode outcome digest.
        type Golden = (u64, u64, u64, u64, u64, usize, u64);
        const STARLINK: [Golden; 8] = [
            (50, 50, 50, 50, 50, 0, 677_449_534_033_234_894),
            (50, 50, 50, 50, 50, 0, 677_449_534_033_234_894),
            (50, 50, 50, 49, 49, 0, 1_673_358_317_337_853_878),
            (50, 50, 50, 49, 49, 0, 1_673_358_317_337_853_878),
            (50, 50, 50, 50, 50, 0, 677_449_534_033_234_894),
            (50, 50, 50, 50, 50, 0, 677_449_534_033_234_894),
            (50, 50, 50, 49, 49, 0, 1_673_358_317_337_853_878),
            (50, 50, 50, 49, 49, 0, 1_673_358_317_337_853_878),
        ];
        const PAPER: [Golden; 8] = [
            (50, 50, 18, 50, 50, 0, 12_344_428_306_689_004_864),
            (50, 50, 19, 50, 50, 0, 10_739_410_564_053_771_316),
            (50, 50, 17, 50, 50, 0, 13_615_432_590_722_557_382),
            (50, 50, 18, 50, 50, 0, 11_335_355_857_393_771_591),
            (50, 50, 18, 50, 50, 0, 12_344_428_306_689_004_864),
            (50, 50, 19, 50, 50, 0, 6_665_941_963_615_866_167),
            (50, 50, 17, 50, 50, 0, 7_222_451_229_895_147_979),
            (50, 50, 18, 50, 50, 0, 4_220_415_798_229_192_506),
        ];
        let starlink = starlink_base();
        let paper = ProtocolConfig::reference(10, Scheme::Oaq);
        let geom = starlink_geometry();
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
        for (base, geometry, golden) in [(&starlink, Some(&geom), STARLINK), (&paper, None, PAPER)]
        {
            for (spec, want) in cells.iter().zip(golden) {
                let cfg = cell_config_from(base, spec);
                let digest = outcome_digest(&cfg, geometry, spec, 2026, 50);
                for workers in [1, 2] {
                    let mut scenario = Scenario::new(base, workers);
                    scenario.geometry = geometry;
                    let c = run_cell_scenario(&scenario, spec, 50, 2026);
                    let got = (
                        c.detected,
                        c.timely,
                        c.quality,
                        c.live_detector,
                        c.live_detector_timely,
                        c.violations.len(),
                        digest,
                    );
                    assert_eq!(c.episodes, 50);
                    assert_eq!(got, want, "k = {}, {spec:?}, {workers} workers", cfg.k);
                }
            }
        }
    }

    #[test]
    fn recycled_episode_matches_a_fresh_one() {
        // The campaign re-arms one `Episode` per worker in place
        // (`reset` + `add_failure*` + `run_scratch`); that must return
        // exactly what a freshly built episode returns, at paper scale and
        // at Starlink scale with explicit geometry.
        let paper = ProtocolConfig::reference(9, Scheme::Oaq);
        let starlink = starlink_base();
        let starlink_geom = starlink_geometry();
        for (base, geometry, failure_rate) in
            [(&paper, None, 0.3), (&starlink, Some(&starlink_geom), 0.02)]
        {
            let spec = CellSpec {
                loss: LossAxis::Iid { p: 0.3 },
                node_failure_rate: failure_rate,
                retry_budget: 1,
            };
            let cfg = cell_config_from(base, &spec);
            let mut scratch = EpisodeScratch::default();
            let mut recycled: Option<Episode> = None;
            let (mut detected, mut failed) = (0, 0);
            for i in 0..200 {
                let (seed, birth, duration, plan) = episode_setup(&cfg, &spec, 21, i);
                let fresh =
                    apply_plan(build_episode(&cfg, geometry, seed), &plan).run(birth, duration);
                let ep = recycled.get_or_insert_with(|| build_episode(&cfg, geometry, seed));
                ep.reset(&cfg, seed);
                for &(sat, from, until) in &plan {
                    match until {
                        None => ep.add_failure(sat, from),
                        Some(u) => ep.add_failure_window(sat, from, u),
                    }
                }
                let reused = ep.run_scratch(birth, duration, &mut scratch);
                assert_eq!(reused, fresh, "k = {}, episode {i}", cfg.k);
                detected += u32::from(fresh.detected_at.is_some());
                failed += u32::from(!plan.is_empty());
            }
            assert!(detected > 0 && failed > 0, "k = {}: vacuous probe", cfg.k);
        }
    }

    /// One cell rebuilt from fresh `Episode`s, each run on its own fresh
    /// scratch: the oracle the pooled, recycled path must reproduce.
    fn fresh_cell(
        cfg: &ProtocolConfig,
        geometry: Option<&CoverageGeometry>,
        spec: &CellSpec,
        base_seed: u64,
        episodes: u64,
    ) -> CellOutcome {
        let mut sink = CellSink::default();
        for i in 0..episodes {
            let (seed, birth, duration, plan) = episode_setup(cfg, spec, base_seed, i);
            let result = apply_plan(build_episode(cfg, geometry, seed), &plan).run(birth, duration);
            let (Some(t0), Some(detector)) = (result.detected_at, result.detector) else {
                continue;
            };
            sink.detected += 1;
            sink.timely += u64::from(result.deadline_met);
            sink.quality += u64::from(result.level >= QosLevel::SequentialDual);
            if stays_alive(&plan, detector, t0, cfg.tau) {
                sink.live_detector += 1;
                if result.deadline_met && result.level >= QosLevel::Single {
                    sink.live_detector_timely += 1;
                } else {
                    sink.violations.push(Violation {
                        episode: i,
                        seed,
                        detector,
                        outcome: format!("{result:?}"),
                        trace: replay_with(cfg, geometry, spec, base_seed, i).1,
                    });
                }
            }
        }
        sink.into_outcome(spec, episodes)
    }

    #[test]
    fn pooled_scratch_across_calls_matches_fresh_episodes() {
        // Worker scratch outlives each call, so consecutive calls hand it
        // paper cells, the Starlink cell and a second 1584-node geometry
        // (same k, offsets shifted into eight clusters with short
        // footprints, so some signals escape: its statics must
        // be rebuilt, not reused, and its pooled episode dropped). Every
        // call must equal the fresh-episode oracle, under every scheduling
        // mix, in either order.
        let paper = ProtocolConfig::reference(10, Scheme::Oaq);
        let starlink = starlink_base();
        let geom = starlink_geometry();
        let theta = geom.k() as f64 * geom.tr();
        let shifted = CoverageGeometry::with_offsets(
            (0..geom.k())
                .map(|j| (j % 8) as f64 * theta / 8.0 + (j / 8) as f64 * 1e-3)
                .collect(),
            theta,
            3.0,
        );
        assert_ne!(shifted, geom);
        let specs = [
            CellSpec {
                loss: LossAxis::Iid { p: 0.2 },
                node_failure_rate: 0.2,
                retry_budget: 2,
            },
            CellSpec {
                loss: LossAxis::Bursty {
                    marginal: 0.3,
                    burst_len: 4.0,
                },
                node_failure_rate: 0.02,
                retry_budget: 0,
            },
        ];
        let cells = [
            (&paper, None, &specs[0], 60),
            (&starlink, Some(&geom), &specs[0], 16),
            (&starlink, Some(&shifted), &specs[1], 16),
            (&paper, None, &specs[1], 60),
            (&starlink, Some(&geom), &specs[1], 16),
            (&starlink, Some(&shifted), &specs[0], 16),
        ];
        let oracles: Vec<CellOutcome> = cells
            .iter()
            .map(|&(base, geometry, spec, episodes)| {
                fresh_cell(&cell_config_from(base, spec), geometry, spec, 31, episodes)
            })
            .collect();
        assert!(oracles.iter().all(|c| c.detected > 0 && c.quality > 0));
        for sparse in [&oracles[2], &oracles[5]] {
            assert!(sparse.detected < sparse.episodes, "{sparse:?}");
        }
        let execs = [
            Executor::new(1),
            Executor::new(2),
            Executor::new(3)
                .with_chunk(Some(1))
                .with_forced_steals(true),
            Executor::new(2).with_chunk(Some(5)),
        ];
        for exec in execs.into_iter().chain(execs) {
            for (&(base, geometry, spec, episodes), want) in cells.iter().zip(&oracles) {
                let mut scenario = Scenario::new(base, exec);
                scenario.geometry = geometry;
                let got = run_cell_scenario(&scenario, spec, episodes, 31);
                assert_eq!(&got, want, "k = {}, {spec:?}, {exec:?}", base.k);
            }
        }
    }

    #[test]
    fn violation_replay_is_bit_identical() {
        // Real violations never occur (the guarantee holds — that is the
        // campaign's acceptance test), so the replay contract is exercised
        // directly: any (spec, base_seed, episode) triple replays to the
        // identical outcome and trace, and its outcomes agree with the
        // untraced fast path the campaign tallies from.
        let spec = CellSpec {
            loss: LossAxis::Bursty {
                marginal: 0.5,
                burst_len: 4.0,
            },
            node_failure_rate: 0.5,
            retry_budget: 1,
        };
        let base = ProtocolConfig::reference(10, Scheme::Oaq);
        let scenario = Scenario::new(&base, 1);
        for i in [0u64, 3, 17] {
            let (out_a, trace_a) = replay_episode_scenario(&scenario, &spec, 77, i);
            let (out_b, trace_b) = replay_episode_scenario(&scenario, &spec, 77, i);
            assert_eq!(out_a, out_b);
            assert_eq!(trace_a, trace_b);
        }
        let cell = run_cell_fanout(&spec, 20, 77, 1);
        let replayed_detected = (0..20)
            .filter(|&i| {
                replay_episode_scenario(&scenario, &spec, 77, i)
                    .0
                    .detected_at
                    .is_some()
            })
            .count() as u64;
        assert_eq!(replayed_detected, cell.detected);
    }

    #[test]
    fn guarantee_holds_across_a_small_grid() {
        // Acceptance: live-detector episodes meet the by-τ minimal-QoS
        // guarantee in every cell of a loss × retry sweep.
        for loss in [
            LossAxis::Iid { p: 0.0 },
            LossAxis::Iid { p: 0.2 },
            LossAxis::Bursty {
                marginal: 0.2,
                burst_len: 5.0,
            },
        ] {
            for budget in [0u32, 3] {
                let spec = CellSpec {
                    loss,
                    node_failure_rate: 0.25,
                    retry_budget: budget,
                };
                let out = run_cell_fanout(&spec, 150, 99, 1);
                assert!(
                    out.violations.is_empty(),
                    "{}/budget {budget}: {:#?}",
                    loss.label(),
                    out.violations
                );
                assert_eq!(out.guarantee_frac(), 1.0);
            }
        }
    }

    #[test]
    fn degradation_curve_is_monotone_in_loss_intensity() {
        // Quality (not timeliness) pays for fault intensity: the dual-
        // coverage fraction must not increase as the marginal loss grows.
        let losses = [0.0, 0.15, 0.4];
        let mut cells = Vec::new();
        for p in losses {
            let spec = CellSpec {
                loss: LossAxis::Iid { p },
                node_failure_rate: 0.0,
                retry_budget: 0,
            };
            cells.push(run_cell_fanout(&spec, 400, 1234, 1));
        }
        for w in cells.windows(2) {
            assert!(
                w[1].quality_frac() <= w[0].quality_frac() + 0.02,
                "quality must degrade with loss: {} -> {}",
                w[0].quality_frac(),
                w[1].quality_frac()
            );
        }
        assert!(
            cells[2].quality_frac() < cells[0].quality_frac(),
            "heavy loss must visibly cost quality"
        );
        let json = campaign_json(&cells, 1234, 400);
        assert!(json.contains("\"degradation_curves\""));
        assert!(json.contains("\"total_violations\":0"));
    }

    #[test]
    fn retries_buy_back_quality_under_loss() {
        let cell = |budget: u32| {
            run_cell_fanout(
                &CellSpec {
                    loss: LossAxis::Iid { p: 0.3 },
                    node_failure_rate: 0.0,
                    retry_budget: budget,
                },
                400,
                55,
                1,
            )
        };
        let plain = cell(0);
        let budgeted = cell(3);
        assert!(
            budgeted.quality_frac() > plain.quality_frac() + 0.05,
            "retries must recover coordinations: {} vs {}",
            budgeted.quality_frac(),
            plain.quality_frac()
        );
    }

    #[test]
    fn violations_render_replayable_json() {
        // Synthesize a violation record and check the JSON stays parseable
        // in shape (quotes escaped, seed present).
        let mut out = run_cell_fanout(
            &CellSpec {
                loss: LossAxis::Iid { p: 0.0 },
                node_failure_rate: 0.0,
                retry_budget: 0,
            },
            5,
            3,
            1,
        );
        out.violations.push(Violation {
            episode: 2,
            seed: episode_seed(3, 2),
            detector: 0,
            outcome: "level \"X\"".to_string(),
            trace: vec!["t= 1.0 S0 \"detects\"".to_string()],
        });
        let json = cell_json(&out);
        assert!(json.contains("\\\"detects\\\""));
        assert!(json.contains(&format!("\"seed\":{}", episode_seed(3, 2))));
    }
}
