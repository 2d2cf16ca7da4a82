//! # oaq-exec — the one deterministic executor
//!
//! Every parallel substrate in this workspace (the analytic sweep fan-out,
//! the Monte-Carlo [`Replicator`](../oaq_sim/par) and the engine's batch
//! replay `Engine::run_all`) runs on the primitives in this crate — the
//! workspace's only thread pool — and [`Executor`] is the one
//! value that says how work is spread: worker count, chunk override and
//! the forced-steal stressor. Parallel entry points take
//! `impl Into<Executor>`, so a bare worker count works wherever an
//! executor does. The contract, everywhere:
//!
//! 1. **Indexed slots.** Each task writes its result into a slot addressed
//!    by its task index, never into a shared accumulator.
//! 2. **Ordered merge.** Callers consume results in ascending task index;
//!    the executor returns them already in that order.
//! 3. **Worker-count invariance.** The worker count decides only *who*
//!    runs a task, never *what* a task computes or the order results are
//!    consumed in — so any worker count (including one) produces
//!    bit-identical output.
//!
//! A call runs on scoped threads, and the caller is one of them: worker
//! 0's claim loop runs on the calling thread, and only workers
//! `1..workers` are spawned as helpers, each handing its results back
//! before the call returns. There is no pool parked between calls:
//! lending a call's borrowed closures to long-lived threads would need
//! lifetime erasure, which this crate's `forbid(unsafe_code)` rules out.
//! [`stats`] reports what every call spent: helpers spawned, tasks,
//! steals, how late the helpers started, and the caller's time in spawn,
//! its own share of the work, join wait and merge.
//!
//! Scheduling is work-stealing over packed atomic range cursors: each
//! worker owns one `AtomicU64` holding `(cursor, end)` — a contiguous
//! range of unclaimed task indices. The owner claims the front with a
//! CAS bumping `cursor`; an idle worker steals the back half of the
//! fullest victim's range with a CAS lowering `end`, and installs the
//! stolen window as its own. Tasks are *claimed before they run*, no task
//! enqueues new tasks, and the ranges partition the unclaimed indices at
//! all times, so "every range empty" is a safe exit condition and no
//! locks are taken anywhere on the claim path. Because each worker
//! returns its `(index, result)` pairs and the caller reassembles them in
//! ascending index order, the steal schedule — inherently racy — is
//! invisible in the output; [`Executor::with_forced_steals`] deliberately
//! maximizes stealing to let tests assert exactly that.
//!
//! ## Chunk granularity
//!
//! Two adaptive policies coexist, chosen by what the caller merges:
//!
//! * [`adaptive_chunk`] is a pure function of the **total item count**
//!   (never the worker count) — for callers like the Monte-Carlo
//!   replicator whose floating-point sinks make the chunk grouping part of
//!   the result's identity. Targeting [`TARGET_CHUNKS`] chunks keeps
//!   ≈ 4 chunks per worker up to 16 workers; the [`MIN_CHUNK`] floor
//!   amortizes scheduling overhead for small runs.
//! * [`Executor::map_indexed`] defaults to ≈ 4 chunks *per worker*, which
//!   is legal there because indexed slots are consumed element-wise — no
//!   merge regrouping exists for the chunk size to leak into.
//!
//! An explicit [`Executor::with_chunk`] (or the benches' `--chunk` flag)
//! overrides either policy for reproducibility experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Adaptive chunking targets this many chunks regardless of worker count —
/// ≈ 4 chunks per worker at up to 16 workers.
pub const TARGET_CHUNKS: u64 = 64;

/// Floor on the adaptive chunk size: below this, per-chunk scheduling
/// overhead dominates the work.
pub const MIN_CHUNK: u64 = 16;

/// How long a caller whose own claims ran dry yields in a loop, waiting
/// for its helpers, before it parks: about one campaign chunk's length,
/// so the usual wait ends without a parked thread's wake-up latency.
const WAIT_SPIN: Duration = Duration::from_micros(100);

/// Resolves a worker-count request: `0` means one worker per available
/// core, anything else is taken literally.
#[must_use]
pub fn effective_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    }
}

/// The adaptive items-per-chunk granularity for a run of `total` items.
///
/// A pure function of `total` **only** — never the worker count — so
/// callers whose merge regroups floating-point sums (chunk size is part of
/// their result's identity) stay bit-identical across worker counts.
/// Yields `ceil(total / TARGET_CHUNKS)` floored at [`MIN_CHUNK`]; for
/// `total ≤ 1024` this equals the historical fixed chunk of 16.
#[must_use]
pub fn adaptive_chunk(total: u64) -> u64 {
    total.div_ceil(TARGET_CHUNKS).max(MIN_CHUNK)
}

/// What the executor has spent, summed over every `run_indexed*` call in
/// the process (serial calls included), read through [`stats`].
///
/// A call adds its counts up in locals and publishes them once when it
/// returns, so the counters cost a few relaxed atomic adds per call and
/// nothing per task. Each field is exact on its own; a snapshot taken
/// while calls run may hold part of one call's counts. `spawn_ns`,
/// `caller_work_ns`, `join_wait_ns` and `merge_ns` split each call's wall
/// time on the caller's thread (a serial call spends all of it in
/// `caller_work_ns`); `helper_start_ns` is measured from the helpers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Completed calls.
    pub calls: u64,
    /// Helper threads spawned: a call on `w` workers spawns `w − 1`, since
    /// the caller runs worker 0.
    pub helpers: u64,
    /// Tasks run.
    pub tasks: u64,
    /// Of those, tasks the caller ran as worker 0.
    pub caller_tasks: u64,
    /// Claims that stole the back half of another worker's range.
    pub steals: u64,
    /// Nanoseconds the caller spent seeding ranges and spawning helpers.
    pub spawn_ns: u64,
    /// Nanoseconds from the start of the call to each helper's first
    /// claim, summed over helpers: how late the helpers join the work.
    pub helper_start_ns: u64,
    /// Nanoseconds the caller spent as worker 0: building its scratch and
    /// running the tasks it claimed or stole.
    pub caller_work_ns: u64,
    /// Nanoseconds the caller waited for helpers still working after its
    /// own claims ran dry.
    pub join_wait_ns: u64,
    /// Nanoseconds merging the workers' outputs into ascending order.
    pub merge_ns: u64,
}

/// The process-wide sums behind [`stats`], in `ExecStats::to_array`
/// order.
static COUNTERS: [AtomicU64; 10] = [const { AtomicU64::new(0) }; 10];

/// A snapshot of the process-wide executor counters. Take one before and
/// one after a piece of work and [`ExecStats::since`] gives what the work
/// spent.
#[must_use]
pub fn stats() -> ExecStats {
    ExecStats::from_array(COUNTERS.each_ref().map(|c| c.load(Ordering::Relaxed)))
}

impl ExecStats {
    /// What was counted between `earlier` and this snapshot.
    #[must_use]
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        let (now, then) = (self.to_array(), earlier.to_array());
        ExecStats::from_array(std::array::from_fn(|f| now[f].wrapping_sub(then[f])))
    }

    fn to_array(self) -> [u64; 10] {
        [
            self.calls,
            self.helpers,
            self.tasks,
            self.caller_tasks,
            self.steals,
            self.spawn_ns,
            self.helper_start_ns,
            self.caller_work_ns,
            self.join_wait_ns,
            self.merge_ns,
        ]
    }

    fn from_array(a: [u64; 10]) -> Self {
        let [calls, helpers, tasks, caller_tasks, steals, spawn_ns, helper_start_ns, caller_work_ns, join_wait_ns, merge_ns] =
            a;
        ExecStats {
            calls,
            helpers,
            tasks,
            caller_tasks,
            steals,
            spawn_ns,
            helper_start_ns,
            caller_work_ns,
            join_wait_ns,
            merge_ns,
        }
    }

    /// Adds one call's counts to the process-wide sums. The counters
    /// publish no other data, so relaxed adds suffice.
    fn publish(self) {
        for (counter, v) in COUNTERS.iter().zip(self.to_array()) {
            counter.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// One line: the counts, then each time field as microseconds per call.
impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let per_call = |ns: u64| ns as f64 / 1e3 / self.calls.max(1) as f64;
        write!(
            f,
            "{} calls, {} helpers, {} tasks ({} on the caller), {} steals; per call: \
             spawn {:.1} us, caller work {:.1} us, join wait {:.1} us, merge {:.1} us; \
             helper start {:.1} us per helper",
            self.calls,
            self.helpers,
            self.tasks,
            self.caller_tasks,
            self.steals,
            per_call(self.spawn_ns),
            per_call(self.caller_work_ns),
            per_call(self.join_wait_ns),
            per_call(self.merge_ns),
            self.helper_start_ns as f64 / 1e3 / self.helpers.max(1) as f64,
        )
    }
}

/// Nanoseconds from `from` to `to`, saturating.
fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// The deterministic work-stealing executor — the one value that says how
/// work is spread.
///
/// See the [module docs](self) for the three-point contract. Construction
/// is free — an `Executor` is a worker count, an optional chunk override
/// and the forced-steal stressor. Threads are scoped to each call, and
/// the caller is worker 0: a call on `w` workers spawns `w − 1` helper
/// threads, runs worker 0's claims on the calling thread, then waits for
/// the helpers' results. Every parallel entry point in the workspace takes
/// `impl Into<Executor>`, so a bare worker count converts through
/// [`From<usize>`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    workers: usize,
    chunk: Option<u64>,
    forced_steals: bool,
}

impl From<usize> for Executor {
    fn from(workers: usize) -> Self {
        Executor::new(workers)
    }
}

impl Executor {
    /// An executor with `workers` worker threads (`0` = one per core) and
    /// adaptive chunking.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Executor {
            workers,
            chunk: None,
            forced_steals: false,
        }
    }

    /// Seeds *all* tasks to worker 0's range so every other worker must
    /// steal its entire workload — a scheduling stressor for invariance
    /// tests. By the executor contract the steal schedule cannot affect
    /// results, so this knob changes timing only, never output.
    #[must_use]
    pub fn with_forced_steals(mut self, forced: bool) -> Self {
        self.forced_steals = forced;
        self
    }

    /// Pins the items-per-chunk granularity if `chunk` is `Some` (the
    /// benches' `--chunk` flag), else restores the adaptive default.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == Some(0)`.
    #[must_use]
    pub fn with_chunk(mut self, chunk: Option<u64>) -> Self {
        assert!(chunk != Some(0), "chunk size must be positive");
        self.chunk = chunk;
        self
    }

    /// The resolved worker count.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        effective_workers(self.workers)
    }

    /// The explicit chunk override, if any.
    #[must_use]
    pub fn chunk_override(&self) -> Option<u64> {
        self.chunk
    }

    /// The items-per-chunk [`map_indexed`](Executor::map_indexed) will use
    /// for `total` items: the explicit override if pinned, else ≈ 4 chunks
    /// per worker.
    #[must_use]
    pub fn resolve_chunk(&self, total: u64) -> u64 {
        self.chunk.unwrap_or_else(|| {
            let target = 4 * self.effective_workers() as u64;
            total.div_ceil(target.max(1)).max(1)
        })
    }

    /// Runs tasks `0..tasks` and returns their results in ascending task
    /// order. `run(i)` must be a pure function of `i` (and captured
    /// immutable state); under that contract the output is bit-identical
    /// for any worker count.
    ///
    /// With one worker (or one task) this is a plain serial loop — the
    /// bit-exact reference the parallel path is tested against.
    ///
    /// # Panics
    ///
    /// Propagates panics from `run`, as
    /// [`run_indexed_scratch`](Executor::run_indexed_scratch) does.
    pub fn run_indexed<S, F>(&self, tasks: u64, run: F) -> Vec<S>
    where
        S: Send,
        F: Fn(u64) -> S + Sync,
    {
        self.run_indexed_scratch(tasks, || (), |i, ()| run(i))
    }

    /// [`run_indexed`](Executor::run_indexed) with a per-worker scratch
    /// value built once per worker and lent to every task that worker
    /// claims — reusable buffers without per-task allocation.
    ///
    /// Determinism contract: `run(i, scratch)`'s *result* must not depend
    /// on what earlier tasks left in the scratch (treat it as
    /// uninitialized capacity, not state).
    ///
    /// # Panics
    ///
    /// Propagates panics from `run`: the caller's own (worker 0's) first,
    /// else the lowest-numbered helper's, with the original payload.
    pub fn run_indexed_scratch<S, C, I, F>(&self, tasks: u64, make_scratch: I, run: F) -> Vec<S>
    where
        S: Send,
        I: Fn() -> C + Sync,
        F: Fn(u64, &mut C) -> S + Sync,
    {
        let (out, call) = self.run_counted(tasks, make_scratch, run);
        call.publish();
        out
    }

    /// The body of [`run_indexed_scratch`](Executor::run_indexed_scratch):
    /// the ordered results and this call's own counts, not yet published.
    fn run_counted<S, C, I, F>(&self, tasks: u64, make_scratch: I, run: F) -> (Vec<S>, ExecStats)
    where
        S: Send,
        I: Fn() -> C + Sync,
        F: Fn(u64, &mut C) -> S + Sync,
    {
        let start = Instant::now();
        let mut call = ExecStats {
            calls: 1,
            ..ExecStats::default()
        };
        let workers = self
            .effective_workers()
            .min(usize::try_from(tasks).unwrap_or(usize::MAX))
            .max(1);
        if workers <= 1 {
            let mut scratch = make_scratch();
            let out: Vec<S> = (0..tasks).map(|i| run(i, &mut scratch)).collect();
            call.tasks = out.len() as u64;
            call.caller_tasks = call.tasks;
            call.caller_work_ns = nanos(start, Instant::now());
            return (out, call);
        }

        // Packed (cursor, end) range per worker; ranges partition the
        // unclaimed indices at all times, so claims are single CASes and
        // the steal schedule never shows in the output.
        let tasks32 = u32::try_from(tasks).expect("parallel runs are bounded by u32 task indices");
        let per_worker = tasks32.div_ceil(workers as u32);
        let ranges: Vec<AtomicU64> = (0..workers as u32)
            .map(|w| {
                if self.forced_steals {
                    // Everything starts on worker 0 (the caller): every
                    // helper must steal its entire workload.
                    if w == 0 {
                        AtomicU64::new(pack_range(0, tasks32))
                    } else {
                        AtomicU64::new(pack_range(0, 0))
                    }
                } else {
                    let lo = w * per_worker;
                    let hi = ((w + 1) * per_worker).min(tasks32);
                    AtomicU64::new(pack_range(lo, hi.max(lo)))
                }
            })
            .collect();

        // One worker's claim loop: when it started, its `(index, result)`
        // pairs and how many of its claims were steals.
        let work = |w: usize| {
            let started = Instant::now();
            let mut scratch = make_scratch();
            let mut out: Vec<(u64, S)> = Vec::with_capacity(per_worker as usize);
            let mut steals = 0;
            while let Some(i) = claim_task(&ranges, w, &mut steals) {
                out.push((u64::from(i), run(u64::from(i), &mut scratch)));
            }
            (started, out, steals)
        };
        // Worker 0 runs on the caller's thread, so a call spawns only the
        // helpers. A helper hands its outcome (panic payload included)
        // back through its slot and wakes the caller, so the caller never
        // waits for a helper thread to exit; it spins briefly before
        // parking, since a helper usually has at most one task left when
        // the caller's claims run dry. A panic in the caller's own share
        // unwinds out of the scope once every helper has finished.
        let finished = AtomicUsize::new(0);
        let caller = std::thread::current();
        let slots: Vec<Mutex<Option<std::thread::Result<_>>>> =
            (1..workers).map(|_| Mutex::new(None)).collect();
        let (own, spawned, worked, joined) = std::thread::scope(|scope| {
            let (work, slots, finished, caller) = (&work, &slots, &finished, &caller);
            for w in 1..workers {
                scope.spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| work(w)));
                    *slots[w - 1].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                    finished.fetch_add(1, Ordering::Release);
                    caller.unpark();
                });
            }
            let spawned = Instant::now();
            let own = work(0);
            let worked = Instant::now();
            while finished.load(Ordering::Acquire) < workers - 1 {
                if worked.elapsed() < WAIT_SPIN {
                    std::thread::yield_now();
                } else {
                    std::thread::park();
                }
            }
            (own, spawned, worked, Instant::now())
        });

        let mut pairs: Vec<(u64, S)> = Vec::with_capacity(usize::try_from(tasks).expect("fits"));
        call.helpers = slots.len() as u64;
        let (_, own, own_steals) = own;
        call.caller_tasks = own.len() as u64;
        call.steals = own_steals;
        pairs.extend(own);
        for slot in slots {
            let outcome = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            let (started, out, steals) = outcome
                .expect("every helper fills its slot before the scope ends")
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            call.helper_start_ns += nanos(start, started);
            call.steals += steals;
            pairs.extend(out);
        }
        call.tasks = pairs.len() as u64;
        debug_assert_eq!(pairs.len() as u64, tasks, "every task claimed exactly once");
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let out = pairs.into_iter().map(|(_, s)| s).collect();
        call.spawn_ns = nanos(start, spawned);
        call.caller_work_ns = nanos(spawned, worked);
        call.join_wait_ns = nanos(worked, joined);
        call.merge_ns = nanos(joined, Instant::now());
        (out, call)
    }

    /// Maps `f` over `items`, slicing them into chunks of
    /// [`resolve_chunk`](Executor::resolve_chunk) granularity, and returns
    /// the outputs in item order — bit-identical to
    /// `items.iter().map(f).collect()` for any worker count, since each
    /// chunk is an independent serial sub-loop and chunks flatten in
    /// ascending index.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f`.
    pub fn map_indexed<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let total = items.len() as u64;
        if total == 0 {
            return Vec::new();
        }
        let chunk = self.resolve_chunk(total);
        let tasks = total.div_ceil(chunk);
        let nested = self.run_indexed(tasks, |t| {
            let lo = usize::try_from(t * chunk).expect("chunk offset fits usize");
            let hi = usize::try_from(((t + 1) * chunk).min(total)).expect("offset fits usize");
            items[lo..hi].iter().map(&f).collect::<Vec<U>>()
        });
        nested.into_iter().flatten().collect()
    }
}

/// Packs a `[cursor, end)` task-index range into one atomic word.
#[inline]
fn pack_range(cursor: u32, end: u32) -> u64 {
    (u64::from(cursor) << 32) | u64::from(end)
}

/// Unpacks a range word into `(cursor, end)`.
#[inline]
fn unpack_range(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Claims the next task for worker `w`: the front of its own range via a
/// cursor-bump CAS, else the back half of the fullest victim's range via
/// an end-lowering CAS (the stolen window becomes `w`'s new range).
/// Returns `None` only when every visible range is empty — safe because
/// tasks are claimed before they run and nothing enqueues new tasks.
/// Each successful steal bumps `steals`.
///
/// ABA is harmless here: a successful CAS means the victim's range held
/// exactly the snapshotted `(cursor, end)` window at that instant, and
/// ranges only ever contain unclaimed indices, so the stolen window is
/// valid regardless of interleaving history.
fn claim_task(ranges: &[AtomicU64], w: usize, steals: &mut u64) -> Option<u32> {
    // Fast path: pop the front of our own range.
    let own = &ranges[w];
    let mut word = own.load(Ordering::SeqCst);
    loop {
        let (cursor, end) = unpack_range(word);
        if cursor >= end {
            break;
        }
        match own.compare_exchange(
            word,
            pack_range(cursor + 1, end),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return Some(cursor),
            Err(actual) => word = actual,
        }
    }

    // Own range drained: steal half of the fullest victim.
    loop {
        let mut best: Option<(usize, u64)> = None;
        let mut fullest = 0u32;
        for (v, r) in ranges.iter().enumerate() {
            if v == w {
                continue;
            }
            let snap = r.load(Ordering::SeqCst);
            let (cursor, end) = unpack_range(snap);
            let remaining = end.saturating_sub(cursor);
            if remaining > fullest {
                fullest = remaining;
                best = Some((v, snap));
            }
        }
        let (victim, snap) = best?;
        let (cursor, end) = unpack_range(snap);
        // Leave the victim the front half, take `[split, end)`.
        let split = cursor + (end - cursor) / 2;
        if ranges[victim]
            .compare_exchange(
                snap,
                pack_range(cursor, split),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            // Our own range is empty and thieves only target non-empty
            // ranges, so nobody else writes our slot: a plain store
            // installs the stolen window, minus the task we run now.
            own.store(pack_range(split + 1, end), Ordering::SeqCst);
            *steals += 1;
            return Some(split);
        }
        // Lost the race to the victim's own claims (or another thief);
        // rescan.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn adaptive_chunk_is_worker_independent_and_floored() {
        assert_eq!(adaptive_chunk(0), MIN_CHUNK);
        assert_eq!(adaptive_chunk(500), MIN_CHUNK);
        assert_eq!(adaptive_chunk(1024), MIN_CHUNK);
        assert_eq!(adaptive_chunk(6400), 100);
        assert_eq!(adaptive_chunk(6401), 101);
    }

    #[test]
    fn effective_workers_resolves_zero_to_cores() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn executor_converts_from_worker_count() {
        let exec: Executor = 3usize.into();
        assert_eq!(exec, Executor::new(3));
        let pinned = exec.with_chunk(Some(5));
        assert_eq!(pinned.chunk_override(), Some(5));
        assert_eq!(pinned.resolve_chunk(100), 5);
        assert_eq!(pinned.with_chunk(None), exec);
    }

    #[test]
    fn resolve_chunk_targets_four_chunks_per_worker() {
        let exec = Executor::new(4);
        assert_eq!(exec.resolve_chunk(160), 10);
        assert_eq!(exec.resolve_chunk(3), 1);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = Executor::new(1).with_chunk(Some(0));
    }

    #[test]
    fn run_indexed_returns_ascending_results_for_any_worker_count() {
        let reference: Vec<u64> = (0..97).map(|i| i * i).collect();
        for workers in [1, 2, 4, 8] {
            let got = Executor::new(workers).run_indexed(97, |i| i * i);
            assert_eq!(got, reference, "{workers} workers");
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        assert_eq!(Executor::new(4).run_indexed(0, |i| i), Vec::<u64>::new());
        assert_eq!(Executor::new(4).run_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn scratch_is_reused_not_observed() {
        // Results are a pure function of the index even though the scratch
        // buffer carries garbage between tasks.
        let sums = Executor::new(3).run_indexed_scratch(50, Vec::<u64>::new, |i, buf| {
            buf.clear();
            buf.extend(0..=i);
            buf.iter().sum::<u64>()
        });
        let expected: Vec<u64> = (0..50).map(|i| i * (i + 1) / 2).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn map_indexed_matches_serial_map() {
        let items: Vec<f64> = (0..333).map(|i| f64::from(i) * 0.1).collect();
        let reference: Vec<f64> = items.iter().map(|x| x.sin()).collect();
        for workers in [1, 2, 4, 8] {
            let got = Executor::new(workers).map_indexed(&items, |x| x.sin());
            let same = got
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same && got.len() == reference.len(), "{workers} workers");
        }
        assert_eq!(
            Executor::new(4).map_indexed(&Vec::<u8>::new(), |&x| x),
            Vec::<u8>::new()
        );
    }

    /// Runs `tasks` tasks on `exec`, forcing a schedule where the caller
    /// (worker 0) and at least one helper both run tasks: a helper's task
    /// waits until the caller has started one, and the caller's tasks wait
    /// until a helper has started one. Helpers block holding at most one
    /// task each, so with `tasks > workers` the caller always finds one.
    fn mixed_schedule<T: Send>(
        exec: Executor,
        tasks: u64,
        on_caller: impl Fn(u64) -> T + Sync,
        on_helper: impl Fn(u64) -> T + Sync,
    ) -> (Vec<T>, ExecStats) {
        let caller = std::thread::current().id();
        let (caller_ran, helper_ran) = (AtomicBool::new(false), AtomicBool::new(false));
        let wait_for = |flag: &AtomicBool| {
            while !flag.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        };
        exec.run_counted(
            tasks,
            || (),
            |i, ()| {
                if std::thread::current().id() == caller {
                    caller_ran.store(true, Ordering::SeqCst);
                    wait_for(&helper_ran);
                    on_caller(i)
                } else {
                    wait_for(&caller_ran);
                    helper_ran.store(true, Ordering::SeqCst);
                    on_helper(i)
                }
            },
        )
    }

    #[derive(Debug, PartialEq)]
    struct Payload(&'static str);

    fn payload_of(run: impl FnOnce()) -> Payload {
        let err = catch_unwind(AssertUnwindSafe(run)).expect_err("the call must panic");
        *err.downcast::<Payload>().expect("the original payload")
    }

    #[test]
    fn caller_and_helper_panics_reraise_the_original_payload() {
        for workers in [2, 3] {
            let exec = Executor::new(workers);
            let caller = payload_of(|| {
                let _ = mixed_schedule(
                    exec,
                    64,
                    |_| std::panic::panic_any(Payload("caller")),
                    |i| i,
                );
            });
            assert_eq!(caller, Payload("caller"), "{workers} workers");
            let helper = payload_of(|| {
                let _ = mixed_schedule(
                    exec,
                    64,
                    |i| i,
                    |_| std::panic::panic_any(Payload("helper")),
                );
            });
            assert_eq!(helper, Payload("helper"), "{workers} workers");
        }
    }

    #[test]
    fn forced_steals_from_the_caller_cannot_change_results() {
        let work = |i: u64| (i as f64).sqrt().sin().to_bits() ^ 0xABCD;
        let reference: Vec<u64> = (0u64..137).map(work).collect();
        for workers in [2, 3, 8] {
            // Everything is seeded on the caller, and it waits in its first
            // task until a helper runs one, so some helper must steal.
            let exec = Executor::new(workers).with_forced_steals(true);
            let (got, call) = mixed_schedule(exec, 137, work, work);
            assert_eq!(got, reference, "{workers} workers, forced steals");
            assert!(call.steals >= 1, "{workers} workers: {call}");
            assert!(
                (1..137).contains(&call.caller_tasks),
                "the caller and its helpers both ran tasks: {call}"
            );
            assert_eq!(exec.run_indexed(137, work), reference);
        }
    }

    #[test]
    fn counters_count_helpers_and_tasks_exactly() {
        let (out, serial) = Executor::new(1).run_counted(50, || (), |i, ()| i);
        assert_eq!(out.len(), 50);
        assert_eq!(
            (
                serial.calls,
                serial.helpers,
                serial.tasks,
                serial.caller_tasks,
                serial.steals
            ),
            (1, 0, 50, 50, 0)
        );
        assert_eq!(
            (
                serial.spawn_ns,
                serial.helper_start_ns,
                serial.join_wait_ns,
                serial.merge_ns
            ),
            (0, 0, 0, 0)
        );
        for workers in [2usize, 3, 8] {
            for tasks in [workers as u64, 100] {
                for forced in [false, true] {
                    let exec = Executor::new(workers).with_forced_steals(forced);
                    let (_, call) = exec.run_counted(tasks, || (), |i, ()| i);
                    assert_eq!(call.calls, 1);
                    assert_eq!(call.helpers, workers as u64 - 1, "{workers} workers");
                    assert_eq!(call.tasks, tasks, "{workers} workers");
                    assert!(call.caller_tasks <= tasks && call.steals <= tasks);
                    eprintln!("{workers} workers, {tasks} tasks, forced {forced}: {call}");
                }
            }
        }
        // Fewer tasks than workers: one worker per task, caller included.
        let (_, few) = Executor::new(8).run_counted(3, || (), |i, ()| i);
        assert_eq!((few.helpers, few.tasks), (2, 3));
        let (_, one) = Executor::new(8).run_counted(1, || (), |i, ()| i);
        assert_eq!((one.helpers, one.tasks), (0, 1));
    }

    #[test]
    fn published_counters_cover_every_call() {
        // Other tests run executors concurrently, so the process-wide
        // window holds at least this test's calls.
        let before = stats();
        let _ = Executor::new(3).run_indexed(40, |i| i);
        let _ = Executor::new(1).run_indexed(7, |i| i);
        let window = stats().since(&before);
        assert!(window.calls >= 2, "{window}");
        assert!(window.helpers >= 2, "{window}");
        assert!(window.tasks >= 47, "{window}");
    }

    #[test]
    fn forced_steals_with_scratch_matches_serial() {
        let serial = Executor::new(1).run_indexed_scratch(73, Vec::<u64>::new, |i, buf| {
            buf.clear();
            buf.extend(0..=i);
            buf.iter().sum::<u64>()
        });
        let stolen = Executor::new(6)
            .with_forced_steals(true)
            .run_indexed_scratch(73, Vec::<u64>::new, |i, buf| {
                buf.clear();
                buf.extend(0..=i);
                buf.iter().sum::<u64>()
            });
        assert_eq!(stolen, serial);
    }

    proptest! {
        #[test]
        fn executor_is_worker_count_invariant(
            tasks in 0u64..400,
            seed in any::<u64>(),
        ) {
            // A float-producing task: catches both ordering and identity
            // bugs, since f64 bit patterns are compared exactly.
            let work = |i: u64| {
                let x = ((i ^ seed) as f64).sqrt().sin();
                (i, x.to_bits())
            };
            let serial = Executor::new(1).run_indexed(tasks, work);
            for workers in [2usize, 4, 8] {
                for forced in [false, true] {
                    let par = Executor::new(workers)
                        .with_forced_steals(forced)
                        .run_indexed(tasks, work);
                    prop_assert_eq!(&par, &serial, "workers {} forced {}", workers, forced);
                }
            }
        }
    }
}
