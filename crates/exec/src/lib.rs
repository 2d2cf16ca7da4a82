//! # oaq-exec — the one deterministic executor
//!
//! Every parallel substrate in this workspace (the analytic sweep fan-out,
//! the Monte-Carlo [`Replicator`](../oaq_sim/par) and the engine worker
//! pool) runs on the primitives in this crate, and [`Executor`] is the one
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Adaptive chunking targets this many chunks regardless of worker count —
/// ≈ 4 chunks per worker at up to 16 workers.
pub const TARGET_CHUNKS: u64 = 64;

/// Floor on the adaptive chunk size: below this, per-chunk scheduling
/// overhead dominates the work.
pub const MIN_CHUNK: u64 = 16;

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

/// The deterministic work-stealing executor — the one value that says how
/// work is spread.
///
/// See the [module docs](self) for the three-point contract. Construction
/// is free — an `Executor` is a worker count, an optional chunk override
/// and the forced-steal stressor; threads are scoped to each call. Every
/// parallel entry point in the workspace takes `impl Into<Executor>`, so a
/// bare worker count converts through [`From<usize>`].
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
    /// Propagates panics from `run` (the pool observes the first one).
    pub fn run_indexed<S, F>(&self, tasks: u64, run: F) -> Vec<S>
    where
        S: Send,
        F: Fn(u64) -> S + Sync,
    {
        self.run_indexed_scratch(tasks, || (), |i, ()| run(i))
    }

    /// [`run_indexed`](Executor::run_indexed) with a per-worker scratch
    /// value built once per worker thread and lent to every task that
    /// worker claims — reusable buffers without per-task allocation.
    ///
    /// Determinism contract: `run(i, scratch)`'s *result* must not depend
    /// on what earlier tasks left in the scratch (treat it as
    /// uninitialized capacity, not state).
    ///
    /// # Panics
    ///
    /// Propagates panics from `run` (the pool observes the first one).
    pub fn run_indexed_scratch<S, C, I, F>(&self, tasks: u64, make_scratch: I, run: F) -> Vec<S>
    where
        S: Send,
        I: Fn() -> C + Sync,
        F: Fn(u64, &mut C) -> S + Sync,
    {
        let workers = self
            .effective_workers()
            .min(usize::try_from(tasks).unwrap_or(usize::MAX))
            .max(1);
        if workers <= 1 {
            let mut scratch = make_scratch();
            return (0..tasks).map(|i| run(i, &mut scratch)).collect();
        }

        // Packed (cursor, end) range per worker; ranges partition the
        // unclaimed indices at all times, so claims are single CASes and
        // the steal schedule never shows in the output.
        let tasks32 = u32::try_from(tasks).expect("parallel runs are bounded by u32 task indices");
        let per_worker = tasks32.div_ceil(workers as u32);
        let ranges: Vec<AtomicU64> = (0..workers as u32)
            .map(|w| {
                if self.forced_steals {
                    // Everything starts on worker 0: all other workers
                    // must steal their entire workload.
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

        let worker_outputs = {
            let ranges = &ranges;
            let make_scratch = &make_scratch;
            let run = &run;
            // Every handle is joined inside the scope, so a worker panic
            // comes back as an `Err` payload and is re-raised below.
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut scratch = make_scratch();
                            let mut out: Vec<(u64, S)> = Vec::new();
                            while let Some(i) = claim_task(ranges, w) {
                                out.push((u64::from(i), run(u64::from(i), &mut scratch)));
                            }
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
            })
        };

        let mut pairs: Vec<(u64, S)> = Vec::with_capacity(usize::try_from(tasks).expect("fits"));
        for joined in worker_outputs {
            match joined {
                Ok(out) => pairs.extend(out),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        debug_assert_eq!(pairs.len() as u64, tasks, "every task claimed exactly once");
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, s)| s).collect()
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
///
/// ABA is harmless here: a successful CAS means the victim's range held
/// exactly the snapshotted `(cursor, end)` window at that instant, and
/// ranges only ever contain unclaimed indices, so the stolen window is
/// valid regardless of interleaving history.
fn claim_task(ranges: &[AtomicU64], w: usize) -> Option<u32> {
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
            return Some(split);
        }
        // Lost the race to the victim's own claims (or another thief);
        // rescan.
    }
}

/// How a supervised worker's work function ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// The work function returned a normal wind-down; the slot retires.
    Clean,
    /// The work function either *reported* a fault (it observed and
    /// contained one itself) or unwound (the payload is swallowed); the
    /// supervisor's respawn predicate decides what happens next.
    Panicked,
}

/// A supervised long-running worker pool: `workers` threads each run
/// `work()` to completion; a supervisor thread watches exits and respawns
/// faulted workers (a returned [`ExitKind::Panicked`] or an un-caught
/// unwind) while `respawn_if()` holds, calling `on_respawn` for each
/// heal. Join with [`SupervisedPool::join`] (idempotent; also run on
/// drop).
///
/// This is the engine worker pool's substrate: the engine keeps its
/// drain/respawn *semantics* (the predicate and the metric hook), the
/// executor owns the threads.
pub struct SupervisedPool {
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for SupervisedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedPool").finish_non_exhaustive()
    }
}

impl SupervisedPool {
    /// Starts `workers` threads running `work` under a supervisor thread.
    ///
    /// A worker that faults (returns [`ExitKind::Panicked`] or unwinds)
    /// is respawned iff `respawn_if()` is true at the moment the
    /// supervisor observes the exit (`on_respawn` fires first); a
    /// [`ExitKind::Clean`] exit retires the slot. The supervisor returns
    /// once every slot has retired.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn start<W, R, H>(workers: usize, work: W, respawn_if: R, on_respawn: H) -> Self
    where
        W: Fn() -> ExitKind + Send + Sync + 'static,
        R: Fn() -> bool + Send + 'static,
        H: Fn() + Send + 'static,
    {
        assert!(workers > 0, "supervised pool needs at least one worker");
        let work = Arc::new(work);
        let (exit_tx, exit_rx) = mpsc::channel::<ExitKind>();
        let spawn_one = move |work: &Arc<W>, exit_tx: &mpsc::Sender<ExitKind>| {
            let work = Arc::clone(work);
            let exit_tx = exit_tx.clone();
            std::thread::spawn(move || {
                let kind = catch_unwind(AssertUnwindSafe(|| work())).unwrap_or(ExitKind::Panicked);
                // The supervisor may already be gone during teardown.
                let _ = exit_tx.send(kind);
            })
        };

        let supervisor = std::thread::spawn(move || {
            let mut handles: Vec<JoinHandle<()>> =
                (0..workers).map(|_| spawn_one(&work, &exit_tx)).collect();
            let mut alive = workers;
            while alive > 0 {
                match exit_rx.recv() {
                    Ok(ExitKind::Panicked) if respawn_if() => {
                        on_respawn();
                        handles.push(spawn_one(&work, &exit_tx));
                    }
                    Ok(_) => alive -= 1,
                    Err(_) => break,
                }
            }
            drop(exit_tx);
            for h in handles {
                let _ = h.join();
            }
        });

        SupervisedPool {
            supervisor: Mutex::new(Some(supervisor)),
        }
    }

    /// Waits for every worker slot to retire. Idempotent; the caller is
    /// responsible for first signalling its workers to exit (e.g. closing
    /// the queue they drain), or this blocks forever.
    pub fn join(&self) {
        let handle = self
            .supervisor
            .lock()
            .expect("supervisor handle poisoned")
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for SupervisedPool {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            Executor::new(4).run_indexed(32, |i| {
                assert!(i != 17, "poisoned task");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn forced_steals_cannot_change_results() {
        let reference: Vec<u64> = (0u64..137).map(|i| i.wrapping_mul(i) ^ 0xABCD).collect();
        for workers in [2, 4, 8] {
            let got = Executor::new(workers)
                .with_forced_steals(true)
                .run_indexed(137, |i| i.wrapping_mul(i) ^ 0xABCD);
            assert_eq!(got, reference, "{workers} workers, forced steals");
        }
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

    #[test]
    fn supervised_pool_respawns_while_predicate_holds() {
        let budget = Arc::new(AtomicUsize::new(3));
        let respawns = Arc::new(AtomicUsize::new(0));
        let runs = Arc::new(AtomicUsize::new(0));
        let pool = {
            let budget_w = Arc::clone(&budget);
            let budget_p = Arc::clone(&budget);
            let respawns = Arc::clone(&respawns);
            let runs = Arc::clone(&runs);
            SupervisedPool::start(
                2,
                move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    // Burn one unit of "pending work" per run; report a
                    // fault while any remains, exit cleanly once drained.
                    if budget_w
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                        .is_ok()
                    {
                        ExitKind::Panicked
                    } else {
                        ExitKind::Clean
                    }
                },
                move || budget_p.load(Ordering::SeqCst) > 0,
                move || {
                    respawns.fetch_add(1, Ordering::SeqCst);
                },
            )
        };
        pool.join();
        pool.join(); // idempotent
        assert_eq!(budget.load(Ordering::SeqCst), 0, "work drained");
        // Two initial workers can burn at most 2 of the 3 units, so at
        // least one respawned worker must have run to drain the rest.
        assert!(runs.load(Ordering::SeqCst) >= 3);
        assert!(respawns.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn supervised_pool_maps_unwind_to_panicked() {
        // One worker: first run unwinds with work still pending (respawn),
        // the replacement drains the work and retires cleanly.
        let first_run = Arc::new(AtomicUsize::new(1));
        let pending = Arc::new(AtomicUsize::new(1));
        let respawns = Arc::new(AtomicUsize::new(0));
        let pool = {
            let first_run = Arc::clone(&first_run);
            let pending_w = Arc::clone(&pending);
            let pending_p = Arc::clone(&pending);
            let respawns = Arc::clone(&respawns);
            SupervisedPool::start(
                1,
                move || {
                    if first_run.swap(0, Ordering::SeqCst) == 1 {
                        panic!("unwound worker fault");
                    }
                    pending_w.store(0, Ordering::SeqCst);
                    ExitKind::Clean
                },
                move || pending_p.load(Ordering::SeqCst) == 1,
                move || {
                    respawns.fetch_add(1, Ordering::SeqCst);
                },
            )
        };
        pool.join();
        assert_eq!(pending.load(Ordering::SeqCst), 0, "replacement drained");
        assert_eq!(respawns.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn supervised_pool_clean_exit_retires_slots() {
        let runs = Arc::new(AtomicUsize::new(0));
        let pool = {
            let runs = Arc::clone(&runs);
            SupervisedPool::start(
                4,
                move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    ExitKind::Clean
                },
                || true,
                || panic!("clean exits must not respawn"),
            )
        };
        pool.join();
        assert_eq!(runs.load(Ordering::SeqCst), 4);
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
