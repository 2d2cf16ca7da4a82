//! Deterministic parallel Monte Carlo replication.
//!
//! Monte Carlo studies in this workspace (the E15 fault-injection
//! campaign, the E9 protocol-vs-analytic validation, the membership
//! benches) are embarrassingly parallel: every replication is seeded
//! independently and touches no shared state. This module turns that
//! independence into wall-clock speedup *without giving up determinism*:
//!
//! 1. **Counter-based substreams.** Replication `i` draws from
//!    [`SimRng::substream`]`(base_seed, i)` — a pure function of the seed
//!    and the replication index, so the stream is identical no matter
//!    which worker runs the replication.
//! 2. **Fixed merge structure.** Replications are grouped into chunks
//!    whose size is a function of the replication count *only* (the
//!    adaptive default, [`oaq_exec::adaptive_chunk`]) or an explicit
//!    override — never the worker count. Each chunk accumulates into its
//!    own statistic sink, and chunk sinks are merged in ascending chunk
//!    order once all workers finish.
//!
//! Together these make the aggregate a deterministic function of
//! `(replications, base_seed, chunk)` alone: **running with 1, 2, 4 or 64
//! workers produces bit-identical results**, because the worker count only
//! decides *who* computes a chunk, never *what* a chunk contains or the
//! order chunks are merged in. The fan-out itself runs on the
//! [`oaq_exec`] deterministic executor (indexed slots, ordered merge,
//! work-stealing scheduler): a [`Replicator`] is built from one
//! [`Executor`] (or a bare worker count) and adds only the Monte-Carlo
//! layer — substream seeding, the adaptive chunk and the [`Merge`]
//! reduction — on top of it.
//!
//! For sinks whose [`Merge`] is exact — integer counters,
//! order-preserving concatenation — the result is additionally
//! bit-identical to a plain serial `for` loop over the replications. For
//! floating-point sinks ([`crate::stats::Tally`] & co.) the chunked merge
//! regroups the additions, so the result is deterministic and
//! worker-count-independent but may differ from the unchunked loop in the
//! last few ulps; route the serial path through a one-worker
//! [`Replicator`] to get one code path with one answer.
//!
//! # Example
//!
//! ```
//! use oaq_sim::par::{Merge, Replicator};
//! use oaq_sim::stats::Tally;
//!
//! #[derive(Default)]
//! struct Sink {
//!     hits: u64,
//!     sample: Tally,
//! }
//! impl Merge for Sink {
//!     fn merge(&mut self, other: &Self) {
//!         self.hits.merge(&other.hits);
//!         self.sample.merge(&other.sample);
//!     }
//! }
//!
//! let run = |workers| {
//!     Replicator::new(workers).run(10_000, 42, Sink::default, |_, rng, sink| {
//!         let x = rng.exp(0.5);
//!         if x > 2.0 {
//!             sink.hits += 1;
//!         }
//!         sink.sample.record(x);
//!     })
//! };
//! let serial = run(1);
//! let parallel = run(4);
//! assert_eq!(serial.hits, parallel.hits);
//! assert_eq!(serial.sample.mean(), parallel.sample.mean());
//! ```

use crate::rng::SimRng;

/// A statistic that supports an order-stable parallel reduction.
///
/// `merge` folds `other` into `self`. The replication engine always merges
/// partial sinks in ascending replication order, so implementations may
/// (and the stats types do) make the result depend on operand order — what
/// matters is that `merge` is a deterministic function of its operands.
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// Counts and other exact accumulators add.
impl Merge for u64 {
    fn merge(&mut self, other: &Self) {
        *self += *other;
    }
}

/// Floating-point accumulators add (exactly order-stable, but the chunked
/// grouping differs from an unchunked serial sum — see the module docs).
impl Merge for f64 {
    fn merge(&mut self, other: &Self) {
        *self += *other;
    }
}

/// Sequences concatenate, preserving replication order.
impl<T: Clone> Merge for Vec<T> {
    fn merge(&mut self, other: &Self) {
        self.extend_from_slice(other);
    }
}

/// Fixed-size arrays merge elementwise.
impl<T: Merge, const N: usize> Merge for [T; N] {
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other) {
            a.merge(b);
        }
    }
}

/// Every statistics collector reduces via its inherent `merge`; see each
/// type's docs for exactness (integer collectors are exact, floating-point
/// collectors are order-stable, the P² sketch is heuristic).
impl Merge for crate::stats::Counter {
    fn merge(&mut self, other: &Self) {
        crate::stats::Counter::merge(self, other);
    }
}

impl Merge for crate::stats::Tally {
    fn merge(&mut self, other: &Self) {
        crate::stats::Tally::merge(self, other);
    }
}

impl Merge for crate::stats::TimeWeighted {
    fn merge(&mut self, other: &Self) {
        crate::stats::TimeWeighted::merge(self, other);
    }
}

impl Merge for crate::stats::P2Quantile {
    fn merge(&mut self, other: &Self) {
        crate::stats::P2Quantile::merge(self, other);
    }
}

pub use oaq_exec::Executor;

/// A deterministic parallel replication engine.
///
/// See the [module docs](self) for the determinism argument. Constructed
/// from an [`Executor`] (or a bare worker count, `0` = all cores); its
/// chunk override is part of the result's "identity" (it fixes the merge
/// grouping), the worker count and steal schedule are not — which is why
/// the adaptive default is a function of the replication count alone.
#[derive(Debug, Clone, Copy)]
pub struct Replicator {
    exec: Executor,
}

impl Replicator {
    /// An engine fanning chunks out on `exec`; without a chunk override
    /// it chunks adaptively ([`oaq_exec::adaptive_chunk`]).
    #[must_use]
    pub fn new(exec: impl Into<Executor>) -> Self {
        Replicator { exec: exec.into() }
    }

    /// The replications-per-chunk a run of `replications` will use: the
    /// pinned override, else the adaptive policy (a pure function of
    /// `replications`, never the worker count).
    #[must_use]
    pub fn resolved_chunk(&self, replications: u64) -> u64 {
        self.exec
            .chunk_override()
            .unwrap_or_else(|| oaq_exec::adaptive_chunk(replications))
    }

    /// Runs `replications` independent replications, fanning chunks across
    /// the [`oaq_exec`] executor, and returns the merged sink.
    ///
    /// `init` builds an empty per-chunk sink; `body(i, rng, sink)` runs
    /// replication `i` with its dedicated substream
    /// [`SimRng::substream`]`(base_seed, i)` and records into the chunk's
    /// sink. The result is bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// Propagates panics from `body` (the pool observes the first one).
    pub fn run<S, I, F>(&self, replications: u64, base_seed: u64, init: I, body: F) -> S
    where
        S: Merge + Send,
        I: Fn() -> S + Sync,
        F: Fn(u64, &mut SimRng, &mut S) + Sync,
    {
        self.run_scratch(
            replications,
            base_seed,
            init,
            || (),
            |i, rng, _scratch, sink| body(i, rng, sink),
        )
    }

    /// [`run`](Replicator::run) with a per-*worker* scratch value built
    /// once per worker thread and lent to every replication that worker
    /// executes — reusable episode buffers without per-replication
    /// allocation. Sinks stay per-*chunk* (the merge grouping is part of
    /// the result's identity); scratch is per-worker because it is, by
    /// contract, invisible in the result: `body`'s output must be a pure
    /// function of `(i, rng)`, treating the scratch as uninitialized
    /// capacity.
    ///
    /// # Panics
    ///
    /// Propagates panics from `body` (the pool observes the first one).
    pub fn run_scratch<S, C, I, M, F>(
        &self,
        replications: u64,
        base_seed: u64,
        init: I,
        make_scratch: M,
        body: F,
    ) -> S
    where
        S: Merge + Send,
        I: Fn() -> S + Sync,
        M: Fn() -> C + Sync,
        F: Fn(u64, &mut SimRng, &mut C, &mut S) + Sync,
    {
        let chunk = self.resolved_chunk(replications);
        let chunks = replications.div_ceil(chunk);
        let run_chunk = |c: u64, scratch: &mut C| -> S {
            let mut sink = init();
            let lo = c * chunk;
            let hi = (lo + chunk).min(replications);
            for i in lo..hi {
                let mut rng = SimRng::substream(base_seed, i);
                body(i, &mut rng, scratch, &mut sink);
            }
            sink
        };

        // The executor returns chunk sinks in ascending chunk index for
        // any worker count (its one-worker path is the bit-exact serial
        // reference), so the ascending merge below is the whole
        // determinism story at this layer.
        let sinks = self
            .exec
            .run_indexed_scratch(chunks, make_scratch, run_chunk);
        let mut acc = init();
        for sink in &sinks {
            acc.merge(sink);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;

    #[derive(Debug, Clone, PartialEq)]
    struct Sink {
        count: u64,
        sum: f64,
        tally: Tally,
        bits: Vec<u64>,
        order: Vec<u64>,
    }

    impl Sink {
        fn empty() -> Self {
            Sink {
                count: 0,
                sum: 0.0,
                tally: Tally::new(),
                bits: Vec::new(),
                order: Vec::new(),
            }
        }
    }

    impl Merge for Sink {
        fn merge(&mut self, other: &Self) {
            self.count.merge(&other.count);
            self.sum.merge(&other.sum);
            self.tally.merge(&other.tally);
            self.bits.merge(&other.bits);
            self.order.merge(&other.order);
        }
    }

    fn run(workers: usize, chunk: u64) -> Sink {
        Replicator::new(Executor::new(workers).with_chunk(Some(chunk))).run(
            500,
            99,
            Sink::empty,
            |i, rng, sink| {
                let x = rng.exp(0.3);
                sink.count += 1;
                sink.sum += x;
                sink.tally.record(x);
                sink.bits.push(x.to_bits());
                sink.order.push(i);
            },
        )
    }

    #[test]
    fn worker_count_never_changes_the_answer() {
        let reference = run(1, oaq_exec::MIN_CHUNK);
        for workers in [2, 3, 4, 8] {
            assert_eq!(
                run(workers, oaq_exec::MIN_CHUNK),
                reference,
                "{workers} workers"
            );
        }
        assert_eq!(reference.count, 500);
        assert_eq!(reference.order, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn zero_replications_yield_the_empty_sink() {
        let s = Replicator::new(4).run(0, 1, Sink::empty, |_, _, _| unreachable!());
        assert_eq!(s, Sink::empty());
    }

    #[test]
    fn replication_streams_are_substreams() {
        // The rng handed to replication i must be substream i exactly.
        let collected = Replicator::new(3).run(40, 7, Vec::new, |i, rng, sink: &mut Vec<f64>| {
            let expected = SimRng::substream(7, i).unit();
            let got = rng.unit();
            assert_eq!(got, expected);
            sink.push(got);
        });
        assert_eq!(collected.len(), 40);
    }

    #[test]
    fn chunk_size_is_part_of_the_identity_for_floats() {
        // Counts are chunk-invariant; float sums may regroup.
        let a = run(2, 16);
        let b = run(2, 64);
        assert_eq!(a.count, b.count);
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.order, b.order);
        assert!((a.sum - b.sum).abs() < 1e-9);
    }

    #[test]
    fn adaptive_chunk_matches_historical_default_for_small_runs() {
        // ≤ 1024 replications resolve to the old fixed chunk of 16, so
        // pre-adaptive float aggregates are reproduced bit for bit.
        let r = Replicator::new(2);
        assert_eq!(r.resolved_chunk(500), oaq_exec::MIN_CHUNK);
        assert_eq!(r.resolved_chunk(1024), oaq_exec::MIN_CHUNK);
        assert_eq!(r.resolved_chunk(64_000), 1000);
        let pinned = Replicator::new(Executor::new(2).with_chunk(Some(7)));
        assert_eq!(pinned.resolved_chunk(64_000), 7);
    }

    #[test]
    fn scratch_and_forced_steals_cannot_change_the_answer() {
        let reference = run(1, oaq_exec::MIN_CHUNK);
        for workers in [2, 4, 8] {
            for forced in [false, true] {
                let exec = Executor::new(workers)
                    .with_chunk(Some(oaq_exec::MIN_CHUNK))
                    .with_forced_steals(forced);
                let got = Replicator::new(exec).run_scratch(
                    500,
                    99,
                    Sink::empty,
                    Vec::<f64>::new,
                    |i, rng, scratch, sink| {
                        // Stage the draw through the worker scratch to
                        // prove leftover contents are invisible.
                        scratch.push(rng.exp(0.3));
                        let x = *scratch.last().expect("just pushed");
                        sink.count += 1;
                        sink.sum += x;
                        sink.tally.record(x);
                        sink.bits.push(x.to_bits());
                        sink.order.push(i);
                    },
                );
                assert_eq!(got, reference, "{workers} workers, forced={forced}");
            }
        }
    }

    #[test]
    fn adaptive_default_is_worker_count_invariant_above_the_floor() {
        // 5000 replications resolve to an adaptive chunk of 79 — past the
        // floor, so this exercises the policy itself being independent of
        // the worker count.
        let run = |workers: usize| {
            Replicator::new(workers).run(5000, 11, Sink::empty, |i, rng, sink| {
                let x = rng.exp(0.7);
                sink.count += 1;
                sink.sum += x;
                sink.tally.record(x);
                sink.bits.push(x.to_bits());
                sink.order.push(i);
            })
        };
        let reference = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), reference, "{workers} workers");
        }
    }
}
