//! Property-based tests of the event kernel, statistics, and the
//! deterministic parallel replication engine.

use std::collections::HashSet;

use oaq_sim::par::{Executor, Merge, Replicator};
use oaq_sim::rng::substream_seed;
use oaq_sim::stats::{Tally, TimeWeighted};
use oaq_sim::{EventQueue, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn queue_pops_in_nondecreasing_time_order(
        times in prop::collection::vec(0.0f64..1e6, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::new(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn queue_ties_preserve_fifo(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::new(1.0), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_removes_exactly_the_cancelled(
        times in prop::collection::vec(0.0f64..100.0, 2..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 2..100),
    ) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.push(SimTime::new(t), i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, h) in &handles {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                q.cancel(*h);
            } else {
                expected.push(*i);
            }
        }
        let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        seen.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);
    }

    #[test]
    fn tally_merge_is_order_independent(
        xs in prop::collection::vec(-100.0f64..100.0, 1..50),
        ys in prop::collection::vec(-100.0f64..100.0, 1..50),
    ) {
        let tally_of = |v: &[f64]| {
            let mut t = Tally::new();
            for &x in v {
                t.record(x);
            }
            t
        };
        let mut ab = tally_of(&xs);
        ab.merge(&tally_of(&ys));
        let mut ba = tally_of(&ys);
        ba.merge(&tally_of(&xs));
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-9);
        prop_assert_eq!(ab.count(), ba.count());
    }

    #[test]
    fn time_weighted_average_is_bounded_by_extremes(
        levels in prop::collection::vec(0.0f64..10.0, 1..50),
    ) {
        let mut w = TimeWeighted::new(levels[0], SimTime::ZERO);
        for (i, &l) in levels.iter().enumerate().skip(1) {
            w.update(l, SimTime::new(i as f64));
        }
        let end = SimTime::new(levels.len() as f64);
        let avg = w.time_average(end);
        let lo = levels.iter().copied().fold(f64::MAX, f64::min);
        let hi = levels.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(avg >= lo - 1e-12 && avg <= hi + 1e-12);
    }

    #[test]
    fn exp_samples_are_positive_and_seeded(seed in any::<u64>(), rate in 0.01f64..100.0) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..50 {
            let x = a.exp(rate);
            prop_assert!(x >= 0.0 && x.is_finite());
            prop_assert_eq!(x, b.exp(rate));
        }
    }

    #[test]
    fn time_weighted_merge_equals_sequential(
        levels in prop::collection::vec(0.0f64..10.0, 2..40),
        split in 1usize..39,
    ) {
        prop_assume!(split < levels.len());
        let sequential = {
            let mut w = TimeWeighted::new(levels[0], SimTime::ZERO);
            for (i, &l) in levels.iter().enumerate().skip(1) {
                w.update(l, SimTime::new(i as f64));
            }
            w
        };
        let mut left = TimeWeighted::new(levels[0], SimTime::ZERO);
        for (i, &l) in levels.iter().enumerate().take(split).skip(1) {
            left.update(l, SimTime::new(i as f64));
        }
        let mut right = TimeWeighted::new(levels[split - 1], SimTime::new((split - 1) as f64));
        for (i, &l) in levels.iter().enumerate().skip(split) {
            right.update(l, SimTime::new(i as f64));
        }
        left.merge(&right);
        let end = SimTime::new(levels.len() as f64);
        prop_assert!((left.time_average(end) - sequential.time_average(end)).abs() < 1e-9);
        prop_assert_eq!(left.min_level(), sequential.min_level());
        prop_assert_eq!(left.max_level(), sequential.max_level());
    }

    #[test]
    fn replicator_is_worker_count_invariant(
        replications in 0u64..300,
        seed in any::<u64>(),
    ) {
        #[derive(Debug, Clone, PartialEq, Default)]
        struct Sink {
            count: u64,
            bits: Vec<u64>,
            order: Vec<u64>,
        }
        impl Merge for Sink {
            fn merge(&mut self, other: &Self) {
                self.count.merge(&other.count);
                self.bits.merge(&other.bits);
                self.order.merge(&other.order);
            }
        }
        let run = |workers: usize, chunk: Option<u64>, forced: bool| {
            let exec = Executor::new(workers)
                .with_chunk(chunk)
                .with_forced_steals(forced);
            Replicator::new(exec).run(replications, seed, Sink::default, |i, rng, sink| {
                    let x = rng.exp(0.4);
                    sink.count += 1;
                    sink.bits.push(x.to_bits());
                    sink.order.push(i);
                })
        };
        let serial = run(1, None, false);
        prop_assert_eq!(serial.count, replications);
        prop_assert_eq!(&serial.order, &(0..replications).collect::<Vec<_>>());
        // Every worker count x chunk override x forced-steal interleaving
        // must reproduce the serial aggregate bit-for-bit: the schedule
        // decides which worker computes a replication, never its substream
        // or the chunk-ascending merge order.
        for workers in [2usize, 4, 8] {
            for chunk in [None, Some(16u64), Some(7), Some(1)] {
                for forced in [false, true] {
                    prop_assert_eq!(&run(workers, chunk, forced), &serial);
                }
            }
        }
    }
}

#[test]
fn substreams_do_not_collide_over_10k_ids() {
    // Counter-based derivation must give every replication a distinct
    // stream: no seed collisions and no identical first draws across 10k
    // consecutive stream ids (a collision would silently correlate
    // replications).
    let base = 0xDEAD_BEEF_u64;
    let mut seeds = HashSet::new();
    let mut first_draws = HashSet::new();
    for id in 0..10_000u64 {
        assert!(
            seeds.insert(substream_seed(base, id)),
            "seed collision at stream id {id}"
        );
        let draw = SimRng::substream(base, id).unit();
        assert!(
            first_draws.insert(draw.to_bits()),
            "first-draw collision at stream id {id}"
        );
    }
}
