//! The engine's two headline guarantees, tested end to end:
//!
//! 1. **Bit-identity** — for any seeded Zipf workload, every answer the
//!    concurrent, cached engine produces equals the naive single-threaded
//!    direct evaluation *bit for bit* (`assert_eq!` on f64, no tolerance).
//! 2. **Determinism** — two engines replaying the same seed produce
//!    byte-identical result JSON.

use proptest::prelude::*;

use oaq_engine::{
    direct_eval, zipf_workload, Engine, EngineConfig, EngineError, EngineResult, QosQuery,
    WorkloadConfig,
};

fn engine(workers: usize, queue: usize) -> Engine {
    Engine::new(EngineConfig {
        workers,
        queue_capacity: queue,
        result_cache: 512,
        pk_cache: 64,
        ..EngineConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// `run_all` at 1, 2 and 4 workers answers a seeded workload in
    /// input order, bit-identically to direct evaluation.
    #[test]
    fn engine_is_bit_identical_to_direct_eval(
        seed in any::<u64>(),
        scenarios in 4usize..20,
        queries in 40usize..160,
    ) {
        let workload = zipf_workload(
            &WorkloadConfig { scenarios, skew: 1.0, queries },
            seed,
        );
        for workers in [1, 2, 4] {
            let eng = engine(workers, 32);
            let served = eng.run_all(&workload);
            prop_assert_eq!(served.len(), workload.len());
            for (i, (q, r)) in workload.iter().zip(&served).enumerate() {
                let direct = direct_eval(q).expect("in-domain workload");
                let got = r.as_ref().expect("engine must answer in-domain queries");
                prop_assert_eq!(
                    got, &direct,
                    "query {} diverged at {} workers (seed {})", i, workers, seed
                );
            }
            let m = eng.metrics();
            prop_assert_eq!(m.submitted, queries as u64);
            // Every accepted query is either answered directly (computed
            // or cache hit) or coalesced onto an identical in-flight
            // computation.
            prop_assert_eq!(m.served + m.coalesced, queries as u64);
            prop_assert!(
                m.result_cache_hits + m.coalesced > 0,
                "a Zipf workload over {} scenarios must repeat itself", scenarios
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn same_seed_two_engines_identical_json(seed in any::<u64>()) {
        let cfg = WorkloadConfig { scenarios: 12, skew: 1.0, queries: 120 };
        let run = |workers: usize| {
            let workload = zipf_workload(&cfg, seed);
            let eng = engine(workers, 64);
            format!("{:?}", eng.run_all(&workload))
        };
        // Different worker counts and scheduling, same seed: the results'
        // `Debug` rendering (each f64 in its shortest round-trip form,
        // every error field shown; no timing) must be byte-identical.
        prop_assert_eq!(run(1), run(4));
    }
}

/// Replays `queries` through `evaluate` from `callers` threads (caller
/// `c` takes every `callers`-th query), returning answers in workload
/// order.
fn replay_inline(engine: &Engine, queries: &[QosQuery], callers: usize) -> Vec<EngineResult> {
    let mut answers: Vec<Option<EngineResult>> = vec![None; queries.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                s.spawn(move || {
                    (c..queries.len())
                        .step_by(callers)
                        .map(|i| (i, engine.evaluate(queries[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("caller panicked") {
                answers[i] = Some(r);
            }
        }
    });
    answers
        .into_iter()
        .map(|a| a.expect("every query answered"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// The inline path: a seeded workload through `evaluate` — run on the
    /// callers' own threads — is bit-identical to direct evaluation from
    /// 1, 2 and 4 concurrent callers.
    #[test]
    fn evaluate_is_bit_identical_to_direct_eval(seed in any::<u64>()) {
        let workload = zipf_workload(
            &WorkloadConfig { scenarios: 10, skew: 1.0, queries: 60 },
            seed,
        );
        for callers in [1, 2, 4] {
            let eng = engine(2, 32);
            let served = replay_inline(&eng, &workload, callers);
            for (i, (q, r)) in workload.iter().zip(&served).enumerate() {
                let direct = direct_eval(q).expect("in-domain workload");
                prop_assert_eq!(
                    r.as_ref().expect("engine must answer in-domain queries"),
                    &direct,
                    "query {} diverged at {} callers (seed {})", i, callers, seed
                );
            }
            let m = eng.metrics();
            prop_assert_eq!(m.submitted, workload.len() as u64);
            prop_assert_eq!(m.served + m.coalesced, workload.len() as u64);
        }
    }
}

#[test]
fn warm_replay_is_bit_identical_and_solve_free() {
    let cfg = WorkloadConfig {
        scenarios: 10,
        skew: 1.0,
        queries: 80,
    };
    let workload = zipf_workload(&cfg, 7);
    let eng = engine(3, 32);
    let cold = eng.run_all(&workload);
    let solves_after_cold = eng.metrics().pk_solves;
    let warm = eng.run_all(&workload);
    assert_eq!(
        cold, warm,
        "warm cache hits equal cold computes bit-for-bit"
    );
    let m = eng.metrics();
    assert_eq!(
        m.pk_solves, solves_after_cold,
        "a fully warm replay must not run any CTMC solve"
    );
    assert!(
        m.result_cache_hits >= cfg.queries as u64,
        "the second pass should be all cache hits: {m:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Supervision property: under a seeded panicking evaluator, every
    /// query of a `run_all` batch at 1, 2 and 4 workers still reaches
    /// exactly one terminal outcome, and every `Ok` answer remains
    /// bit-identical to the direct evaluation.
    #[test]
    fn panics_never_lose_queries_or_perturb_answers(seed in any::<u64>()) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use oaq_engine::{Evaluator, QueryError};

        /// Panics on ~1 in 6 solves, decided by a seeded counter stream.
        struct SeededBomb {
            seed: u64,
            calls: AtomicU64,
        }
        impl Evaluator for SeededBomb {
            fn solve_pk(&self, query: &oaq_engine::QosQuery) -> Result<Vec<f64>, EngineError> {
                let n = self.calls.fetch_add(1, Ordering::Relaxed);
                if oaq_sim::SimRng::substream(self.seed, n).chance(1.0 / 6.0) {
                    std::panic::panic_any(oaq_engine::INJECTED_FAULT);
                }
                query.capacity_params().distribution().map_err(EngineError::from)
            }
        }

        oaq_engine::silence_injected_panics();
        let workload = zipf_workload(
            &WorkloadConfig { scenarios: 12, skew: 1.0, queries: 60 },
            seed,
        );
        for workers in [1, 2, 4] {
            let eng = Engine::with_evaluator(
                EngineConfig {
                    workers,
                    queue_capacity: 32,
                    result_cache: 256,
                    pk_cache: 32,
                    ..EngineConfig::default()
                },
                Arc::new(SeededBomb { seed, calls: AtomicU64::new(0) }),
            );
            let served = eng.run_all(&workload);
            prop_assert_eq!(served.len(), workload.len(), "no query may vanish");
            for (q, r) in workload.iter().zip(&served) {
                match r {
                    Ok(v) => prop_assert_eq!(v, &direct_eval(q).unwrap(), "bit-identical"),
                    Err(EngineError::Query(QueryError::EvalPanicked))
                    | Err(EngineError::WorkerLost) => {}
                    Err(e) => prop_assert!(false, "unexpected terminal outcome: {e}"),
                }
            }
            let m = eng.metrics();
            prop_assert_eq!(m.served + m.coalesced, workload.len() as u64);
        }
    }
}
