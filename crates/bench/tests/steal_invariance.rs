//! Steal-schedule invariance: the deterministic work-stealing scheduler
//! must be invisible in every aggregate the bench layer publishes.
//!
//! The campaign cell, the conditional-QoS estimator and the
//! membership-assisted recruitment tally are each run serially and then
//! re-run under every worker count × chunk override × forced-steal
//! combination; all answers must be bitwise identical to the serial one.
//! Chunk size and steal interleaving change *which worker* computes each
//! replication — never the substream it draws from or the order results
//! merge in — so any drift here is a scheduler bug, not noise.

use oaq_bench::campaign::{
    replay_episode_scenario, run_cell_scenario, CellSpec, LossAxis, Scenario,
};
use oaq_bench::recruit::run_membership;
use oaq_core::config::{MembershipHints, ProtocolConfig, Scheme};
use oaq_core::experiment::{estimate_conditional_qos_par, MonteCarloOptions};
use oaq_exec::Executor;

const WORKERS: [usize; 3] = [2, 4, 8];
const CHUNKS: [Option<u64>; 3] = [None, Some(16), Some(7)];
const SEED: u64 = 20030622;

/// Every worker count × chunk override × forced-steal combination.
fn schedules() -> impl Iterator<Item = Executor> {
    WORKERS.into_iter().flat_map(|workers| {
        CHUNKS.into_iter().flat_map(move |chunk| {
            [false, true].map(move |forced| {
                Executor::new(workers)
                    .with_chunk(chunk)
                    .with_forced_steals(forced)
            })
        })
    })
}

#[test]
fn campaign_cell_is_steal_schedule_invariant() {
    let cfg = ProtocolConfig::reference(9, Scheme::Oaq);
    let spec = CellSpec {
        loss: LossAxis::Iid { p: 0.2 },
        node_failure_rate: 0.25,
        retry_budget: 1,
    };
    let serial = run_cell_scenario(&Scenario::new(&cfg, 1), &spec, 160, SEED);
    for exec in schedules() {
        let par = run_cell_scenario(&Scenario::new(&cfg, exec), &spec, 160, SEED);
        assert_eq!(par, serial, "cell drifted at {exec:?}");
    }
}

#[test]
fn qos_estimate_is_steal_schedule_invariant() {
    let cfg = ProtocolConfig::reference(9, Scheme::Oaq);
    let opts = MonteCarloOptions {
        episodes: 128,
        mu: 0.5,
        seed: SEED,
    };
    let serial = estimate_conditional_qos_par(&cfg, &opts, 1);
    for exec in schedules() {
        let par = estimate_conditional_qos_par(&cfg, &opts, exec);
        assert_eq!(par, serial, "QoS drifted at {exec:?}");
    }
}

#[test]
fn membership_aggregate_is_steal_schedule_invariant() {
    let mut cfg = ProtocolConfig::reference(9, Scheme::Oaq);
    cfg.tau = 25.0;
    cfg.membership = Some(MembershipHints::default());
    let serial = run_membership(&cfg, 96, SEED, 1);
    for exec in schedules() {
        let par = run_membership(&cfg, 96, SEED, exec);
        assert_eq!(par, serial, "membership drifted at {exec:?}");
    }
}

#[test]
fn forced_steals_never_change_a_replay() {
    // The replay path runs single-episode and must be untouched by the
    // scenario's scheduling knobs: the same (spec, seed, index) replays to
    // the identical outcome and trace no matter how the campaign that
    // surfaced it was scheduled.
    let cfg = ProtocolConfig::reference(9, Scheme::Oaq);
    let spec = CellSpec {
        loss: LossAxis::Bursty {
            marginal: 0.3,
            burst_len: 4.0,
        },
        node_failure_rate: 0.3,
        retry_budget: 1,
    };
    let plain = Scenario::new(&cfg, 1);
    let stolen = Scenario::new(
        &cfg,
        Executor::new(8)
            .with_chunk(Some(3))
            .with_forced_steals(true),
    );
    for i in [0u64, 5, 42] {
        let (out_a, trace_a) = replay_episode_scenario(&plain, &spec, SEED, i);
        let (out_b, trace_b) = replay_episode_scenario(&stolen, &spec, SEED, i);
        assert_eq!(out_a, out_b, "replay outcome drifted at episode {i}");
        assert_eq!(trace_a, trace_b, "replay trace drifted at episode {i}");
    }
}
