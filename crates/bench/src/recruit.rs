//! Membership-assisted recruitment (E12) as a replicated aggregate:
//! satellite 1 is dead from the start, and each episode tallies whether
//! the survivors still reached sequential dual coverage.

use oaq_core::config::ProtocolConfig;
use oaq_core::protocol::{Episode, EpisodeScratch};
use oaq_core::qos_level::QosLevel;
use oaq_exec::Executor;
use oaq_sim::par::{Merge, Replicator};
use oaq_sim::rng::substream_seed;

/// Recruitment tallies (all-integer, so the merge is exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecruitSink {
    /// Episodes reaching sequential dual coverage or better.
    pub seq: u64,
    /// Episodes that missed the signal.
    pub missed: u64,
    /// Protocol messages sent, summed over episodes.
    pub msgs: u64,
}

impl Merge for RecruitSink {
    fn merge(&mut self, other: &Self) {
        self.seq.merge(&other.seq);
        self.missed.merge(&other.missed);
        self.msgs.merge(&other.msgs);
    }
}

/// Runs `episodes` recruitment episodes of `cfg` fanned out on `exec` (a
/// bare worker count converts, `0` = one per core).
///
/// Episode `i` draws its signal birth from substream `(base_seed, i)` and
/// seeds its protocol run from the same substream value plus one, so
/// every scheduling configuration tallies the identical counts.
#[must_use]
pub fn run_membership(
    cfg: &ProtocolConfig,
    episodes: u64,
    base_seed: u64,
    exec: impl Into<Executor>,
) -> RecruitSink {
    Replicator::new(exec).run_scratch(
        episodes,
        base_seed,
        RecruitSink::default,
        EpisodeScratch::new,
        |i, rng, scratch, sink| {
            let birth = 90.0 + rng.uniform(0.0, 10.0);
            let seed = substream_seed(base_seed, i).wrapping_add(1);
            let mut ep = Episode::new(cfg, seed);
            ep.add_failure(1, 0.0);
            let out = ep.run_scratch(birth, 15.0, scratch);
            if out.level >= QosLevel::SequentialDual {
                sink.seq += 1;
            }
            if out.level == QosLevel::Missed {
                sink.missed += 1;
            }
            sink.msgs += out.messages_sent;
        },
    )
}
