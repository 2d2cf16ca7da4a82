//! Engine counters read before and after a timed phase.

use oaq_engine::Engine;

#[derive(Debug, Clone, Copy)]
pub struct Counters {
    result_hits: u64,
    result_misses: u64,
    pk_hits: u64,
    pk_solves: u64,
    contended: u64,
    queued: u64,
}

impl Counters {
    pub fn read(engine: &Engine) -> Self {
        let m = engine.metrics();
        let c = engine.cache_stats();
        Counters {
            result_hits: c.result.iter().map(|s| s.hits).sum(),
            result_misses: c.result.iter().map(|s| s.misses).sum(),
            pk_hits: m.pk_cache_hits,
            pk_solves: m.pk_solves,
            contended: c.total_contended(),
            queued: m.queue_wait.count,
        }
    }

    /// The engine's per-layer metrics over the phase since `self` was read.
    pub fn layer_metrics(&self, engine: &Engine) -> Vec<(&'static str, f64)> {
        let after = Counters::read(engine);
        let ratio = |hit: u64, other: u64| {
            if hit + other == 0 {
                0.0
            } else {
                hit as f64 / (hit + other) as f64
            }
        };
        // The queue-wait median is the engine's streaming estimate over its
        // lifetime; a phase that queued nothing (all cache hits) reads zero.
        let queue_wait_us = if after.queued == self.queued {
            0.0
        } else {
            engine.metrics().queue_wait.p50 * 1e6
        };
        vec![
            (
                "engine.result_hit_ratio",
                ratio(
                    after.result_hits - self.result_hits,
                    after.result_misses - self.result_misses,
                ),
            ),
            (
                "engine.pk_hit_ratio",
                ratio(
                    after.pk_hits - self.pk_hits,
                    after.pk_solves - self.pk_solves,
                ),
            ),
            (
                "engine.contended",
                (after.contended - self.contended) as f64,
            ),
            ("engine.queue_wait_p50_us", queue_wait_us),
        ]
    }
}
