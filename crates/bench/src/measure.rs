//! The one timer every benchmark binary measures through.

use std::time::Instant;

/// Wall-clock seconds per call of `f`: one untimed warm-up call, then the
/// minimum over `rounds` timing rounds of the mean of `reps` calls each.
///
/// The warm-up keeps first-touch page faults and lazy initialisation out
/// of whichever path is timed first. The minimum over rounds is the robust
/// estimate on a shared box, where preemption only ever *adds* time; a
/// round must stay long enough (`reps` high enough) that one preemption
/// burst cannot straddle every round.
///
/// # Panics
///
/// Panics if `rounds` or `reps` is zero.
pub fn per_call<T>(rounds: usize, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(
        rounds > 0 && reps > 0,
        "need at least one round of one call"
    );
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::per_call;

    #[test]
    fn warms_up_once_then_runs_every_round() {
        let mut calls = 0;
        let secs = per_call(3, 4, || calls += 1);
        assert_eq!(calls, 1 + 3 * 4);
        assert!(secs.is_finite() && secs >= 0.0);
    }
}
