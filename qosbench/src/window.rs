//! Measurement windows ranked by how much CPU time the host took away.
//!
//! On a virtual machine whose host is oversubscribed, the hypervisor runs
//! other guests on this machine's CPUs for stretches of seconds to minutes
//! (the `steal` column of `/proc/stat`). A closed loop on every CPU then
//! runs at a fraction of its speed: on a 2-vCPU Xeon virtual machine, a
//! campaign step took 5.1 ms in windows with at most 5% of CPU time
//! stolen, 5.5 ms at 5–10%, 7.3–7.8 ms at 20–30% and over 10 ms above
//! 30%. A run inside such a stretch says more about the neighbours than
//! about the program.
//!
//! Each caller therefore cuts its timed phase into windows of about
//! [`WINDOW_S`] seconds and files each window in a tier by its stolen
//! share ([`TIERS`]). The phase runs until it has its requested seconds in
//! the cleanest tier, or [`CAP`] times that in all, and the metrics come
//! from the cleanest tiers that together cover a quarter of the requested
//! seconds. Every answer is still checked, whichever window it falls in.

use crate::stats::{median, Reservoir, Summary};

pub const WINDOW_S: f64 = 0.5;
/// Upper bounds of the stolen share of the tiers; a last tier takes the
/// rest.
pub const TIERS: [f64; 3] = [0.05, 0.1, 0.2];
/// A phase ends once its windows add up to this multiple of the requested
/// seconds.
pub const CAP: f64 = 2.0;
/// Latency samples an open window holds; a window closes early when full.
const PENDING: usize = 1 << 14;

/// CPU time of this machine in clock ticks, in total and stolen.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    steal: u64,
    total: u64,
}

impl Ticks {
    /// The current counters; zero (nothing stolen) where `/proc/stat` is
    /// unreadable.
    pub fn now() -> Ticks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(Ticks::parse))
            .unwrap_or_default()
    }

    /// The aggregate `cpu` line: user nice system idle iowait irq softirq
    /// steal, then guest times already counted in user and nice.
    fn parse(line: &str) -> Ticks {
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Ticks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of the CPU time between `self` and `later` that was stolen.
    pub fn stolen_until(&self, later: &Ticks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// The closed windows of one tier.
#[derive(Debug)]
pub struct Part {
    pub lat: Reservoir,
    /// Operations per second of each window.
    pub rates: Vec<f64>,
    pub secs: f64,
}

/// One closed-loop caller's windows.
#[derive(Debug)]
pub struct Windows {
    opened: Ticks,
    pending: Vec<f64>,
    pending_ops: u64,
    pending_s: f64,
    /// One part per tier, cleanest first.
    pub tiers: Vec<Part>,
}

impl Windows {
    /// `capacity` latency samples are kept for each tier.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Windows {
            opened: Ticks::now(),
            pending: Vec::with_capacity(PENDING),
            pending_ops: 0,
            pending_s: 0.0,
            tiers: (0..=TIERS.len() as u64)
                .map(|k| Part {
                    lat: Reservoir::new(capacity, seed ^ (k << 32)),
                    rates: Vec::new(),
                    secs: 0.0,
                })
                .collect(),
        }
    }

    /// One operation's latency, in milliseconds.
    pub fn record(&mut self, ms: f64) {
        if self.pending.len() < PENDING {
            self.pending.push(ms);
        }
    }

    /// `ops` operations completed over `secs` seconds of the open window.
    pub fn add(&mut self, ops: u64, secs: f64) {
        self.pending_ops += ops;
        self.pending_s += secs;
    }

    /// Closes the open window, judged by its own steal reading, once it
    /// has lasted [`WINDOW_S`] or its sample buffer is full.
    pub fn tick(&mut self) {
        if self.pending_s >= WINDOW_S || self.pending.len() >= PENDING {
            let now = Ticks::now();
            self.close_at(self.opened.stolen_until(&now));
            self.opened = now;
        }
    }

    /// Closes the open window with the stolen share measured over it
    /// (callers that share one window measure it once).
    pub fn close_at(&mut self, stolen: f64) {
        let tier = TIERS
            .iter()
            .position(|&bound| stolen <= bound)
            .unwrap_or(TIERS.len());
        let part = &mut self.tiers[tier];
        for &ms in &self.pending {
            part.lat.record(ms);
        }
        if self.pending_s > 0.0 {
            part.rates.push(self.pending_ops as f64 / self.pending_s);
        }
        part.secs += self.pending_s;
        self.pending.clear();
        self.pending_ops = 0;
        self.pending_s = 0.0;
    }

    /// Whether a phase asked to measure `seconds` may stop.
    pub fn done(&self, seconds: f64) -> bool {
        self.tiers[0].secs >= seconds || self.total_secs() >= CAP * seconds
    }

    fn total_secs(&self) -> f64 {
        self.tiers.iter().map(|p| p.secs).sum()
    }

    /// How many tiers, cleanest first, the metrics come from: enough to
    /// cover a quarter of `seconds`, or all of them.
    pub fn reported_tiers(&self, seconds: f64) -> usize {
        let mut covered = 0.0;
        for (k, part) in self.tiers.iter().enumerate() {
            covered += part.secs;
            if covered >= seconds / 4.0 {
                return k + 1;
            }
        }
        self.tiers.len()
    }
}

/// Latency percentiles and throughput of callers that ran side by side:
/// the throughput is the sum of each caller's median window rate.
pub fn summarize(callers: &[&Windows], seconds: f64) -> (Summary, f64) {
    let parts: Vec<&[Part]> = callers
        .iter()
        .map(|w| &w.tiers[..w.reported_tiers(seconds)])
        .collect();
    let reservoirs: Vec<&Reservoir> = parts
        .iter()
        .flat_map(|ps| ps.iter().map(|p| &p.lat))
        .collect();
    let throughput = parts
        .iter()
        .map(|ps| {
            let mut rates: Vec<f64> = ps.iter().flat_map(|p| p.rates.iter().copied()).collect();
            if rates.is_empty() {
                0.0
            } else {
                median(&mut rates)
            }
        })
        .sum();
    (Summary::of(&reservoirs), throughput)
}

/// Seconds per tier of a caller's windows and the tiers reported, for the
/// notes.
pub fn describe(w: &Windows, seconds: f64) -> String {
    let secs: Vec<String> = w.tiers.iter().map(|p| format!("{:.1}", p.secs)).collect();
    let reported = w.reported_tiers(seconds);
    format!(
        "seconds in windows with at most {:?} of CPU time stolen, and more: {}; metrics from {}",
        TIERS,
        secs.join(" / "),
        TIERS
            .get(reported - 1)
            .map_or("all windows".to_string(), |b| format!(
                "windows with at most {b} stolen"
            ))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_parse_the_aggregate_cpu_line() {
        let a = Ticks::parse("cpu  100 0 50 800 10 0 5 35 0 0");
        assert_eq!((a.steal, a.total), (35, 1000));
        let b = Ticks::parse("cpu  150 0 60 860 10 0 5 115 7 7");
        assert_eq!(a.stolen_until(&b), 80.0 / 200.0);
        assert_eq!(a.stolen_until(&a), 0.0);
        assert_eq!(Ticks::parse("garbage").total, 0);
    }

    #[test]
    fn windows_are_filed_by_stolen_share() {
        let mut w = Windows::new(64, 1);
        w.record(1.0);
        w.add(10, 0.5);
        w.close_at(0.05);
        w.record(2.0);
        w.add(20, 0.5);
        w.close_at(0.07);
        w.record(9.0);
        w.add(10, 2.0);
        w.close_at(0.5);
        let secs: Vec<f64> = w.tiers.iter().map(|p| p.secs).collect();
        assert_eq!(secs, vec![0.5, 0.5, 0.0, 2.0]);
        assert_eq!(w.tiers[0].rates, vec![20.0]);
        assert_eq!(w.tiers[0].lat.sample(), &[1.0]);
        assert_eq!(w.tiers[3].rates, vec![5.0]);
    }

    #[test]
    fn the_cleanest_tiers_covering_a_quarter_report() {
        let mut w = Windows::new(64, 1);
        w.record(1.0);
        w.add(10, 0.5);
        w.close_at(0.0);
        w.record(3.0);
        w.add(40, 0.5);
        w.close_at(0.1);
        w.record(9.0);
        w.add(10, 2.0);
        w.close_at(0.9);
        assert_eq!(
            w.reported_tiers(2.0),
            1,
            "0.5 s clean covers a quarter of 2 s"
        );
        assert_eq!(w.reported_tiers(4.0), 2, "1 s in the two cleanest tiers");
        assert_eq!(w.reported_tiers(20.0), 4);
        let (lat, throughput) = summarize(&[&w, &w], 2.0);
        assert_eq!((lat.p50, throughput), (1.0, 40.0));
        // Nearest-rank medians: of the rates 20 and 80 per second, 20.
        let (lat, throughput) = summarize(&[&w], 4.0);
        assert_eq!((lat.p90, throughput), (3.0, 20.0));
    }

    #[test]
    fn a_phase_stops_at_its_clean_seconds_or_the_cap() {
        let mut w = Windows::new(64, 1);
        w.add(1, 0.5);
        w.close_at(0.01);
        w.add(1, 2.0);
        w.close_at(0.3);
        assert!(w.done(0.5), "0.5 s clean");
        assert!(!w.done(1.3), "2.5 s measured, 0.5 s of it clean");
        assert!(w.done(1.25), "2.5 s measured reaches twice 1.25 s");
    }

    #[test]
    fn tick_closes_a_window_only_when_it_is_long_enough() {
        let mut w = Windows::new(64, 1);
        w.record(2.0);
        w.add(1, WINDOW_S / 2.0);
        w.tick();
        assert_eq!(w.total_secs(), 0.0);
        w.add(1, WINDOW_S / 2.0);
        w.tick();
        assert_eq!(w.total_secs(), WINDOW_S);
    }
}
