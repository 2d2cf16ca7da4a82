//! Fault injection: fail-silent nodes, crash-recovery windows, and
//! transient per-edge link outages.

use oaq_sim::SimTime;

use crate::message::NodeId;

/// One failure interval of a node.
///
/// The interval is half-open `[from, until)`; `until = None` means the node
/// never recovers (the classic fail-silent mode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureWindow {
    /// When the node stops sending and receiving.
    pub from: SimTime,
    /// When the node comes back, if ever.
    pub until: Option<SimTime>,
}

impl FailureWindow {
    /// `true` while the window covers `now`.
    #[must_use]
    pub fn covers(&self, now: SimTime) -> bool {
        self.from <= now && self.until.is_none_or(|u| now < u)
    }
}

/// A transient outage of one undirected crosslink edge, half-open
/// `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outage {
    from: SimTime,
    until: SimTime,
}

/// A schedule of injected faults.
///
/// Three fault classes are supported, matching the robustness campaign's
/// sweep axes:
///
/// * **fail-silent** nodes ([`FaultPlan::fail_at`]): stop sending and
///   receiving at an instant and never recover — the paper's assumed
///   satellite failure mode;
/// * **crash-recovery** nodes ([`FaultPlan::fail_between`]): silent during a
///   window `[from, until)`, then live again — a reboot or a transient
///   payload fault;
/// * **link outages** ([`FaultPlan::outage_between`]): one undirected edge
///   drops every message during a window, while both endpoints stay alive —
///   antenna occlusion, pointing loss, interference.
///
/// All queries are pure functions of the plan and `now`, so a plan is
/// deterministic by construction and can be replayed.
///
/// # Examples
///
/// ```
/// use oaq_net::fault::FaultPlan;
/// use oaq_net::NodeId;
/// use oaq_sim::SimTime;
///
/// let mut plan = FaultPlan::new();
/// plan.fail_at(NodeId(3), SimTime::new(10.0));
/// plan.fail_between(NodeId(4), SimTime::new(2.0), SimTime::new(5.0));
/// assert!(!plan.is_failed(NodeId(3), SimTime::new(9.9)));
/// assert!(plan.is_failed(NodeId(3), SimTime::new(10.0)));
/// assert!(plan.is_failed(NodeId(4), SimTime::new(3.0)));
/// assert!(!plan.is_failed(NodeId(4), SimTime::new(5.0))); // recovered
/// ```
/// Fault queries sit on the protocol's per-event hot path (`alive()` asks
/// `is_failed` for every satellite a coverage scan touches), so the plan
/// stores flat vectors sorted by node (edge) and answers with a binary
/// search instead of hashing — campaign plans hold a handful of entries and
/// the lookup is a couple of comparisons, with no per-query hashing cost.
/// Flat storage also lets [`FaultPlan::clear`] keep every buffer's capacity,
/// so a recycled plan schedules a fresh episode's faults without touching
/// the allocator. A bit per node marks the nodes that have any window, so
/// a query about a node that never fails (most of a mega-constellation's
/// coverage scans) skips the search.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    windows: Vec<(NodeId, FailureWindow)>,
    outages: Vec<((NodeId, NodeId), Outage)>,
    /// Bit `n` is set once node `n` has a window; never set otherwise.
    scheduled: Vec<u64>,
}

/// Normalizes an undirected edge key.
fn edge(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Forgets every scheduled fault while keeping the buffers' capacity,
    /// so a recycled plan is allocation-free to repopulate.
    pub fn clear(&mut self) {
        self.windows.clear();
        self.outages.clear();
        self.scheduled.fill(0);
    }

    /// Marks `node` as having a window.
    fn mark(&mut self, node: NodeId) {
        let word = node.0 as usize / 64;
        if word >= self.scheduled.len() {
            self.scheduled.resize(word + 1, 0);
        }
        self.scheduled[word] |= 1 << (node.0 % 64);
    }

    /// `false` only if `node` has no window at all.
    fn may_fail(&self, node: NodeId) -> bool {
        self.scheduled
            .get(node.0 as usize / 64)
            .is_some_and(|word| word >> (node.0 % 64) & 1 == 1)
    }

    /// The index range of `node`'s windows in the sorted flat vector.
    fn node_range(&self, node: NodeId) -> std::ops::Range<usize> {
        let lo = self.windows.partition_point(|e| e.0 .0 < node.0);
        let hi = lo + self.windows[lo..].partition_point(|e| e.0 .0 == node.0);
        lo..hi
    }

    /// Schedules `node` to go fail-silent at `at`, permanently. If the node
    /// already has a permanent failure the earlier one wins.
    ///
    /// Each call inserts into the sorted vector; to schedule many failures
    /// at once use [`FaultPlan::fail_all`].
    pub fn fail_at(&mut self, node: NodeId, at: SimTime) {
        self.mark(node);
        let range = self.node_range(node);
        let end = range.end;
        if let Some(e) = self.windows[range].iter_mut().find(|e| e.1.until.is_none()) {
            e.1.from = e.1.from.min(at);
        } else {
            self.windows.insert(
                end,
                (
                    node,
                    FailureWindow {
                        from: at,
                        until: None,
                    },
                ),
            );
        }
    }

    /// Schedules a crash-recovery window: `node` is silent during
    /// `[from, until)` and alive again afterwards.
    ///
    /// # Panics
    ///
    /// Panics unless `from < until`.
    pub fn fail_between(&mut self, node: NodeId, from: SimTime, until: SimTime) {
        assert!(from < until, "failure window must have from < until");
        self.mark(node);
        let at = self.node_range(node).end;
        self.windows.insert(
            at,
            (
                node,
                FailureWindow {
                    from,
                    until: Some(until),
                },
            ),
        );
    }

    /// Schedules every `permanent` fail-silent onset and every `windows`
    /// crash-recovery window `(node, from, until)` in one pass. The plan
    /// then answers every query exactly as after [`FaultPlan::fail_at`] for
    /// each permanent failure followed by [`FaultPlan::fail_between`] for
    /// each window, without one mid-vector insert per failure.
    ///
    /// Each list is merged in by node, permanent first on ties; when both
    /// are in node order (as a plan drawn satellite by satellite is) the
    /// build is O(f) appends, otherwise one in-place sort follows; either
    /// way it needs no buffer beyond the plan's own.
    ///
    /// # Panics
    ///
    /// Panics unless every window has `from < until`.
    pub fn fail_all<P, W>(&mut self, permanent: P, windows: W)
    where
        P: IntoIterator<Item = (NodeId, SimTime)>,
        W: IntoIterator<Item = (NodeId, SimTime, SimTime)>,
    {
        let mut permanent = permanent.into_iter().peekable();
        let mut windows = windows.into_iter().peekable();
        loop {
            let take_permanent = match (permanent.peek(), windows.peek()) {
                (Some(p), Some(w)) => p.0 .0 <= w.0 .0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let entry = if take_permanent {
                let (node, from) = permanent.next().expect("peeked");
                (node, FailureWindow { from, until: None })
            } else {
                let (node, from, until) = windows.next().expect("peeked");
                assert!(from < until, "failure window must have from < until");
                (
                    node,
                    FailureWindow {
                        from,
                        until: Some(until),
                    },
                )
            };
            self.mark(entry.0);
            self.windows.push(entry);
        }
        // Node order is what `node_range` needs; permanent failures first
        // within a node make duplicates adjacent for the merge below.
        let key = |e: &(NodeId, FailureWindow)| (e.0 .0, e.1.until.is_some());
        if !self.windows.is_sorted_by_key(key) {
            self.windows.sort_unstable_by_key(key);
        }
        // One permanent failure per node, the earliest, as `fail_at` keeps.
        self.windows.dedup_by(|later, kept| {
            let merge = later.0 == kept.0 && later.1.until.is_none() && kept.1.until.is_none();
            if merge {
                kept.1.from = kept.1.from.min(later.1.from);
            }
            merge
        });
    }

    /// Schedules a transient outage of the undirected edge `{a, b}` during
    /// `[from, until)`. Messages attempted across the edge in that window
    /// are dropped deterministically.
    ///
    /// # Panics
    ///
    /// Panics unless `from < until`.
    pub fn outage_between(&mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) {
        assert!(from < until, "outage window must have from < until");
        let key = edge(a, b);
        let at = self
            .outages
            .partition_point(|e| (e.0 .0 .0, e.0 .1 .0) <= (key.0 .0, key.1 .0));
        self.outages.insert(at, (key, Outage { from, until }));
    }

    /// `true` if any of `node`'s failure windows covers `now`.
    #[must_use]
    pub fn is_failed(&self, node: NodeId, now: SimTime) -> bool {
        self.may_fail(node) && {
            let range = self.node_range(node);
            self.windows[range].iter().any(|e| e.1.covers(now))
        }
    }

    /// `true` if the undirected edge `{a, b}` is in an outage at `now`.
    #[must_use]
    pub fn is_outaged(&self, a: NodeId, b: NodeId, now: SimTime) -> bool {
        let key = (edge(a, b).0 .0, edge(a, b).1 .0);
        let lo = self
            .outages
            .partition_point(|e| (e.0 .0 .0, e.0 .1 .0) < key);
        self.outages[lo..]
            .iter()
            .take_while(|e| (e.0 .0 .0, e.0 .1 .0) == key)
            .any(|e| e.1.from <= now && now < e.1.until)
    }

    /// `true` if a failure-detection service with detection latency
    /// `latency_minutes` would report `node` as failed at `now` — i.e. the
    /// node was failed `latency_minutes` ago. A node that recovered less
    /// than one latency ago is still (staly) reported failed, matching how
    /// real hint services lag reality in both directions.
    #[must_use]
    pub fn detected_failed(&self, node: NodeId, now: SimTime, latency_minutes: f64) -> bool {
        // The detector reports the world as it was one latency ago; before
        // one latency has elapsed it has nothing to report. A failure that
        // began after the observation instant is unknown to the detector
        // even if the node is failed right now.
        let observed = now.as_minutes() - latency_minutes;
        observed >= 0.0 && self.is_failed(node, SimTime::new(observed))
    }

    /// The earliest failure onset of `node`, if any window is scheduled.
    #[must_use]
    pub fn failure_time(&self, node: NodeId) -> Option<SimTime> {
        let range = self.node_range(node);
        self.windows[range].iter().map(|e| e.1.from).min()
    }

    /// The failure windows of `node` (empty iterator when none scheduled).
    pub fn failure_windows(&self, node: NodeId) -> impl Iterator<Item = &FailureWindow> {
        let range = self.node_range(node);
        self.windows[range].iter().map(|e| &e.1)
    }

    /// Number of nodes with at least one scheduled failure window.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut prev = None;
        for e in &self.windows {
            if prev != Some(e.0 .0) {
                n += 1;
                prev = Some(e.0 .0);
            }
        }
        n
    }

    /// `true` when neither node failures nor edge outages are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.outages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscheduled_nodes_never_fail() {
        let plan = FaultPlan::new();
        assert!(!plan.is_failed(NodeId(0), SimTime::new(1e9)));
        assert!(plan.is_empty());
    }

    #[test]
    fn earlier_failure_wins() {
        let mut plan = FaultPlan::new();
        plan.fail_at(NodeId(1), SimTime::new(5.0));
        plan.fail_at(NodeId(1), SimTime::new(3.0));
        plan.fail_at(NodeId(1), SimTime::new(9.0));
        assert_eq!(plan.failure_time(NodeId(1)), Some(SimTime::new(3.0)));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn boundary_is_inclusive() {
        let mut plan = FaultPlan::new();
        plan.fail_at(NodeId(2), SimTime::new(4.0));
        assert!(plan.is_failed(NodeId(2), SimTime::new(4.0)));
        assert!(!plan.is_failed(NodeId(2), SimTime::new(3.999_999)));
    }

    #[test]
    fn crash_recovery_window_is_half_open() {
        let mut plan = FaultPlan::new();
        plan.fail_between(NodeId(7), SimTime::new(2.0), SimTime::new(5.0));
        assert!(!plan.is_failed(NodeId(7), SimTime::new(1.999)));
        assert!(plan.is_failed(NodeId(7), SimTime::new(2.0)));
        assert!(plan.is_failed(NodeId(7), SimTime::new(4.999)));
        assert!(!plan.is_failed(NodeId(7), SimTime::new(5.0)));
        assert_eq!(plan.failure_time(NodeId(7)), Some(SimTime::new(2.0)));
    }

    #[test]
    fn repeated_crash_recovery_windows_stack() {
        let mut plan = FaultPlan::new();
        plan.fail_between(NodeId(1), SimTime::new(1.0), SimTime::new(2.0));
        plan.fail_between(NodeId(1), SimTime::new(3.0), SimTime::new(4.0));
        assert!(plan.is_failed(NodeId(1), SimTime::new(1.5)));
        assert!(!plan.is_failed(NodeId(1), SimTime::new(2.5)));
        assert!(plan.is_failed(NodeId(1), SimTime::new(3.5)));
        assert_eq!(plan.failure_windows(NodeId(1)).count(), 2);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn windowed_failure_then_permanent() {
        let mut plan = FaultPlan::new();
        plan.fail_between(NodeId(2), SimTime::new(1.0), SimTime::new(2.0));
        plan.fail_at(NodeId(2), SimTime::new(10.0));
        assert!(!plan.is_failed(NodeId(2), SimTime::new(5.0)));
        assert!(plan.is_failed(NodeId(2), SimTime::new(11.0)));
        assert_eq!(plan.failure_time(NodeId(2)), Some(SimTime::new(1.0)));
    }

    #[test]
    fn outages_are_undirected_and_half_open() {
        let mut plan = FaultPlan::new();
        plan.outage_between(NodeId(5), NodeId(2), SimTime::new(1.0), SimTime::new(3.0));
        assert!(plan.is_outaged(NodeId(2), NodeId(5), SimTime::new(1.0)));
        assert!(plan.is_outaged(NodeId(5), NodeId(2), SimTime::new(2.999)));
        assert!(!plan.is_outaged(NodeId(2), NodeId(5), SimTime::new(3.0)));
        assert!(!plan.is_outaged(NodeId(2), NodeId(4), SimTime::new(2.0)));
        assert!(!plan.is_empty());
    }

    #[test]
    fn detection_lags_failure_and_recovery() {
        let mut plan = FaultPlan::new();
        plan.fail_between(NodeId(3), SimTime::new(10.0), SimTime::new(20.0));
        // Not yet detected right after failing...
        assert!(!plan.detected_failed(NodeId(3), SimTime::new(11.0), 2.0));
        // ...detected once the latency has elapsed...
        assert!(plan.detected_failed(NodeId(3), SimTime::new(12.0), 2.0));
        // ...stale "failed" report just after recovery...
        assert!(plan.detected_failed(NodeId(3), SimTime::new(21.0), 2.0));
        // ...cleared after another latency.
        assert!(!plan.detected_failed(NodeId(3), SimTime::new(22.0), 2.0));
    }

    #[test]
    fn nothing_is_detected_before_one_latency() {
        let mut plan = FaultPlan::new();
        plan.fail_at(NodeId(0), SimTime::ZERO);
        assert!(!plan.detected_failed(NodeId(0), SimTime::new(1.0), 60.0));
        assert!(plan.detected_failed(NodeId(0), SimTime::new(60.0), 60.0));
    }
}
