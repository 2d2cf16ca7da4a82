//! Single-flight coalescing of identical in-flight computations.
//!
//! When several in-flight queries share a bit-exact key, exactly one
//! caller computes the answer ("the leader") and every other caller
//! blocks on a shared [`Slot`] until the leader publishes. Uses
//! `std::sync::{Mutex, Condvar}` — the vendored `parking_lot` stand-in has
//! no condition variable.
//!
//! ## Fault tolerance
//!
//! A leader can die mid-computation (a panicking solve). Three layers
//! keep followers from blocking forever on its corpse:
//!
//! 1. every lock here recovers from poisoning (a panic while holding a
//!    slot or table mutex must not cascade `Err` panics into waiters);
//! 2. [`Slot::abandon`] wakes every waiter empty-handed and is idempotent,
//!    so unwind guards can call it unconditionally;
//! 3. [`SingleFlight::join`] self-heals: a table entry whose slot is no
//!    longer pending (a leader that died without retiring its key) is
//!    replaced by a fresh flight instead of recruiting followers to a
//!    dead computation.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Locks, recovering the guard from a poisoned mutex — a panicking leader
/// must not propagate panics into innocent followers.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The shared cell a coalesced computation publishes into.
#[derive(Debug)]
pub struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

#[derive(Debug)]
enum SlotState<V> {
    Pending,
    Done(V),
    /// The leader dropped without publishing (a panic, or a rejected
    /// leader).
    Abandoned,
}

impl<V: Clone> Slot<V> {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }

    /// Publishes the result and wakes every waiter.
    pub fn publish(&self, value: V) {
        let mut s = lock_ignore_poison(&self.state);
        *s = SlotState::Done(value);
        self.ready.notify_all();
    }

    /// Marks the computation as abandoned (leader lost) and wakes every
    /// waiter; they observe `None`.
    pub fn abandon(&self) {
        let mut s = lock_ignore_poison(&self.state);
        if matches!(*s, SlotState::Pending) {
            *s = SlotState::Abandoned;
            self.ready.notify_all();
        }
    }

    /// Blocks until the leader publishes; `None` if it was abandoned.
    pub fn wait(&self) -> Option<V> {
        let mut s = lock_ignore_poison(&self.state);
        loop {
            match &*s {
                SlotState::Pending => {
                    s = self
                        .ready
                        .wait(s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                }
                SlotState::Done(v) => return Some(v.clone()),
                SlotState::Abandoned => return None,
            }
        }
    }

    /// Whether the computation is still in flight (neither published nor
    /// abandoned).
    pub fn is_pending(&self) -> bool {
        matches!(*lock_ignore_poison(&self.state), SlotState::Pending)
    }
}

/// The outcome of [`SingleFlight::join`].
pub enum Flight<V> {
    /// This caller is the leader: compute, then [`SingleFlight::complete`].
    Leader(Arc<Slot<V>>),
    /// Another computation of the same key is in flight: wait on the slot.
    Follower(Arc<Slot<V>>),
}

/// The in-flight table: at most one live computation per key.
#[derive(Debug)]
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Slot<V>>>>,
}

impl<K: Eq + Hash + Copy, V: Clone> SingleFlight<K, V> {
    /// An empty in-flight table.
    #[must_use]
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Joins the flight for `key`: the first caller becomes the leader,
    /// later callers become followers of the same slot.
    ///
    /// Self-healing: a table entry whose slot already resolved (a leader
    /// that died — or completed — without retiring its key) is *stale*;
    /// instead of following a dead computation, the joiner replaces it
    /// and leads a fresh flight.
    pub fn join(&self, key: K) -> Flight<V> {
        let mut map = lock_ignore_poison(&self.inflight);
        if let Some(slot) = map.get(&key) {
            if slot.is_pending() {
                return Flight::Follower(Arc::clone(slot));
            }
        }
        let slot = Arc::new(Slot::new());
        map.insert(key, Arc::clone(&slot));
        Flight::Leader(slot)
    }

    /// Leader-side completion: publishes `value` into `slot` and retires
    /// the key so the next identical query starts a fresh flight (it will
    /// normally hit the result cache instead).
    pub fn complete(&self, key: &K, slot: &Arc<Slot<V>>, value: V) {
        slot.publish(value);
        self.retire(key, slot);
    }

    /// Leader-side failure path: retires the key and wakes followers with
    /// an abandonment signal.
    pub fn abandon(&self, key: &K, slot: &Arc<Slot<V>>) {
        slot.abandon();
        self.retire(key, slot);
    }

    /// Removes the table entry for `key` only if it still refers to this
    /// very slot — after [`Self::join`] self-healed a stale entry, a late
    /// old leader must not retire the replacement flight.
    fn retire(&self, key: &K, slot: &Arc<Slot<V>>) {
        let mut map = lock_ignore_poison(&self.inflight);
        if map.get(key).is_some_and(|live| Arc::ptr_eq(live, slot)) {
            map.remove(key);
        }
    }

    /// Number of keys currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_ignore_poison(&self.inflight).len()
    }

    /// Whether no computation is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash + Copy, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_joiner_leads_rest_follow() {
        let sf = SingleFlight::<u32, u64>::new();
        let Flight::Leader(slot) = sf.join(7) else {
            panic!("first join must lead")
        };
        assert!(matches!(sf.join(7), Flight::Follower(_)));
        assert!(matches!(sf.join(8), Flight::Leader(_)));
        sf.complete(&7, &slot, 42);
        assert_eq!(slot.wait(), Some(42));
        // Key retired: a new join leads again.
        assert!(matches!(sf.join(7), Flight::Leader(_)));
    }

    #[test]
    fn followers_observe_published_value_across_threads() {
        use std::sync::atomic::{AtomicU32, Ordering};

        let sf = Arc::new(SingleFlight::<u32, u64>::new());
        let joined = AtomicU32::new(0);
        let Flight::Leader(slot) = sf.join(1) else {
            panic!("leader expected")
        };
        std::thread::scope(|s| {
            let mut joins = Vec::new();
            for _ in 0..4 {
                let sf = Arc::clone(&sf);
                let joined = &joined;
                joins.push(s.spawn(move || {
                    let flight = sf.join(1);
                    joined.fetch_add(1, Ordering::SeqCst);
                    match flight {
                        Flight::Follower(slot) => slot.wait(),
                        Flight::Leader(_) => panic!("flight already led"),
                    }
                }));
            }
            // Publish only once every thread has joined the flight, so
            // none can race past the completion and become a new leader.
            while joined.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
            sf.complete(&1, &slot, 99);
            for j in joins {
                assert_eq!(j.join().unwrap(), Some(99));
            }
        });
        assert!(sf.is_empty());
    }

    #[test]
    fn abandoned_flight_wakes_followers_empty_handed() {
        let sf = SingleFlight::<u32, u64>::new();
        let Flight::Leader(slot) = sf.join(3) else {
            panic!("leader expected")
        };
        let Flight::Follower(follower) = sf.join(3) else {
            panic!("follower expected")
        };
        sf.abandon(&3, &slot);
        assert_eq!(follower.wait(), None);
        assert!(sf.is_empty());
    }

    /// Regression (the single-flight hang hazard): a leader whose
    /// evaluator deliberately panics — poisoning the slot mutex on the
    /// way down — must error out its followers, not block them forever or
    /// cascade its panic into them.
    #[test]
    fn panicking_leader_errors_followers_instead_of_hanging() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let sf = Arc::new(SingleFlight::<u32, u64>::new());
        let Flight::Leader(slot) = sf.join(11) else {
            panic!("leader expected")
        };
        let Flight::Follower(follower) = sf.join(11) else {
            panic!("follower expected")
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| follower.wait());
            // The "evaluator" panics while holding the slot's own state
            // mutex — the worst case: the mutex is poisoned mid-update.
            let sf_leader = Arc::clone(&sf);
            let leader = s.spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let _guard = lock_ignore_poison(&slot.state);
                    panic!("deliberately panicking evaluator");
                }));
                assert!(result.is_err());
                // The unwind guard in the worker runs abandon(); it must
                // tolerate the poisoned mutex and wake the follower.
                sf_leader.abandon(&11, &slot);
            });
            leader.join().unwrap();
            assert_eq!(
                waiter.join().expect("follower must not panic"),
                None,
                "follower observes abandonment, not a hang"
            );
        });
        assert!(sf.is_empty());
    }

    /// Self-healing: a leader that died without retiring its key leaves a
    /// stale (abandoned) table entry. The next joiner must lead a fresh
    /// flight rather than follow the corpse.
    #[test]
    fn stale_table_entries_self_heal_on_join() {
        let sf = SingleFlight::<u32, u64>::new();
        let Flight::Leader(slot) = sf.join(5) else {
            panic!("leader expected")
        };
        // Simulate a leader dropped on the floor: the slot is abandoned
        // but the key was never removed from the table.
        slot.abandon();
        assert_eq!(sf.len(), 1, "the stale entry is still in the table");
        let Flight::Leader(fresh) = sf.join(5) else {
            panic!("a stale entry must be replaced, not followed")
        };
        let Flight::Follower(follower) = sf.join(5) else {
            panic!("the fresh flight accepts followers")
        };
        sf.complete(&5, &fresh, 77);
        assert_eq!(follower.wait(), Some(77));
        // A late retire by the dead leader must not touch the live table.
        let Flight::Leader(live) = sf.join(5) else {
            panic!("fresh lead after completion")
        };
        sf.abandon(&5, &slot); // the corpse retires its old slot: no-op
        assert_eq!(sf.len(), 1, "the live flight survives the stale retire");
        sf.complete(&5, &live, 78);
        assert!(sf.is_empty());
    }
}
