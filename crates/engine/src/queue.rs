//! The bounded submission queue with backpressure.
//!
//! Admission control is a hard bound: [`SubmitQueue::try_push`] never
//! blocks and returns a typed rejection when the queue is at capacity —
//! the caller decides whether to retry, shed, or block on its own terms.
//! Workers drain in batches to amortise lock traffic. Built on
//! `std::sync::{Mutex, Condvar}` (the vendored `parking_lot` has no
//! condition variable).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::error::RejectReason;

/// Locks, recovering from poisoning: a worker that panicked while
/// touching the queue must not wedge every other submitter and worker.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bounded MPMC queue: non-blocking bounded push, blocking batched pop.
#[derive(Debug)]
pub struct SubmitQueue<T> {
    inner: Mutex<Inner<T>>,
    nonempty: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    shutdown: bool,
}

impl<T> SubmitQueue<T> {
    /// An empty queue admitting at most `capacity` pending items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SubmitQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// Attempts to enqueue `item` without blocking.
    ///
    /// # Errors
    ///
    /// [`RejectReason::QueueFull`] when the queue is at capacity (the item
    /// is handed back inside the tuple), [`RejectReason::ShuttingDown`]
    /// after [`Self::shutdown`].
    pub fn try_push(&self, item: T) -> Result<(), (T, RejectReason)> {
        let mut inner = lock_ignore_poison(&self.inner);
        if inner.shutdown {
            return Err((item, RejectReason::ShuttingDown));
        }
        if inner.items.len() >= self.capacity {
            return Err((
                item,
                RejectReason::QueueFull {
                    capacity: self.capacity,
                },
            ));
        }
        inner.items.push_back(item);
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks until work is available, then drains up to `max` items.
    /// Returns an empty vector only after [`Self::shutdown`] once the
    /// queue has fully drained — the worker's signal to exit.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        let mut inner = lock_ignore_poison(&self.inner);
        loop {
            if !inner.items.is_empty() {
                let n = inner.items.len().min(max.max(1));
                let batch: Vec<T> = inner.items.drain(..n).collect();
                if !inner.items.is_empty() {
                    // Leftovers: wake a sibling worker.
                    self.nonempty.notify_one();
                }
                return batch;
            }
            if inner.shutdown {
                return Vec::new();
            }
            inner = self
                .nonempty
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Stops admitting new work and wakes every blocked worker. Items
    /// already queued are still drained.
    pub fn shutdown(&self) {
        let mut inner = lock_ignore_poison(&self.inner);
        inner.shutdown = true;
        drop(inner);
        self.nonempty.notify_all();
    }

    /// Whether [`Self::shutdown`] has been called. An inline leader that
    /// bypasses the queue checks it where a push would have been refused.
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        lock_ignore_poison(&self.inner).shutdown
    }

    /// Whether the queue is shut down *and* fully drained — nothing left
    /// for a respawned worker to do.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        let inner = lock_ignore_poison(&self.inner);
        inner.shutdown && inner.items.is_empty()
    }

    /// Number of items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_ignore_poison(&self.inner).items.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_until_full_then_typed_rejection() {
        let q = SubmitQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (item, reason) = q.try_push(3).unwrap_err();
        assert_eq!(item, 3);
        assert_eq!(reason, RejectReason::QueueFull { capacity: 2 });
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn batch_pop_drains_in_order() {
        let q = SubmitQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch(3), vec![0, 1, 2]);
        assert_eq!(q.pop_batch(3), vec![3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_old() {
        let q = SubmitQueue::new(4);
        q.try_push(10).unwrap();
        q.shutdown();
        let (_, reason) = q.try_push(11).unwrap_err();
        assert_eq!(reason, RejectReason::ShuttingDown);
        assert_eq!(q.pop_batch(8), vec![10]);
        assert_eq!(q.pop_batch(8), Vec::<i32>::new());
    }

    /// Shutdown/drain semantics under concurrent submitters: across the
    /// close, every item is either (a) rejected at push with a typed
    /// reason, or (b) delivered to exactly one consumer — never lost,
    /// never double-delivered.
    #[test]
    fn concurrent_shutdown_neither_loses_nor_duplicates() {
        use std::sync::atomic::{AtomicBool, Ordering};

        for round in 0..8u64 {
            let q = Arc::new(SubmitQueue::new(32));
            let stop = AtomicBool::new(false);
            let (accepted, delivered) = std::thread::scope(|s| {
                let mut producers = Vec::new();
                for p in 0..4u64 {
                    let q = Arc::clone(&q);
                    let stop = &stop;
                    producers.push(s.spawn(move || {
                        let mut accepted = Vec::new();
                        for i in 0..500u64 {
                            let item = p * 10_000 + i;
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            match q.try_push(item) {
                                Ok(()) => accepted.push(item),
                                Err((_, RejectReason::ShuttingDown)) => break,
                                Err((_, RejectReason::QueueFull { .. })) => {
                                    std::thread::yield_now();
                                }
                                Err((_, r)) => panic!("unexpected rejection {r}"),
                            }
                        }
                        accepted
                    }));
                }
                let mut consumers = Vec::new();
                for _ in 0..2 {
                    let q = Arc::clone(&q);
                    consumers.push(s.spawn(move || {
                        let mut seen = Vec::new();
                        loop {
                            let batch = q.pop_batch(5);
                            if batch.is_empty() {
                                return seen;
                            }
                            seen.extend(batch);
                        }
                    }));
                }
                // Shut down mid-stream at a per-round staggered point.
                for _ in 0..(round * 97) {
                    std::hint::spin_loop();
                }
                q.shutdown();
                stop.store(true, Ordering::Relaxed);
                let mut accepted: Vec<u64> = producers
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect();
                let mut delivered: Vec<u64> = consumers
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect();
                accepted.sort_unstable();
                delivered.sort_unstable();
                (accepted, delivered)
            });
            assert_eq!(
                accepted, delivered,
                "round {round}: accepted items must be delivered exactly once"
            );
            assert!(q.is_drained());
        }
    }

    #[test]
    fn shutdown_state_is_observable() {
        let q = SubmitQueue::new(4);
        assert!(!q.is_shut_down());
        assert!(!q.is_drained());
        q.try_push(1).unwrap();
        q.shutdown();
        assert!(q.is_shut_down());
        assert!(!q.is_drained(), "an item is still queued");
        assert_eq!(q.pop_batch(4), vec![1]);
        assert!(q.is_drained());
    }

    #[test]
    fn blocked_worker_wakes_on_push_and_on_shutdown() {
        let q = Arc::new(SubmitQueue::new(4));
        std::thread::scope(|s| {
            let qa = Arc::clone(&q);
            let consumer = s.spawn(move || {
                let mut seen = Vec::new();
                loop {
                    let batch = qa.pop_batch(2);
                    if batch.is_empty() {
                        return seen;
                    }
                    seen.extend(batch);
                }
            });
            for i in 0..6 {
                while q.try_push(i).is_err() {
                    std::thread::yield_now();
                }
            }
            q.shutdown();
            let mut seen = consumer.join().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        });
    }
}
