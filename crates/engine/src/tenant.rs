//! Multi-tenant admission control: tenant identity, per-tenant
//! token-bucket quotas and fair shares of solving leaders.
//!
//! Every [`crate::QosQuery`] carries a [`TenantId`]. Admission charges two
//! independent budgets:
//!
//! * **Rate** — a per-tenant token bucket ([`TokenBucket`]) refilled at
//!   `rate_per_sec`, depth `burst`. A submission that misses the result
//!   cache costs one token; an empty bucket is a retryable
//!   [`crate::RejectReason::QuotaExceeded`].
//! * **Queue share** — a tenant may have at most
//!   `ceil(queue_capacity · queue_share)` flight leaders solving
//!   at once (an `evaluate` miss holds one slot for its whole solve), so
//!   a flooding tenant exhausts *its* share and hits `QuotaExceeded`
//!   while well-behaved tenants keep theirs.
//!
//! Both clocks are injected (`now_s`, seconds since the engine epoch), so
//! the bucket arithmetic is deterministic and unit-testable.

use std::collections::HashMap;
use std::fmt;

use parking_lot::Mutex;

/// A tenant identity carried on every query. Tenant `0` is the default
/// for embedders that do not care about multi-tenancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Engine-wide per-tenant quota policy. `Default` disables every limit,
/// so single-tenant embedders pay nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaPolicy {
    /// Token-bucket refill rate per tenant, tokens (admitted non-cached
    /// submissions) per second. `f64::INFINITY` disables rate limiting.
    pub rate_per_sec: f64,
    /// Token-bucket depth — the largest admissible burst.
    pub burst: f64,
    /// Fraction of `queue_capacity` solving leaders one tenant may hold,
    /// in `(0, 1]`. `1.0` disables the share limit.
    pub queue_share: f64,
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        QuotaPolicy {
            rate_per_sec: f64::INFINITY,
            burst: f64::INFINITY,
            queue_share: 1.0,
        }
    }
}

/// A deterministic token bucket: refill is computed from an injected
/// clock, never from wall time read internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    tokens: f64,
    last_refill_s: f64,
}

impl TokenBucket {
    /// A bucket born full (`burst` tokens) at time `now_s`.
    #[must_use]
    pub fn full(burst: f64, now_s: f64) -> Self {
        TokenBucket {
            tokens: burst,
            last_refill_s: now_s,
        }
    }

    /// Refills for the elapsed time, then takes one token if available.
    /// Infinite rates always admit.
    pub fn try_take(&mut self, rate_per_sec: f64, burst: f64, now_s: f64) -> bool {
        if rate_per_sec.is_infinite() {
            return true;
        }
        let elapsed = (now_s - self.last_refill_s).max(0.0);
        self.tokens = (self.tokens + elapsed * rate_per_sec).min(burst);
        self.last_refill_s = now_s;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    #[must_use]
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Per-tenant admission counters, exposed via [`TenantSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TenantCounters {
    submitted: u64,
    cache_hits: u64,
    coalesced: u64,
    completed: u64,
    quota_rejected: u64,
}

#[derive(Debug)]
struct TenantState {
    bucket: TokenBucket,
    in_queue: usize,
    counters: TenantCounters,
}

/// A point-in-time copy of one tenant's admission state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSnapshot {
    /// The tenant.
    pub tenant: TenantId,
    /// Submissions seen (admitted or not), including cache hits.
    pub submitted: u64,
    /// Submissions answered straight from the result cache (not charged
    /// against the quota).
    pub cache_hits: u64,
    /// Submissions coalesced onto an in-flight identical computation.
    pub coalesced: u64,
    /// Queries computed on this tenant's behalf by the `evaluate` caller
    /// leading them (leader jobs answered, successfully or not).
    pub completed: u64,
    /// Submissions rejected by the rate or queue-share quota.
    pub quota_rejected: u64,
    /// Fair-share slots currently held, one per solving leader.
    pub in_queue: usize,
}

/// The engine-side tenant table: lazily materialises a [`TenantState`]
/// per tenant on first contact.
#[derive(Debug)]
pub(crate) struct TenantTable {
    policy: QuotaPolicy,
    queue_capacity: usize,
    tenants: Mutex<HashMap<TenantId, TenantState>>,
}

impl TenantTable {
    pub(crate) fn new(policy: QuotaPolicy, queue_capacity: usize) -> Self {
        TenantTable {
            policy,
            queue_capacity,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    fn with_state<R>(
        &self,
        tenant: TenantId,
        now_s: f64,
        f: impl FnOnce(&mut TenantState) -> R,
    ) -> R {
        let mut map = self.tenants.lock();
        let state = map.entry(tenant).or_insert_with(|| TenantState {
            bucket: TokenBucket::full(self.policy.burst, now_s),
            in_queue: 0,
            counters: TenantCounters::default(),
        });
        f(state)
    }

    /// Notes a submission and, unless `cached`, charges the rate bucket.
    /// Returns `false` when the tenant is out of tokens (the caller
    /// rejects with `QuotaExceeded`).
    pub(crate) fn admit(&self, tenant: TenantId, now_s: f64, cached: bool) -> bool {
        let policy = self.policy;
        self.with_state(tenant, now_s, |s| {
            s.counters.submitted += 1;
            if cached {
                s.counters.cache_hits += 1;
                return true;
            }
            if s.bucket.try_take(policy.rate_per_sec, policy.burst, now_s) {
                true
            } else {
                s.counters.quota_rejected += 1;
                false
            }
        })
    }

    /// The tenant's queue-slot cap under the fair-share policy. A share
    /// of `1.0` disables the cap entirely.
    fn queue_cap(&self) -> usize {
        if self.policy.queue_share >= 1.0 {
            return usize::MAX;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let cap = (self.queue_capacity as f64 * self.policy.queue_share).ceil() as usize;
        cap.clamp(1, self.queue_capacity)
    }

    /// Reserves one queue slot for `tenant`; `false` when the tenant is
    /// already at its fair share (the caller rejects with
    /// `QuotaExceeded`). Paired with [`Self::release_queue_slot`].
    pub(crate) fn try_reserve_queue_slot(&self, tenant: TenantId, now_s: f64) -> bool {
        self.with_state(tenant, now_s, |s| {
            if s.in_queue < self.queue_cap() {
                s.in_queue += 1;
                true
            } else {
                s.counters.quota_rejected += 1;
                false
            }
        })
    }

    /// Releases a slot reserved by [`Self::try_reserve_queue_slot`] — when
    /// a leader has answered its job, or when an admitted leader is
    /// rejected after the reservation.
    pub(crate) fn release_queue_slot(&self, tenant: TenantId) {
        let mut map = self.tenants.lock();
        if let Some(s) = map.get_mut(&tenant) {
            s.in_queue = s.in_queue.saturating_sub(1);
        }
    }

    /// Notes a coalesced (follower) submission.
    pub(crate) fn on_coalesced(&self, tenant: TenantId, now_s: f64) {
        self.with_state(tenant, now_s, |s| s.counters.coalesced += 1);
    }

    /// Notes a completed leader job for `tenant`.
    pub(crate) fn on_completed(&self, tenant: TenantId) {
        let mut map = self.tenants.lock();
        if let Some(s) = map.get_mut(&tenant) {
            s.counters.completed += 1;
        }
    }

    /// A consistent snapshot of every tenant seen so far, ordered by id.
    pub(crate) fn snapshot(&self) -> Vec<TenantSnapshot> {
        let map = self.tenants.lock();
        let mut rows: Vec<TenantSnapshot> = map
            .iter()
            .map(|(&tenant, s)| TenantSnapshot {
                tenant,
                submitted: s.counters.submitted,
                cache_hits: s.counters.cache_hits,
                coalesced: s.counters.coalesced,
                completed: s.counters.completed,
                quota_rejected: s.counters.quota_rejected,
                in_queue: s.in_queue,
            })
            .collect();
        rows.sort_by_key(|r| r.tenant);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_refills_at_rate_and_caps_at_burst() {
        let mut b = TokenBucket::full(2.0, 0.0);
        assert!(b.try_take(1.0, 2.0, 0.0));
        assert!(b.try_take(1.0, 2.0, 0.0));
        assert!(!b.try_take(1.0, 2.0, 0.0), "burst of 2 exhausted");
        // Half a second refills half a token — still short.
        assert!(!b.try_take(1.0, 2.0, 0.5));
        // By t = 1.6 the bucket holds ≥ 1 token again.
        assert!(b.try_take(1.0, 2.0, 1.6));
        // A long idle period caps at burst, not unbounded credit.
        assert!(b.try_take(1.0, 2.0, 100.0));
        assert!(b.try_take(1.0, 2.0, 100.0));
        assert!(!b.try_take(1.0, 2.0, 100.0), "credit is capped at burst");
    }

    #[test]
    fn infinite_rate_always_admits() {
        let mut b = TokenBucket::full(0.0, 0.0);
        for _ in 0..1000 {
            assert!(b.try_take(f64::INFINITY, 0.0, 0.0));
        }
    }

    #[test]
    fn clock_going_backwards_is_harmless() {
        let mut b = TokenBucket::full(1.0, 10.0);
        assert!(b.try_take(1.0, 1.0, 5.0), "initial token spends");
        assert!(
            !b.try_take(1.0, 1.0, 4.0),
            "no refill from a reversed clock"
        );
        assert!(b.tokens() >= 0.0);
    }

    #[test]
    fn table_charges_only_uncached_submissions() {
        let table = TenantTable::new(
            QuotaPolicy {
                rate_per_sec: 1.0,
                burst: 2.0,
                queue_share: 1.0,
            },
            16,
        );
        let t = TenantId(7);
        assert!(table.admit(t, 0.0, false));
        assert!(table.admit(t, 0.0, false));
        assert!(!table.admit(t, 0.0, false), "bucket empty");
        for _ in 0..50 {
            assert!(table.admit(t, 0.0, true), "cache hits are free");
        }
        let snap = &table.snapshot()[0];
        assert_eq!(snap.submitted, 53);
        assert_eq!(snap.cache_hits, 50);
        assert_eq!(snap.quota_rejected, 1);
    }

    #[test]
    fn queue_share_isolates_a_flooder() {
        let table = TenantTable::new(
            QuotaPolicy {
                rate_per_sec: f64::INFINITY,
                burst: f64::INFINITY,
                queue_share: 0.25,
            },
            16,
        );
        let flooder = TenantId(0);
        let polite = TenantId(1);
        // ceil(16 * 0.25) = 4 slots per tenant.
        for _ in 0..4 {
            assert!(table.try_reserve_queue_slot(flooder, 0.0));
        }
        assert!(
            !table.try_reserve_queue_slot(flooder, 0.0),
            "the flooder is capped at its share"
        );
        assert!(
            table.try_reserve_queue_slot(polite, 0.0),
            "other tenants keep their share"
        );
        table.release_queue_slot(flooder);
        assert!(table.try_reserve_queue_slot(flooder, 0.0));
    }

    #[test]
    fn unlimited_policy_never_rejects() {
        let table = TenantTable::new(QuotaPolicy::default(), 4);
        let t = TenantId(9);
        for _ in 0..100 {
            assert!(table.admit(t, 0.0, false));
            assert!(table.try_reserve_queue_slot(t, 0.0));
        }
    }
}
