//! Validated QoS queries and their exact cache keys.
//!
//! A [`QosQuery`] can only be obtained by building a [`QuerySpec`], which
//! rejects non-finite and out-of-domain parameters with a typed
//! [`QueryError`] — NaN never enters the engine, so bit-exact cache keys
//! over raw IEEE-754 bit patterns are well defined (validated values are
//! finite and positive, ruling out the `-0.0`/`0.0` aliasing case).

use oaq_analytic::capacity::CapacityParams;
use oaq_analytic::compose::EvaluationConfig;
use oaq_analytic::params::{require_in_range, require_int_in_range, require_positive};
use oaq_analytic::qos::QosParams;
pub use oaq_analytic::Scheme;

use crate::error::QueryError;
use crate::tenant::TenantId;

/// Active capacity of the reference plane (paper Section 4.1).
pub const REFERENCE_CAPACITY: u32 = 14;
/// In-orbit spares of the reference plane.
pub const REFERENCE_SPARES: u32 = 2;

/// The measure a query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// The composed QoS measure `P(Y ≥ y)` (Eq. 3) — needs the capacity
    /// solve.
    QosAtLeast {
        /// Scheme under evaluation.
        scheme: Scheme,
        /// QoS level `y ∈ 0..=3`.
        y: u8,
    },
    /// The conditional `P(Y = y | k)` — pure G-function layer, no capacity
    /// solve.
    ConditionalQos {
        /// Scheme under evaluation.
        scheme: Scheme,
        /// Conditioning capacity `k ∈ 1..=14`.
        k: u32,
        /// QoS level `y ∈ 0..=3`.
        y: u8,
    },
    /// The full capacity distribution `P(K = k)`, `k = 0..=14` (Figure 7).
    CapacityDistribution,
    /// The OAQ-vs-BAQ gap `P_OAQ(Y ≥ y) − P_BAQ(Y ≥ y)` — one capacity
    /// solve, two compositions.
    OaqBaqGap {
        /// QoS level `y ∈ 0..=3`.
        y: u8,
    },
    /// The many-emitter tracking workload: `emitters` independent tracks of
    /// `passes` revisits each, solved through the batched SoA WLS path;
    /// answers the mean reported (TC-1) error radius in km. No capacity
    /// solve — the track geometry is derived from the query's (θ, Tc, η)
    /// alone.
    EmitterTracking {
        /// Concurrent emitter tracks, `1..=4096`.
        emitters: u32,
        /// Passes accumulated per track, `1..=8`.
        passes: u32,
        /// Base seed of the per-emitter measurement-noise substreams (part
        /// of the cache identity: different seeds are different answers).
        seed: u32,
    },
}

fn scheme_code(scheme: Scheme) -> u32 {
    match scheme {
        Scheme::Oaq => 0,
        Scheme::Baq => 1,
    }
}

fn scheme_from_code(code: u32) -> Option<Scheme> {
    match code {
        0 => Some(Scheme::Oaq),
        1 => Some(Scheme::Baq),
        _ => None,
    }
}

impl Measure {
    /// Whether answering this measure requires the (expensive) capacity
    /// CTMC solve, as opposed to the cheap G-function layer alone.
    #[must_use]
    pub fn needs_capacity_solve(&self) -> bool {
        !matches!(
            self,
            Measure::ConditionalQos { .. } | Measure::EmitterTracking { .. }
        )
    }

    /// A fixed-width `[tag, scheme, k, y]` encoding for the wire protocol
    /// and the cache-snapshot format. Round-trips exactly through
    /// [`Measure::decode`].
    #[must_use]
    pub fn encode(self) -> [u32; 4] {
        match self {
            Measure::QosAtLeast { scheme, y } => [0, scheme_code(scheme), 0, u32::from(y)],
            Measure::ConditionalQos { scheme, k, y } => [1, scheme_code(scheme), k, u32::from(y)],
            Measure::CapacityDistribution => [2, 0, 0, 0],
            Measure::OaqBaqGap { y } => [3, 0, 0, u32::from(y)],
            Measure::EmitterTracking {
                emitters,
                passes,
                seed,
            } => [4, emitters, passes, seed],
        }
    }

    /// Decodes [`Measure::encode`]'s wire form; `None` on any unknown tag,
    /// scheme code, or out-of-`u8` level — a typed rejection point for
    /// hostile frames, never a panic.
    #[must_use]
    pub fn decode(words: [u32; 4]) -> Option<Measure> {
        let [tag, scheme, k, y] = words;
        match tag {
            0 => Some(Measure::QosAtLeast {
                scheme: scheme_from_code(scheme)?,
                y: u8::try_from(y).ok()?,
            }),
            1 => Some(Measure::ConditionalQos {
                scheme: scheme_from_code(scheme)?,
                k,
                y: u8::try_from(y).ok()?,
            }),
            2 if scheme == 0 && k == 0 && y == 0 => Some(Measure::CapacityDistribution),
            3 if scheme == 0 && k == 0 => Some(Measure::OaqBaqGap {
                y: u8::try_from(y).ok()?,
            }),
            // Tag 4 reuses all three operand words verbatim (the seed word
            // deliberately spans the full u32 range).
            4 => Some(Measure::EmitterTracking {
                emitters: scheme,
                passes: k,
                seed: y,
            }),
            _ => None,
        }
    }

    fn validate(&self) -> Result<(), QueryError> {
        match *self {
            Measure::QosAtLeast { y, .. } | Measure::OaqBaqGap { y } => {
                require_int_in_range("y", u32::from(y), 0, 3)?;
            }
            Measure::ConditionalQos { k, y, .. } => {
                require_int_in_range("y", u32::from(y), 0, 3)?;
                require_int_in_range("k", k, 1, REFERENCE_CAPACITY)?;
            }
            Measure::CapacityDistribution => {}
            Measure::EmitterTracking {
                emitters, passes, ..
            } => {
                require_int_in_range("emitters", emitters, 1, 4096)?;
                require_int_in_range("passes", passes, 1, 8)?;
            }
        }
        Ok(())
    }
}

/// The raw, not-yet-validated parameters of one query. All fields public;
/// [`QuerySpec::build`] is the only way to obtain a [`QosQuery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Orbit period θ, minutes.
    pub theta: f64,
    /// Coverage time Tc, minutes.
    pub tc: f64,
    /// Per-satellite failure rate λ, per hour.
    pub lambda: f64,
    /// Scheduled-deployment period φ, hours.
    pub phi: f64,
    /// Replenishment threshold η (pins the plane at `k = η`).
    pub eta: u32,
    /// Alert deadline τ, minutes.
    pub tau: f64,
    /// Signal termination rate µ (mean duration `1/µ` minutes).
    pub mu: f64,
    /// Iterative-computation completion rate ν.
    pub nu: f64,
    /// Effective delivery overhead δ_eff, minutes (e.g. retries ×
    /// (timeout + δ) from the reliable-delivery layer); shrinks the usable
    /// deadline to `τ − δ_eff`.
    pub delta_eff: f64,
    /// The requested measure.
    pub measure: Measure,
    /// The submitting tenant — an admission-control identity, **not** part
    /// of the result: two tenants asking the same question share one cache
    /// entry and one in-flight computation, so the tenant is excluded from
    /// [`QosQuery::key`].
    pub tenant: TenantId,
    /// Optional *serving* deadline, wall-clock milliseconds from
    /// submission. Work already past its deadline when its solve would
    /// start is shed; work finishing late is answered
    /// [`QueryError::DeadlineExceeded`] instead of served stale. A serving
    /// QoS knob, not part of the answer — excluded from [`QosQuery::key`]
    /// (when duplicate in-flight queries coalesce, the leader's deadline
    /// governs).
    pub deadline_ms: Option<f64>,
}

impl QuerySpec {
    /// The paper's Figure 9 scenario (θ = 90, Tc = 9, φ = 30000 h, η = 10,
    /// τ = 5, µ = 0.2, ν = 30, δ_eff = 0) at failure rate `lambda`.
    #[must_use]
    pub fn paper_defaults(lambda: f64, measure: Measure) -> Self {
        QuerySpec {
            theta: 90.0,
            tc: 9.0,
            lambda,
            phi: 30_000.0,
            eta: 10,
            tau: 5.0,
            mu: 0.2,
            nu: 30.0,
            delta_eff: 0.0,
            measure,
            tenant: TenantId(0),
            deadline_ms: None,
        }
    }

    /// Validates every parameter and seals the spec into a [`QosQuery`].
    ///
    /// # Errors
    ///
    /// A typed [`QueryError`] naming the offending parameter: non-finite
    /// values (NaN λ), non-positive rates and times (τ ≤ 0), thresholds or
    /// capacities outside `1..=14`, geometry outside the dual-coverage
    /// domain, or a δ_eff that consumes the whole deadline.
    pub fn build(self) -> Result<QosQuery, QueryError> {
        require_positive("theta", self.theta)?;
        require_positive("tc", self.tc)?;
        // Geometry domain: even at full capacity the revisit time θ/k must
        // exceed Tc/2 (the model has no triple coverage), so every
        // reachable k can be composed.
        let tc_max = self.theta / f64::from(REFERENCE_CAPACITY) * 2.0;
        if self.tc >= tc_max {
            return Err(QueryError::Param(oaq_analytic::ParamError::OutOfRange {
                name: "tc",
                value: self.tc,
                min: 0.0,
                max: tc_max,
            }));
        }
        require_positive("lambda", self.lambda)?;
        require_positive("phi", self.phi)?;
        require_int_in_range("eta", self.eta, 1, REFERENCE_CAPACITY - 1)?;
        require_positive("tau", self.tau)?;
        require_positive("mu", self.mu)?;
        require_positive("nu", self.nu)?;
        require_in_range("delta_eff", self.delta_eff, 0.0, f64::MAX)?;
        if self.delta_eff >= self.tau {
            return Err(QueryError::DeadlineConsumed {
                tau: self.tau,
                delta_eff: self.delta_eff,
            });
        }
        if let Some(d) = self.deadline_ms {
            require_positive("deadline_ms", d)?;
        }
        self.measure.validate()?;
        Ok(QosQuery { spec: self })
    }
}

/// A validated, immutable QoS query — see [`QuerySpec::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosQuery {
    spec: QuerySpec,
}

impl QosQuery {
    /// The validated parameters.
    #[must_use]
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// The requested measure.
    #[must_use]
    pub fn measure(&self) -> Measure {
        self.spec.measure
    }

    /// The submitting tenant.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.spec.tenant
    }

    /// The serving deadline in wall-clock milliseconds, if any.
    #[must_use]
    pub fn deadline_ms(&self) -> Option<f64> {
        self.spec.deadline_ms
    }

    /// The same validated query re-addressed to `tenant`. The tenant is
    /// an admission identity with no bearing on the answer, so no
    /// revalidation is needed.
    #[must_use]
    pub fn for_tenant(mut self, tenant: TenantId) -> Self {
        self.spec.tenant = tenant;
        self
    }

    /// The same validated query with a serving deadline attached.
    ///
    /// # Errors
    ///
    /// A typed [`QueryError`] when `deadline_ms` is non-finite or not
    /// strictly positive.
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Result<Self, QueryError> {
        require_positive("deadline_ms", deadline_ms)?;
        self.spec.deadline_ms = Some(deadline_ms);
        Ok(self)
    }

    /// The usable deadline `τ − δ_eff` (strictly positive by
    /// construction).
    #[must_use]
    pub fn effective_tau(&self) -> f64 {
        self.spec.tau - self.spec.delta_eff
    }

    /// The capacity-model parameters of this query's scenario, routed
    /// through the typed [`CapacityParams::new`] constructor so the engine
    /// and the analytic layer enforce one domain.
    #[must_use]
    pub fn capacity_params(&self) -> CapacityParams {
        CapacityParams::new(
            REFERENCE_CAPACITY,
            REFERENCE_SPARES,
            self.spec.lambda,
            self.spec.phi,
            self.spec.eta,
        )
        .expect("query construction already validated the scenario")
    }

    /// The analytic evaluation configuration of this query (deadline
    /// already shrunk by δ_eff).
    #[must_use]
    pub fn evaluation_config(&self) -> EvaluationConfig {
        EvaluationConfig {
            theta: self.spec.theta,
            tc: self.spec.tc,
            qos: QosParams {
                tau: self.effective_tau(),
                mu: self.spec.mu,
                nu: self.spec.nu,
            },
            capacity: self.capacity_params(),
        }
    }

    /// The exact (bit-level) memoization key of the full query. Serving
    /// knobs — tenant and deadline — are deliberately excluded: they do
    /// not change the answer, so all tenants and deadlines share one
    /// cache entry per parameter tuple.
    #[must_use]
    pub fn key(&self) -> QueryKey {
        QueryKey {
            bits: [
                self.spec.theta.to_bits(),
                self.spec.tc.to_bits(),
                self.spec.lambda.to_bits(),
                self.spec.phi.to_bits(),
                u64::from(self.spec.eta),
                self.spec.tau.to_bits(),
                self.spec.mu.to_bits(),
                self.spec.nu.to_bits(),
                self.spec.delta_eff.to_bits(),
            ],
            measure: self.spec.measure,
        }
    }

    /// The exact key of the capacity-solve layer: only (λ, φ, η) — sweeps
    /// over τ/µ/ν/δ_eff at a fixed failure scenario share one `P(k)`.
    #[must_use]
    pub fn capacity_key(&self) -> CapacityKey {
        CapacityKey {
            lambda: self.spec.lambda.to_bits(),
            phi: self.spec.phi.to_bits(),
            eta: self.spec.eta,
        }
    }
}

/// Bit-exact identity of a full query (no quantization: two queries share
/// a key iff direct evaluation would produce bit-identical answers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryKey {
    bits: [u64; 9],
    measure: Measure,
}

impl QueryKey {
    /// The key as eleven fixed-order words: nine parameter words followed
    /// by the packed [`Measure::encode`] quad — the cache-snapshot wire
    /// form. Round-trips exactly through [`QueryKey::decode`].
    #[must_use]
    pub fn encode(&self) -> [u64; 11] {
        let m = self.measure.encode();
        let mut words = [0u64; 11];
        words[..9].copy_from_slice(&self.bits);
        words[9] = u64::from(m[0]) << 32 | u64::from(m[1]);
        words[10] = u64::from(m[2]) << 32 | u64::from(m[3]);
        words
    }

    /// Decodes [`QueryKey::encode`]'s form; `None` when the measure words
    /// are malformed. Parameter bits are *not* re-validated: a decoded key
    /// can only ever be looked up by a freshly validated query producing
    /// the same bits, so an unreachable key is inert cache weight, never a
    /// correctness hazard.
    #[must_use]
    pub fn decode(words: [u64; 11]) -> Option<QueryKey> {
        #[allow(clippy::cast_possible_truncation)]
        let quad = [
            (words[9] >> 32) as u32,
            (words[9] & 0xFFFF_FFFF) as u32,
            (words[10] >> 32) as u32,
            (words[10] & 0xFFFF_FFFF) as u32,
        ];
        let mut bits = [0u64; 9];
        bits.copy_from_slice(&words[..9]);
        Some(QueryKey {
            bits,
            measure: Measure::decode(quad)?,
        })
    }
}

/// Bit-exact identity of a capacity solve (λ, φ, η).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CapacityKey {
    lambda: u64,
    phi: u64,
    eta: u32,
}

impl CapacityKey {
    /// The key as three fixed-order words (λ bits, φ bits, η) — the
    /// cache-snapshot wire form.
    #[must_use]
    pub fn encode(&self) -> [u64; 3] {
        [self.lambda, self.phi, u64::from(self.eta)]
    }

    /// Decodes [`CapacityKey::encode`]'s form; `None` when η overflows
    /// `u32`. See [`QueryKey::decode`] on why parameter bits are not
    /// re-validated.
    #[must_use]
    pub fn decode(words: [u64; 3]) -> Option<CapacityKey> {
        Some(CapacityKey {
            lambda: words[0],
            phi: words[1],
            eta: u32::try_from(words[2]).ok()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper(measure: Measure) -> QuerySpec {
        QuerySpec::paper_defaults(5e-5, measure)
    }

    const Y2: Measure = Measure::QosAtLeast {
        scheme: Scheme::Oaq,
        y: 2,
    };

    #[test]
    fn paper_defaults_validate() {
        let q = paper(Y2).build().unwrap();
        assert_eq!(q.effective_tau(), 5.0);
        assert!(q.measure().needs_capacity_solve());
    }

    #[test]
    fn nan_lambda_is_rejected_typed() {
        let mut s = paper(Y2);
        s.lambda = f64::NAN;
        assert!(matches!(s.build(), Err(QueryError::Param(_))));
    }

    #[test]
    fn non_positive_tau_rejected() {
        let mut s = paper(Y2);
        s.tau = 0.0;
        assert!(matches!(s.build(), Err(QueryError::Param(_))));
        s.tau = -3.0;
        assert!(matches!(s.build(), Err(QueryError::Param(_))));
    }

    #[test]
    fn k_outside_reference_plane_rejected() {
        for k in [0u32, 15, 100] {
            let s = paper(Measure::ConditionalQos {
                scheme: Scheme::Oaq,
                k,
                y: 3,
            });
            assert!(matches!(s.build(), Err(QueryError::Param(_))), "k = {k}");
        }
        let ok = paper(Measure::ConditionalQos {
            scheme: Scheme::Oaq,
            k: 14,
            y: 3,
        });
        assert!(ok.build().is_ok());
    }

    #[test]
    fn y_above_three_rejected() {
        let s = paper(Measure::OaqBaqGap { y: 4 });
        assert!(s.build().is_err());
    }

    #[test]
    fn delta_eff_must_leave_deadline() {
        let mut s = paper(Y2);
        s.delta_eff = 5.0;
        assert!(matches!(
            s.build(),
            Err(QueryError::DeadlineConsumed { .. })
        ));
        s.delta_eff = 4.5;
        let q = s.build().unwrap();
        assert!((q.effective_tau() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn triple_coverage_geometry_rejected() {
        let mut s = paper(Y2);
        // Tc = 13 > 2θ/14 = 12.857: k = 14 would triple-cover.
        s.tc = 13.0;
        assert!(s.build().is_err());
        s.tc = 12.0;
        assert!(s.build().is_ok());
    }

    #[test]
    fn keys_are_exact_and_layered() {
        let a = paper(Y2).build().unwrap();
        let mut s = paper(Y2);
        s.tau = 6.0;
        let b = s.build().unwrap();
        assert_ne!(a.key(), b.key(), "different tau, different result key");
        assert_eq!(
            a.capacity_key(),
            b.capacity_key(),
            "same (lambda, phi, eta): the capacity solve is shared"
        );
        let mut s = paper(Y2);
        s.lambda = 5e-5 + 1e-18;
        if s.lambda != 5e-5 {
            let c = s.build().unwrap();
            assert_ne!(a.capacity_key(), c.capacity_key(), "no quantization");
        }
    }

    #[test]
    fn tenant_and_deadline_do_not_perturb_keys() {
        let base = paper(Y2).build().unwrap();
        let other = base
            .for_tenant(TenantId(42))
            .with_deadline_ms(25.0)
            .unwrap();
        assert_eq!(other.tenant(), TenantId(42));
        assert_eq!(other.deadline_ms(), Some(25.0));
        assert_eq!(
            base.key(),
            other.key(),
            "serving knobs are excluded from the result key"
        );
        assert_eq!(base.capacity_key(), other.capacity_key());
    }

    #[test]
    fn degenerate_deadlines_rejected() {
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut s = paper(Y2);
            s.deadline_ms = Some(bad);
            assert!(matches!(s.build(), Err(QueryError::Param(_))), "{bad}");
            assert!(
                paper(Y2).build().unwrap().with_deadline_ms(bad).is_err(),
                "{bad}"
            );
        }
        let mut s = paper(Y2);
        s.deadline_ms = Some(10.0);
        assert_eq!(s.build().unwrap().deadline_ms(), Some(10.0));
    }

    #[test]
    fn measure_and_key_wire_forms_round_trip() {
        let measures = [
            Measure::QosAtLeast {
                scheme: Scheme::Oaq,
                y: 2,
            },
            Measure::QosAtLeast {
                scheme: Scheme::Baq,
                y: 0,
            },
            Measure::ConditionalQos {
                scheme: Scheme::Baq,
                k: 12,
                y: 3,
            },
            Measure::CapacityDistribution,
            Measure::OaqBaqGap { y: 1 },
            Measure::EmitterTracking {
                emitters: 256,
                passes: 3,
                seed: u32::MAX,
            },
        ];
        for m in measures {
            assert_eq!(Measure::decode(m.encode()), Some(m), "{m:?}");
            let key = paper(m).build().unwrap().key();
            assert_eq!(QueryKey::decode(key.encode()), Some(key), "{m:?}");
        }
        let ck = paper(Y2).build().unwrap().capacity_key();
        assert_eq!(CapacityKey::decode(ck.encode()), Some(ck));
    }

    #[test]
    fn hostile_wire_measures_decode_to_none() {
        assert_eq!(Measure::decode([9, 0, 0, 0]), None, "unknown tag");
        assert_eq!(Measure::decode([0, 7, 0, 2]), None, "unknown scheme");
        assert_eq!(Measure::decode([0, 0, 0, 300]), None, "y overflows u8");
        assert_eq!(Measure::decode([2, 1, 0, 0]), None, "nonzero padding");
        assert_eq!(QueryKey::decode([u64::MAX; 11]), None);
        assert_eq!(CapacityKey::decode([0, 0, u64::MAX]), None, "eta overflow");
    }

    #[test]
    fn conditional_measure_skips_capacity_solve() {
        assert!(!Measure::ConditionalQos {
            scheme: Scheme::Baq,
            k: 12,
            y: 3
        }
        .needs_capacity_solve());
        assert!(Measure::CapacityDistribution.needs_capacity_solve());
        assert!(Measure::OaqBaqGap { y: 2 }.needs_capacity_solve());
        assert!(!Measure::EmitterTracking {
            emitters: 16,
            passes: 2,
            seed: 0
        }
        .needs_capacity_solve());
    }

    #[test]
    fn emitter_tracking_bounds_enforced() {
        let tracking = |emitters, passes| {
            paper(Measure::EmitterTracking {
                emitters,
                passes,
                seed: 7,
            })
            .build()
        };
        for (emitters, passes) in [(0, 2), (4097, 2), (16, 0), (16, 9)] {
            assert!(
                matches!(tracking(emitters, passes), Err(QueryError::Param(_))),
                "emitters = {emitters}, passes = {passes}"
            );
        }
        assert!(tracking(1, 1).is_ok());
        assert!(tracking(4096, 8).is_ok());
    }
}
