//! Experiment E20 — the serving engine under injected faults and a
//! tenant flood.
//!
//! Wraps the engine's evaluator in a fault injector that, at seeded
//! per-call rates, panics mid-solve or stalls (a latency spike), then
//! drives two campaigns and reports JSON on stdout (progress on stderr):
//!
//! 1. **Fault sweep** — fault rate × caller count grid over a
//!    multi-tenant Zipf workload with per-query deadlines and the SLO
//!    shedder armed. A cell answers the workload with `Engine::run_all`,
//!    which fans `evaluate` out to that many concurrent callers on the
//!    executor. Every cell checks the two serving invariants in-process:
//!    * every query reaches **exactly one** terminal outcome — an
//!      answer, a typed per-query error (`EvalPanicked`,
//!      `DeadlineExceeded`, `WorkerLost`) or a typed rejection — never a
//!      hang, never a double delivery;
//!    * every `Ok` answer is **bit-identical** to the naive
//!      `direct_eval` of the same query — supervision and shedding must
//!      never perturb a value.
//! 2. **Tenant flood** — one tenant fires a 10× cache-busting burst from
//!    several concurrent callers while two polite closed-loop tenants
//!    keep working. The per-tenant
//!    quotas must absorb the overload (the flooder collects
//!    `QuotaExceeded`), and the polite tenants' observed p99 must stay
//!    within the SLO.
//!
//! Any violated invariant prints a diagnostic and exits non-zero, so CI
//! fails loudly. The workload and the per-call-index fault draws are a
//! pure function of the seed, but the campaign runs real threads against
//! wall-clock deadlines, so the outcome *mix* (expired vs panicked vs
//! completed) varies with scheduling — the invariants are what is exact.
//!
//! Usage: `engine_faults [--quick] [--seed N] [--queries N] [--workers N]
//! [--fault-rate X] [--deadline-ms X] [--slo-ms X]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oaq_bench::args::CliSpec;
use oaq_bench::json::{emit, fmt_f64};
use oaq_engine::{
    direct_eval, eval_cheap, eval_with_pk, multi_tenant_workload, silence_injected_panics,
    zipf_workload, Engine, EngineConfig, EngineError, EngineResult, Evaluator, QosQuery, QosValue,
    QueryError, QuotaPolicy, RejectReason, RobustQuantile, ShedPolicy, TenantId, WorkloadConfig,
    INJECTED_FAULT,
};
use oaq_sim::SimRng;

/// Wraps the real analytic stack with seeded faults: each `P(k)` solve
/// draws its own substream (indexed by a call counter, so concurrency
/// does not change which *draws* panic) and either panics, stalls, or
/// computes the true answer. Returned values are never perturbed — the
/// bit-identity invariant is checked against this evaluator's output.
struct FaultyEvaluator {
    seed: u64,
    fault_rate: f64,
    spike_rate: f64,
    spike: Duration,
    calls: AtomicU64,
}

impl FaultyEvaluator {
    fn new(seed: u64, fault_rate: f64, spike_rate: f64, spike: Duration) -> Self {
        FaultyEvaluator {
            seed,
            fault_rate,
            spike_rate,
            spike,
            calls: AtomicU64::new(0),
        }
    }
}

impl FaultyEvaluator {
    /// One fault draw per evaluator call, indexed by a global call
    /// counter so a given seed yields a fixed set of faulting draws.
    fn roll(&self) -> FaultDraw {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let mut coin = SimRng::substream(self.seed, n);
        if coin.chance(self.fault_rate) {
            FaultDraw::Panic
        } else if coin.chance(self.spike_rate) {
            FaultDraw::Spike
        } else {
            FaultDraw::Clean
        }
    }

    /// How many panics the seeded draws imply for the calls actually
    /// made. A panicking draw aborts exactly one supervised evaluation,
    /// so the engine's `eval_panics` counter must equal this — an exact,
    /// deterministic cross-check of the supervision accounting.
    fn expected_panics(&self) -> u64 {
        let calls = self.calls.load(Ordering::Relaxed);
        (0..calls)
            .filter(|&n| SimRng::substream(self.seed, n).chance(self.fault_rate))
            .count() as u64
    }
}

enum FaultDraw {
    Panic,
    Spike,
    Clean,
}

impl Evaluator for FaultyEvaluator {
    fn solve_pk(&self, query: &QosQuery) -> Result<Vec<f64>, EngineError> {
        match self.roll() {
            FaultDraw::Panic => std::panic::panic_any(INJECTED_FAULT),
            FaultDraw::Spike => std::thread::sleep(self.spike),
            FaultDraw::Clean => {}
        }
        query
            .capacity_params()
            .distribution()
            .map_err(EngineError::from)
    }

    // Faults can strike the G-function layer too (panic or stall, never a
    // perturbed value) — this also keeps the injector busy on cache-warm
    // workloads where `P(k)` solves are rare.
    fn eval_with_pk(&self, query: &QosQuery, pk: &[f64]) -> QosValue {
        match self.roll() {
            FaultDraw::Panic => std::panic::panic_any(INJECTED_FAULT),
            FaultDraw::Spike => std::thread::sleep(self.spike),
            FaultDraw::Clean => {}
        }
        eval_with_pk(query, pk)
    }

    fn eval_cheap(&self, query: &QosQuery) -> QosValue {
        match self.roll() {
            FaultDraw::Panic => std::panic::panic_any(INJECTED_FAULT),
            FaultDraw::Spike => std::thread::sleep(self.spike),
            FaultDraw::Clean => {}
        }
        eval_cheap(query)
    }
}

/// Terminal-outcome tally for one campaign. Exactly one field increments
/// per query.
#[derive(Debug, Default, Clone, Copy)]
struct Outcomes {
    ok: u64,
    eval_panicked: u64,
    worker_lost: u64,
    deadline_exceeded: u64,
    quota: u64,
    shed: u64,
}

impl Outcomes {
    fn total(&self) -> u64 {
        self.ok
            + self.eval_panicked
            + self.worker_lost
            + self.deadline_exceeded
            + self.quota
            + self.shed
    }

    /// Tallies one answer; `Err` hands back an outcome no campaign
    /// expects.
    fn record(&mut self, answer: &EngineResult) -> Result<(), EngineError> {
        match answer {
            Ok(_) => self.ok += 1,
            Err(EngineError::Query(QueryError::EvalPanicked)) => self.eval_panicked += 1,
            Err(EngineError::Query(QueryError::DeadlineExceeded { .. })) => {
                self.deadline_exceeded += 1;
            }
            Err(EngineError::WorkerLost) => self.worker_lost += 1,
            Err(EngineError::Rejected(RejectReason::QuotaExceeded { .. })) => self.quota += 1,
            Err(EngineError::Rejected(RejectReason::Overloaded)) => self.shed += 1,
            Err(e) => return Err(e.clone()),
        }
        Ok(())
    }

    fn json(&self) -> String {
        format!(
            "{{\"ok\": {}, \"eval_panicked\": {}, \"worker_lost\": {}, \
             \"deadline_exceeded\": {}, \"quota_rejected\": {}, \"shed\": {}}}",
            self.ok,
            self.eval_panicked,
            self.worker_lost,
            self.deadline_exceeded,
            self.quota,
            self.shed,
        )
    }
}

/// One fault-sweep cell: fresh engine, the workload answered by
/// `workers` concurrent `evaluate` callers, invariant checks. Returns the
/// JSON row; pushes violations into `violations`.
fn run_cell(
    workload: &[QosQuery],
    workers: usize,
    fault_rate: f64,
    slo_s: f64,
    seed: u64,
    violations: &mut Vec<String>,
) -> String {
    let label = format!("fault_rate={fault_rate}, workers={workers}");
    let evaluator = Arc::new(FaultyEvaluator::new(
        seed ^ 0xFA_u64,
        fault_rate,
        fault_rate / 2.0,
        Duration::from_millis(50),
    ));
    let engine = Engine::with_evaluator(
        EngineConfig {
            workers,
            queue_capacity: 64,
            result_cache: 1024,
            pk_cache: 64,
            shed: ShedPolicy::with_slo(slo_s),
            shed_seed: seed,
            ..EngineConfig::default()
        },
        evaluator.clone(),
    );

    let t0 = Instant::now();
    let answers = engine.run_all(workload);
    let wall_s = t0.elapsed().as_secs_f64();
    let m = engine.metrics();
    let mut outcomes = Outcomes::default();
    for (i, (q, answer)) in workload.iter().zip(&answers).enumerate() {
        if let Err(e) = outcomes.record(answer) {
            violations.push(format!("{label}: unexpected terminal error: {e}"));
        }
        // Bit-identity: supervision must never perturb a value.
        if answer
            .as_ref()
            .is_ok_and(|v| *v != direct_eval(q).expect("in-domain workload"))
        {
            violations.push(format!("{label}: query {i} diverged from direct_eval"));
        }
    }

    // Invariant: exactly one terminal outcome per query.
    if outcomes.total() != workload.len() as u64 {
        violations.push(format!(
            "{label}: {} outcomes for {} queries",
            outcomes.total(),
            workload.len()
        ));
    }
    // Answered-batch accounting: nothing lost inside the engine either.
    if m.submitted != m.served + m.coalesced {
        violations.push(format!(
            "{label}: submitted {} != served {} + coalesced {}",
            m.submitted, m.served, m.coalesced
        ));
    }
    // The injected draws are a pure function of the call index, so the
    // engine's panic counter must match them exactly.
    let expected_panics = evaluator.expected_panics();
    if m.eval_panics != expected_panics {
        violations.push(format!(
            "{label}: engine counted {} eval panics, seeded draws injected {expected_panics}",
            m.eval_panics
        ));
    }

    #[allow(clippy::cast_precision_loss)]
    let goodput = outcomes.ok as f64 / wall_s;
    eprintln!(
        "#   {label}: ok {} / {} in {wall_s:.3}s ({goodput:.0} good q/s), \
         panics {}, deadline {}, shed {}",
        outcomes.ok,
        workload.len(),
        m.eval_panics,
        m.deadline_expired,
        m.shed,
    );
    format!(
        "{{\"fault_rate\": {}, \"workers\": {workers}, \"queries\": {}, \
         \"outcomes\": {}, \"wall_s\": {}, \"goodput_qps\": {}, \
         \"eval_panics\": {}, \"deadline_expired\": {}, \
         \"shed\": {}, \"shed_probability\": {}, \"pk_solves\": {}, \"e2e_p99_s\": {}}}",
        fmt_f64(fault_rate),
        workload.len(),
        outcomes.json(),
        fmt_f64(wall_s),
        fmt_f64(goodput),
        m.eval_panics,
        m.deadline_expired,
        m.shed,
        fmt_f64(m.shed_probability),
        m.pk_solves,
        fmt_f64(m.end_to_end.p99),
    )
}

/// The tenant-flood campaign: one 10× cache-busting flooder on `workers`
/// concurrent callers vs two polite closed-loop tenants, quotas armed,
/// faults off.
fn run_flood(
    base_queries: usize,
    workers: usize,
    slo_s: f64,
    seed: u64,
    violations: &mut Vec<String>,
) -> String {
    const FLOODER: TenantId = TenantId(1);
    let flood_n = base_queries * 10;
    // Cache-busting flood: a near-distinct scenario pool, so almost every
    // flood query misses the result cache and is charged quota.
    let flood: Vec<QosQuery> = zipf_workload(
        &WorkloadConfig {
            scenarios: flood_n,
            skew: 0.0,
            queries: flood_n,
        },
        seed ^ 0xF_100D,
    )
    .into_iter()
    .map(|q| q.for_tenant(FLOODER))
    .collect();
    let polite_streams: Vec<Vec<QosQuery>> = [2u32, 3]
        .iter()
        .map(|&t| {
            zipf_workload(
                &WorkloadConfig {
                    scenarios: 20,
                    skew: 1.0,
                    queries: base_queries,
                },
                seed + u64::from(t),
            )
            .into_iter()
            .map(|q| q.for_tenant(TenantId(t)))
            .collect()
        })
        .collect();

    let engine = Engine::new(EngineConfig {
        workers,
        queue_capacity: 64,
        result_cache: 1024,
        pk_cache: 128,
        quota: QuotaPolicy {
            rate_per_sec: 200.0,
            burst: 40.0,
            queue_share: 0.25,
        },
        ..EngineConfig::default()
    });

    let t0 = Instant::now();
    let engine_ref = &engine;
    let (flood_outcomes, polite) = std::thread::scope(|s| {
        let flooder = s.spawn(|| {
            // Open-loop: the whole burst, `workers` callers at once.
            let mut out = Outcomes::default();
            for (q, answer) in flood.iter().zip(engine_ref.run_all(&flood)) {
                match &answer {
                    Ok(v) => assert_eq!(
                        *v,
                        direct_eval(q).expect("in-domain flood"),
                        "flood answers stay bit-identical"
                    ),
                    Err(EngineError::Rejected(RejectReason::QuotaExceeded { tenant })) => {
                        assert_eq!(*tenant, FLOODER);
                    }
                    Err(EngineError::WorkerLost) => {}
                    Err(e) => panic!("unexpected flood outcome: {e}"),
                }
                out.record(&answer).expect("outcome matched above");
            }
            out
        });
        let polite_handles: Vec<_> = polite_streams
            .iter()
            .map(|stream| {
                s.spawn(move || {
                    // Closed-loop: one query in flight, true per-query
                    // latency observed at the client.
                    let mut p99 = RobustQuantile::new(0.99);
                    let mut out = Outcomes::default();
                    for q in stream {
                        let t0 = Instant::now();
                        let answer = engine_ref.evaluate(*q);
                        p99.record(t0.elapsed().as_secs_f64());
                        match &answer {
                            Ok(v) => assert_eq!(
                                *v,
                                direct_eval(q).expect("in-domain"),
                                "polite answers stay bit-identical"
                            ),
                            Err(
                                EngineError::WorkerLost
                                | EngineError::Rejected(RejectReason::QuotaExceeded { .. }),
                            ) => {}
                            Err(e) => panic!("unexpected polite outcome: {e}"),
                        }
                        out.record(&answer).expect("outcome matched above");
                    }
                    (out, p99)
                })
            })
            .collect();
        (
            flooder.join().expect("flooder thread"),
            polite_handles
                .into_iter()
                .map(|h| h.join().expect("polite thread"))
                .collect::<Vec<_>>(),
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Invariants: the quota absorbed the flood; polite tenants were
    // never quota-rejected and their observed p99 stayed within the SLO.
    if flood_outcomes.quota * 2 < flood_n as u64 {
        violations.push(format!(
            "flood: only {} of {flood_n} flood queries were quota-rejected",
            flood_outcomes.quota
        ));
    }
    let mut polite_p99 = 0.0f64;
    for (i, (out, p99)) in polite.iter().enumerate() {
        if out.quota > 0 {
            violations.push(format!(
                "flood: polite tenant {} hit the quota {} times",
                i + 2,
                out.quota
            ));
        }
        if out.total() != base_queries as u64 {
            violations.push(format!(
                "flood: polite tenant {} saw {} outcomes for {base_queries} queries",
                i + 2,
                out.total()
            ));
        }
        let est = p99.estimate().unwrap_or(0.0);
        polite_p99 = polite_p99.max(est);
        if est > slo_s {
            violations.push(format!(
                "flood: polite tenant {} p99 {est:.4}s breaches the {slo_s:.4}s SLO",
                i + 2
            ));
        }
    }
    if flood_outcomes.total() != flood_n as u64 {
        violations.push(format!(
            "flood: {} outcomes for {flood_n} flood queries",
            flood_outcomes.total()
        ));
    }

    let tenant_rows: Vec<String> = engine
        .tenant_metrics()
        .iter()
        .map(|s| {
            format!(
                "{{\"tenant\": {}, \"submitted\": {}, \"cache_hits\": {}, \"coalesced\": {}, \
                 \"completed\": {}, \"quota_rejected\": {}}}",
                s.tenant, s.submitted, s.cache_hits, s.coalesced, s.completed, s.quota_rejected,
            )
        })
        .collect();
    eprintln!(
        "#   flood: {}/{flood_n} flooder queries quota-rejected, {} served; \
         polite p99 {polite_p99:.4}s vs SLO {slo_s:.4}s ({wall_s:.3}s wall)",
        flood_outcomes.quota, flood_outcomes.ok,
    );
    format!(
        "{{\"flood_queries\": {flood_n}, \"polite_queries_each\": {base_queries}, \
         \"workers\": {workers}, \"slo_s\": {}, \"wall_s\": {}, \
         \"flooder_outcomes\": {}, \"polite_p99_s\": {}, \"tenants\": [{}]}}",
        fmt_f64(slo_s),
        fmt_f64(wall_s),
        flood_outcomes.json(),
        fmt_f64(polite_p99),
        tenant_rows.join(", "),
    )
}

fn main() {
    let cli = CliSpec::new("engine_faults")
        .switch("--quick", "smaller grid and workloads (CI size)")
        .option("--seed", "N", "base seed (default 2003)")
        .option("--queries", "N", "base workload length (default 400)")
        .option(
            "--workers",
            "N",
            "pin the sweep to one count of concurrent callers",
        )
        .option("--fault-rate", "X", "pin the sweep to one fault rate")
        .option(
            "--deadline-ms",
            "X",
            "per-query deadline (0 disables; default 25)",
        )
        .option(
            "--slo-ms",
            "X",
            "p99 SLO for shedding and the flood bar (default 50)",
        )
        .parse();
    let quick = cli.has("--quick");
    let seed = cli.get_u64("--seed", 2003);
    let queries = cli.get_usize("--queries", if quick { 120 } else { 400 });
    let deadline_ms = cli.get_f64_nonneg("--deadline-ms", 25.0);
    let slo_ms = cli.get_f64_nonneg("--slo-ms", 50.0);
    let slo_s = slo_ms / 1e3;

    let fault_rates: Vec<f64> = if cli.get("--fault-rate").is_some() {
        vec![cli.get_f64_nonneg("--fault-rate", 0.1)]
    } else if quick {
        vec![0.0, 0.10]
    } else {
        vec![0.0, 0.02, 0.10]
    };
    let worker_counts: Vec<usize> = if cli.get("--workers").is_some() {
        vec![cli.get_usize("--workers", 2)]
    } else if quick {
        vec![2]
    } else {
        vec![1, 2, 4]
    };

    // The injected panics are expected by the thousands; mute their
    // reports (real panics still print through the default hook).
    silence_injected_panics();

    // Multi-tenant sweep workload: three equal-weight tenants, per-query
    // deadlines attached when enabled.
    let workload: Vec<QosQuery> = multi_tenant_workload(
        &WorkloadConfig {
            scenarios: if quick { 60 } else { 80 },
            skew: 0.8,
            queries,
        },
        &[(TenantId(1), 1.0), (TenantId(2), 1.0), (TenantId(3), 1.0)],
        seed,
    )
    .into_iter()
    .map(|q| {
        if deadline_ms > 0.0 {
            q.with_deadline_ms(deadline_ms).expect("validated flag")
        } else {
            q
        }
    })
    .collect();
    eprintln!(
        "# engine_faults: {} queries, fault rates {fault_rates:?} x workers {worker_counts:?}, \
         deadline {deadline_ms} ms, SLO {slo_ms} ms (seed {seed})",
        workload.len(),
    );

    let mut violations = Vec::new();
    let mut cells = Vec::new();
    for &rate in &fault_rates {
        for &w in &worker_counts {
            cells.push(run_cell(&workload, w, rate, slo_s, seed, &mut violations));
        }
    }

    eprintln!("# flood campaign: 10x cache-busting burst vs 2 polite tenants");
    let flood_json = run_flood(
        queries,
        if quick { 2 } else { 4 },
        slo_s,
        seed,
        &mut violations,
    );

    emit(&format!(
        "{{\n  \"experiment\": \"engine_faults\",\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \
         \"deadline_ms\": {},\n  \"slo_ms\": {},\n  \"invariants_ok\": {},\n  \
         \"fault_sweep\": [{}],\n  \"flood\": {}\n}}",
        fmt_f64(deadline_ms),
        fmt_f64(slo_ms),
        violations.is_empty(),
        cells.join(", "),
        flood_json,
    ));

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("# INVARIANT VIOLATED: {v}");
        }
        std::process::exit(1);
    }
}
