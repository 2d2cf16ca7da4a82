//! Numerical solvers on explicit generator matrices.
//!
//! The transient path is built around a reusable [`TransientKernel`]: the
//! uniformized transition matrix stored sparse (CSR), with *shared-iterate*
//! batching — the vector sequence `vₖ = p₀ Pᵏ` is computed once and every
//! requested time point is a Poisson-weighted sum over that one sequence.
//! Time averages `(1/T)∫₀ᵀ p(t) dt` use the exact interval form of
//! uniformization over the same sequence (see
//! [`TransientKernel::time_average_many`]). The dense per-time-point
//! transient reference is kept (suffixed `_dense`) as the baseline the
//! kernel is benchmarked and property-tested against.

use std::sync::{Mutex, OnceLock, PoisonError};

use oaq_linalg::{CsrMatrix, LinalgError, Matrix};

/// Errors from the Markov solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolverError {
    /// The generator matrix is not square or rows do not sum to ~0.
    InvalidGenerator(String),
    /// A caller-supplied argument (time point, horizon, tolerance,
    /// initial distribution) is out of domain.
    InvalidInput(String),
    /// The linear solve failed (e.g. reducible chain).
    Numeric(LinalgError),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::InvalidGenerator(msg) => write!(f, "invalid generator: {msg}"),
            SolverError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            SolverError::Numeric(e) => write!(f, "numeric failure: {e}"),
        }
    }
}

impl std::error::Error for SolverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolverError::Numeric(e) => Some(e),
            SolverError::InvalidGenerator(_) | SolverError::InvalidInput(_) => None,
        }
    }
}

fn validate_generator(q: &Matrix) -> Result<(), SolverError> {
    if !q.is_square() {
        return Err(SolverError::InvalidGenerator(format!(
            "generator must be square, got {}x{}",
            q.rows(),
            q.cols()
        )));
    }
    let scale = q.max_norm().max(1.0);
    for i in 0..q.rows() {
        let row_sum: f64 = (0..q.cols()).map(|j| q[(i, j)]).sum();
        if row_sum.abs() > 1e-8 * scale {
            return Err(SolverError::InvalidGenerator(format!(
                "row {i} sums to {row_sum}, expected 0"
            )));
        }
    }
    Ok(())
}

/// Solves `π Q = 0`, `Σπ = 1` for an irreducible CTMC generator `Q` by a
/// direct dense solve (the normalization replaces the last column of `Qᵀ`).
///
/// # Errors
///
/// * [`SolverError::InvalidGenerator`] if `Q` is malformed.
/// * [`SolverError::Numeric`] if the system is singular (reducible chain).
///
/// # Examples
///
/// ```
/// use oaq_linalg::Matrix;
/// use oaq_san::solver::stationary_distribution;
/// // Two-state chain: rate 1 up->down, rate 4 down->up → π = (0.8, 0.2).
/// let q = Matrix::from_rows(&[&[-1.0, 1.0], &[4.0, -4.0]]).unwrap();
/// let pi = stationary_distribution(&q).unwrap();
/// assert!((pi[0] - 0.8).abs() < 1e-12);
/// ```
pub fn stationary_distribution(q: &Matrix) -> Result<Vec<f64>, SolverError> {
    validate_generator(q)?;
    let n = q.rows();
    // Build A = Qᵀ with the last row replaced by the normalization Σπ = 1.
    let mut a = q.transpose();
    for j in 0..n {
        a[(n - 1, j)] = 1.0;
    }
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    let pi = a.solve(&b).map_err(SolverError::Numeric)?;
    // Clean tiny negative round-off and renormalize.
    let cleaned: Vec<f64> = pi.iter().map(|&x| x.max(0.0)).collect();
    oaq_linalg::vec_ops::normalize_prob(&cleaned)
        .ok_or_else(|| SolverError::InvalidGenerator("zero stationary mass".to_string()))
}

fn validate_p0(n: usize, p0: &[f64]) -> Result<(), SolverError> {
    if p0.len() != n {
        return Err(SolverError::InvalidInput(format!(
            "p0 length {} does not match {n} states",
            p0.len()
        )));
    }
    let mass: f64 = p0.iter().sum();
    if p0.iter().any(|&x| x < -1e-12) || (mass - 1.0).abs() > 1e-9 {
        return Err(SolverError::InvalidInput(
            "p0 is not a probability vector".to_string(),
        ));
    }
    Ok(())
}

fn validate_horizon(horizon: f64) -> Result<(), SolverError> {
    if horizon <= 0.0 || !horizon.is_finite() {
        return Err(SolverError::InvalidInput(format!("bad horizon {horizon}")));
    }
    Ok(())
}

/// The Poisson truncation horizon: safely past the bulk (mean `lt`,
/// sd `√lt`). Shared by the dense reference and the sparse kernel so the
/// two paths truncate identically.
fn poisson_bulk(lt: f64) -> f64 {
    lt + 10.0 * lt.sqrt() + 50.0
}

/// Transient distribution `p(t) = p0 · e^{Qt}` by uniformization, accurate
/// to `tol` in total variation. Routed through the sparse shared-iterate
/// [`TransientKernel`]; callers evaluating many time points over one
/// generator should build the kernel once and use
/// [`TransientKernel::transient_batch`].
///
/// # Errors
///
/// * [`SolverError::InvalidGenerator`] if `Q` is malformed.
/// * [`SolverError::InvalidInput`] if `p0` is not a distribution or `t` is
///   negative/non-finite.
///
/// # Examples
///
/// ```
/// use oaq_linalg::Matrix;
/// use oaq_san::solver::transient_distribution;
/// let q = Matrix::from_rows(&[&[-1.0, 1.0], &[4.0, -4.0]]).unwrap();
/// let p = transient_distribution(&q, &[1.0, 0.0], 100.0, 1e-12).unwrap();
/// assert!((p[0] - 0.8).abs() < 1e-9); // converged to stationary
/// ```
pub fn transient_distribution(
    q: &Matrix,
    p0: &[f64],
    t: f64,
    tol: f64,
) -> Result<Vec<f64>, SolverError> {
    TransientKernel::new(q)?.transient(p0, t, tol)
}

/// The dense per-time-point uniformization — the pre-kernel reference
/// implementation, kept as the baseline the sparse shared-iterate path is
/// property-tested against.
///
/// # Errors
///
/// As [`transient_distribution`].
pub fn transient_distribution_dense(
    q: &Matrix,
    p0: &[f64],
    t: f64,
    tol: f64,
) -> Result<Vec<f64>, SolverError> {
    validate_generator(q)?;
    let n = q.rows();
    validate_p0(n, p0)?;
    if t < 0.0 || !t.is_finite() {
        return Err(SolverError::InvalidInput(format!("bad time {t}")));
    }
    if t == 0.0 {
        return Ok(p0.to_vec());
    }
    // Uniformization: P = I + Q/Λ with Λ ≥ max |q_ii|.
    let lambda = uniformization_rate(q);
    if lambda == 0.0 {
        // Every state absorbing: the chain never leaves p0.
        return Ok(p0.to_vec());
    }
    let mut p_mat = Matrix::identity(n);
    for i in 0..n {
        for j in 0..n {
            p_mat[(i, j)] += q[(i, j)] / lambda;
        }
    }
    let lt = lambda * t;
    // Accumulate Σ_k Poisson(lt; k) · p0 Pᵏ with scaled Poisson weights.
    let mut term = p0.to_vec(); // p0 Pᵏ
    let mut out = vec![0.0; n];
    // Poisson weights computed iteratively in log space to avoid overflow.
    // Truncation: stop when the accumulated mass reaches 1 − tol, or —
    // because rounding can leave the numeric sum permanently short of it —
    // when k is safely past the Poisson bulk and the current weight has
    // fallen below tol. The discarded tail is renormalized away below.
    let k_bulk = poisson_bulk(lt);
    let mut log_weight = -lt; // log Poisson(0)
    let mut accumulated = 0.0;
    let mut k: u64 = 0;
    loop {
        let w = log_weight.exp();
        if w > 0.0 {
            for (o, x) in out.iter_mut().zip(&term) {
                *o += w * x;
            }
            accumulated += w;
        }
        if accumulated >= 1.0 - tol || (k as f64 > k_bulk && w < tol) {
            break;
        }
        k += 1;
        if k > 10_000_000 {
            return Err(SolverError::InvalidGenerator(
                "uniformization failed to converge".to_string(),
            ));
        }
        log_weight += (lt / k as f64).ln();
        term = p_mat.vec_mul(&term).map_err(SolverError::Numeric)?;
    }
    // The truncated tail (≤ tol) is discarded; renormalize.
    Ok(oaq_linalg::vec_ops::normalize_prob(&out).unwrap_or(out))
}

/// The uniformization rate `Λ = 1.000001 · max |q_ii|`.
///
/// A generator whose diagonal is identically zero (every state absorbing,
/// e.g. a degenerate spare policy with no failures enabled) gets `Λ = 0`:
/// the chain never moves, `P = I`, and `p(t) = p0` at every horizon. The
/// old `1e-12` floor instead produced a vanishingly small positive rate
/// whose Poisson series could run millions of identity matvecs (or hit the
/// iteration cap) at large `t` before converging to the same answer.
fn uniformization_rate(q: &Matrix) -> f64 {
    (0..q.rows()).map(|i| -q[(i, i)]).fold(0.0_f64, f64::max) * 1.000_001
}

/// A reusable sparse uniformization kernel over one generator matrix.
///
/// Holds the uniformized transition matrix `P = I + Q/Λ` in CSR form.
/// [`Self::transient_batch`] evaluates *any number of time points* over a
/// single shared iterate sequence `vₖ = p₀ Pᵏ`: one CSR matvec per series
/// term total, with per-time-point Poisson weights (a multiplicative
/// recurrence, ramped in log space while a huge `λt` keeps the early
/// weights below f64 range) as the only per-point work. A time average
/// rides the same sequence with one interval weight per term.
///
/// **Determinism / batch invariance:** the iterate sequence depends only on
/// `p₀` and `P`, and each time point accumulates its own weighted sum in
/// fixed order, so the answer for a given `t` is bit-identical regardless
/// of which other time points share the batch, and across repeated calls
/// and threads (`TransientKernel` is `Send + Sync` and immutable after
/// construction).
#[derive(Debug)]
pub struct TransientKernel {
    p_csr: CsrMatrix,
    lambda: f64,
    n: usize,
}

/// Weights below e^LOG_SWITCH are tracked in log space (their mass is far
/// below f64 resolution, so skipping their contribution is exact); above it
/// the weight runs the cheap linear recurrence w ← w · λt/(k+1), keeping
/// the per-point inner loop free of transcendentals.
const LOG_SWITCH: f64 = -700.0;

/// Per-series-term quantities shared by every Poisson weight in a batch:
/// 1/(k+1) is computed once per iterate, not once per point.
struct SharedStep {
    k: u64,
    kf: f64,
    inv_k1: f64,
}

impl SharedStep {
    fn at(k: u64) -> Self {
        SharedStep {
            k,
            kf: k as f64,
            inv_k1: 1.0 / (k + 1) as f64,
        }
    }

    /// ln(k+1), for the few weights still ramping in log space.
    fn ln_k1(&self) -> f64 {
        ((self.k + 1) as f64).ln()
    }
}

/// Steady-state detection checkpoint spacing: the shared iterate's
/// displacement is measured over windows of this many matvecs.
const STEADY_WINDOW: u64 = 128;
/// Relative floor on the *projected remaining drift* (see
/// [`SteadyWindow::within_floor`]) below which a time point is served
/// early — an order of magnitude under the kernel's 1e-12 dense-agreement
/// bar.
const STEADY_TAIL_REL_FLOOR: f64 = 1e-13;
/// Consecutive sub-floor windows required before declaring steady state
/// (one coincidentally small window must not end a still-mixing chain).
const STEADY_HITS: u32 = 2;

/// Tracks convergence of the shared iterate sequence `vₖ = p₀ Pᵏ` by
/// windowed displacement.
///
/// At each window boundary ([`Self::window`]) the detector measures two
/// quantities: the displacement `D = ‖vₖ − vₖ₋W‖∞` accumulated over the
/// last `W` steps, and the single-step difference `d = ‖vₖ − vₖ₋₁‖∞`.
/// `D/W` bounds the recent per-step rate of *coherent* drift, and because
/// uniformization iterates contract toward the stationary vector (drift
/// magnitude is non-increasing at this scale), `D·R/W` bounds the coherent
/// displacement any future iterate can still accumulate over `R` further
/// matvecs. `d` separately bounds the amplitude of *oscillating*
/// near-period-2 modes (the uniformization rate's `1.000001` margin maps
/// the most negative generator eigenvalue close to −1, where a whole
/// window's displacement aliases to nearly zero while consecutive iterates
/// still swing), so `D·R/W + d` bounds `‖vⱼ − vₖ‖∞` for every future `j` —
/// which in turn bounds the error of serving a time point's remaining
/// Poisson mass (at most `R` terms) from the current iterate. A point is
/// closed early once its projected drift sits [`STEADY_HITS`] consecutive
/// windows below `1e-13·‖vₖ‖∞`. A plain `‖vₖ₊₁ − vₖ‖∞` floor is *not*
/// sound here: a slow-mixing chain can creep by sub-1e-15 steps for tens
/// of thousands of matvecs and accumulate an over-1e-12 coherent drift.
///
/// The measurement sequence depends only on `p₀` and `P`, and each point's
/// `R` only on its own time, so early closure is a function of
/// `(p₀, P, t)` alone — never of which points share the batch — and the
/// kernel's batch-invariance guarantee survives: a point closed early in
/// one batch closes at the same step with the same served tail in every
/// batch.
struct SteadyDetector {
    enabled: bool,
    steps: u64,
    checkpoint: Vec<f64>,
    prev: Vec<f64>,
}

/// One window-boundary observation: the windowed displacement `D`, the
/// single-step difference `d`, and the iterate sup-norm, from which
/// per-point projected drifts are formed.
#[derive(Debug, Clone, Copy)]
struct SteadyWindow {
    disp: f64,
    step_diff: f64,
    norm: f64,
}

impl SteadyWindow {
    /// Whether a point with `remaining` matvecs of Poisson mass left can
    /// be served from the current iterate within the drift floor.
    fn within_floor(&self, remaining: f64) -> bool {
        let projected = self.disp * remaining.max(0.0) / STEADY_WINDOW as f64 + self.step_diff;
        projected <= STEADY_TAIL_REL_FLOOR * self.norm
    }
}

impl SteadyDetector {
    fn new(enabled: bool, p0: &[f64]) -> Self {
        SteadyDetector {
            enabled,
            steps: 0,
            checkpoint: p0.to_vec(),
            prev: p0.to_vec(),
        }
    }

    /// Observes the iterate after an advance; returns the displacement
    /// measurement at window boundaries, `None` in between (or when
    /// detection is disabled).
    fn window(&mut self, term: &[f64]) -> Option<SteadyWindow> {
        if !self.enabled {
            return None;
        }
        self.steps += 1;
        let phase = self.steps % STEADY_WINDOW;
        if phase == STEADY_WINDOW - 1 {
            // Remember the iterate one step before the boundary, so the
            // boundary can sample the single-step difference.
            self.prev.copy_from_slice(term);
            return None;
        }
        if phase != 0 {
            return None;
        }
        let mut disp = 0.0_f64;
        let mut step_diff = 0.0_f64;
        let mut norm = 0.0_f64;
        for ((c, p), &t) in self.checkpoint.iter().zip(&self.prev).zip(term) {
            disp = disp.max((c - t).abs());
            step_diff = step_diff.max((p - t).abs());
            norm = norm.max(t.abs());
        }
        self.checkpoint.copy_from_slice(term);
        Some(SteadyWindow {
            disp,
            step_diff,
            norm,
        })
    }
}

/// The iterate sequence `vₖ = p₀ Pᵏ` computed as it goes: one CSR matvec
/// per step into two buffers, watched by the steady-state detector.
struct Walk {
    term: Vec<f64>,
    next: Vec<f64>,
    detector: SteadyDetector,
}

impl Walk {
    fn new(p0: &[f64], detect: bool) -> Self {
        Walk {
            term: p0.to_vec(),
            next: vec![0.0; p0.len()],
            detector: SteadyDetector::new(detect, p0),
        }
    }

    /// The walk exactly as it stood on the last iterate of stored chunk
    /// `c`: chunks start on window boundaries, so the detector's
    /// checkpoint is the chunk's first iterate and its one-step-back copy
    /// the chunk's last.
    fn resume(chunk: &Chunk, c: usize) -> Self {
        let n = chunk.iterates.len() / CHUNK;
        let last = &chunk.iterates[(CHUNK - 1) * n..];
        Walk {
            term: last.to_vec(),
            next: vec![0.0; n],
            detector: SteadyDetector {
                enabled: true,
                steps: ((c + 1) * CHUNK - 1) as u64,
                checkpoint: chunk.iterates[..n].to_vec(),
                prev: last.to_vec(),
            },
        }
    }

    /// Computes the next iterate; returns the detector's reading when it
    /// lands on a window boundary.
    fn advance(&mut self, p: &CsrMatrix) -> Result<Option<SteadyWindow>, SolverError> {
        p.vec_mul_into(&self.term, &mut self.next)
            .map_err(SolverError::Numeric)?;
        std::mem::swap(&mut self.term, &mut self.next);
        Ok(self.detector.window(&self.term))
    }
}

/// Bytes of iterates one [`IterateTable`] stores at most. A replay that
/// needs more continues past the last stored iterate with a [`Walk`].
const TABLE_BYTES: usize = 1 << 20;
/// Iterates per table chunk: one detector window, so every chunk starts
/// on a window boundary and carries that boundary's reading.
const CHUNK: usize = STEADY_WINDOW as usize;

/// `CHUNK` consecutive iterates `v₁₂₈꜀ … v₁₂₈꜀₊₁₂₇`, stored flat.
struct Chunk {
    iterates: Box<[f64]>,
    /// The detector's reading at `k = 128c` (none for `c = 0`).
    window: Option<SteadyWindow>,
}

/// An append-only table of one chain's iterates `vₖ = p₀ Pᵏ` from its own
/// fixed `p₀`, with the steady-state detector's reading at every window
/// boundary. Both depend on `P` and `p₀` alone, so every series over the
/// chain can replay them: a solve then costs its scalar weights and one
/// `n`-wide weighted sum per term, with no matvec.
///
/// The table grows lazily, one chunk at a time under a lock, up to
/// [`TABLE_BYTES`]; readers never lock a filled chunk. Each chunk is
/// computed by the same [`Walk`] a fresh series runs, resumed from the
/// chunk before it, so a replay is bit-identical to a fresh loop, and a
/// replay that outruns the budget resumes the walk from the last stored
/// iterate.
pub(crate) struct IterateTable {
    kernel: TransientKernel,
    p0: Vec<f64>,
    chunks: Box<[OnceLock<Chunk>]>,
    grow: Mutex<()>,
}

impl std::fmt::Debug for IterateTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterateTable")
            .field("kernel", &self.kernel)
            .field("stored_chunks", &self.stored_chunks())
            .field("max_chunks", &self.chunks.len())
            .finish_non_exhaustive()
    }
}

impl IterateTable {
    /// An empty table over `kernel` from the distribution `p0`.
    pub(crate) fn new(kernel: TransientKernel, p0: Vec<f64>) -> Self {
        let max_chunks = TABLE_BYTES / (CHUNK * kernel.n.max(1) * std::mem::size_of::<f64>());
        IterateTable {
            kernel,
            p0,
            chunks: (0..max_chunks).map(|_| OnceLock::new()).collect(),
            grow: Mutex::new(()),
        }
    }

    /// The kernel the table replays.
    pub(crate) fn kernel(&self) -> &TransientKernel {
        &self.kernel
    }

    /// [`TransientKernel::time_average`] from the table's `p₀`, replayed.
    ///
    /// # Errors
    ///
    /// As [`TransientKernel::time_average`].
    pub(crate) fn time_average(&self, horizon: f64) -> Result<Vec<f64>, SolverError> {
        Ok(self
            .kernel
            .time_average_many_impl(&self.p0, Some(self), &[horizon], true)?
            .pop()
            .expect("one horizon"))
    }

    /// [`TransientKernel::transient_batch`] from the table's `p₀`, replayed.
    ///
    /// # Errors
    ///
    /// As [`TransientKernel::transient_batch`].
    pub(crate) fn transient_batch(
        &self,
        times: &[f64],
        tol: f64,
    ) -> Result<Vec<Vec<f64>>, SolverError> {
        self.kernel
            .transient_batch_impl(&self.p0, Some(self), times, tol, true)
    }

    /// Chunks stored so far.
    fn stored_chunks(&self) -> usize {
        self.chunks.iter().take_while(|c| c.get().is_some()).count()
    }

    /// Iterates stored now, and at most.
    #[cfg(test)]
    pub(crate) fn extent(&self) -> (usize, usize) {
        (self.stored_chunks() * CHUNK, self.chunks.len() * CHUNK)
    }

    /// The replay cursor on `v₀`.
    fn iterates(&self) -> Result<Iterates<'_>, SolverError> {
        Ok(match self.chunk(0)? {
            Some(chunk) => Iterates::Table {
                table: self,
                chunk,
                c: 0,
                slot: 0,
            },
            None => Iterates::Walk(self.walk_after(0)),
        })
    }

    /// Chunk `c`, computed first if no one has yet; `None` past the
    /// budget. Replays ask for chunks in order, so chunk `c − 1` is
    /// stored whenever chunk `c` is asked for.
    fn chunk(&self, c: usize) -> Result<Option<&Chunk>, SolverError> {
        let Some(cell) = self.chunks.get(c) else {
            return Ok(None);
        };
        if let Some(chunk) = cell.get() {
            return Ok(Some(chunk));
        }
        // The lock guards no data: a panic mid-fill leaves the cell
        // unset, and the next fill starts over from the chunk before it.
        let _grow = self.grow.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(chunk) = cell.get() {
            return Ok(Some(chunk));
        }
        let mut walk = self.walk_after(c);
        let mut iterates = Vec::with_capacity(CHUNK * self.kernel.n);
        let window = if c == 0 {
            None
        } else {
            walk.advance(&self.kernel.p_csr)?
        };
        iterates.extend_from_slice(&walk.term);
        for _ in 1..CHUNK {
            walk.advance(&self.kernel.p_csr)?;
            iterates.extend_from_slice(&walk.term);
        }
        Ok(Some(cell.get_or_init(|| Chunk {
            iterates: iterates.into_boxed_slice(),
            window,
        })))
    }

    /// The walk on the last iterate of the first `chunks` chunks (on `p₀`
    /// for none), which must be stored.
    fn walk_after(&self, chunks: usize) -> Walk {
        match chunks.checked_sub(1) {
            None => Walk::new(&self.p0, true),
            Some(last) => {
                Walk::resume(self.chunks[last].get().expect("chunks fill in order"), last)
            }
        }
    }
}

/// Where [`TransientKernel::weighted_sums`] reads each `vₖ` from.
enum Iterates<'a> {
    /// Computed as the series goes.
    Walk(Walk),
    /// Slot `slot` of a table's stored chunk `c`.
    Table {
        table: &'a IterateTable,
        chunk: &'a Chunk,
        c: usize,
        slot: usize,
    },
}

impl Iterates<'_> {
    fn current(&self) -> &[f64] {
        match self {
            Iterates::Walk(walk) => &walk.term,
            Iterates::Table { chunk, slot, .. } => {
                let n = chunk.iterates.len() / CHUNK;
                &chunk.iterates[slot * n..(slot + 1) * n]
            }
        }
    }

    /// Moves to the next iterate; returns the detector's reading when it
    /// lands on a window boundary (always recorded in a table; only with
    /// detection on in a walk).
    fn advance(&mut self, p: &CsrMatrix) -> Result<Option<SteadyWindow>, SolverError> {
        match self {
            Iterates::Walk(walk) => walk.advance(p),
            Iterates::Table {
                table,
                chunk,
                c,
                slot,
            } => {
                *slot += 1;
                if *slot < CHUNK {
                    return Ok(None);
                }
                let table = *table;
                if let Some(next) = table.chunk(*c + 1)? {
                    *c += 1;
                    *chunk = next;
                    *slot = 0;
                    return Ok(next.window);
                }
                let mut walk = table.walk_after(table.chunks.len());
                let window = walk.advance(p)?;
                *self = Iterates::Walk(walk);
                Ok(window)
            }
        }
    }
}

/// One row's scalar weights `wₖ` over the shared iterates: the row's
/// answer is `Σₖ wₖ vₖ`, with `Σₖ wₖ = 1` up to truncation.
trait SeriesWeight {
    /// Returns `wₖ` for `k = shared.k` and advances to `k + 1`, marking the
    /// row done after its last term.
    fn step(&mut self, shared: &SharedStep, tol: f64) -> f64;
    fn is_done(&self) -> bool;
    /// `Σ wⱼ` over the terms handed out so far.
    fn served(&self) -> f64;
    /// The Poisson truncation horizon of the row's series.
    fn k_bulk(&self) -> f64;
    /// Closes the row early (its remaining weight was served elsewhere).
    fn close(&mut self);
}

/// An iteratively-advanced Poisson(λt; k) weight with underflow-safe
/// truncation: `step` returns the weight of term k (0.0 while still
/// sub-representable), accumulates its mass, and advances to k + 1,
/// setting `done` once the accumulated mass reaches 1 − tol or k is safely
/// past the Poisson bulk with a sub-tol weight.
struct PoissonWeight {
    lt: f64,
    ln_lt: f64,
    k_bulk: f64,
    log_weight: f64,
    weight: f64,
    linear: bool,
    accumulated: f64,
    done: bool,
}

impl PoissonWeight {
    fn new(lt: f64) -> Self {
        let linear = -lt > LOG_SWITCH;
        PoissonWeight {
            lt,
            ln_lt: if lt > 0.0 { lt.ln() } else { 0.0 },
            k_bulk: poisson_bulk(lt),
            log_weight: -lt,
            weight: if linear { (-lt).exp() } else { 0.0 },
            linear,
            accumulated: 0.0,
            done: false,
        }
    }
}

impl SeriesWeight for PoissonWeight {
    fn step(&mut self, shared: &SharedStep, tol: f64) -> f64 {
        let w = self.weight;
        self.accumulated += w;
        if self.accumulated >= 1.0 - tol || (shared.kf > self.k_bulk && w < tol) {
            self.done = true;
        } else if self.linear {
            self.weight *= self.lt * shared.inv_k1;
        } else {
            self.log_weight += self.ln_lt - shared.ln_k1();
            if self.log_weight > LOG_SWITCH {
                self.linear = true;
                self.weight = self.log_weight.exp();
            }
        }
        w
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn served(&self) -> f64 {
        self.accumulated
    }

    fn k_bulk(&self) -> f64 {
        self.k_bulk
    }

    fn close(&mut self) {
        self.done = true;
    }
}

/// The exact interval weight of series term `k` for one horizon `T`:
///
/// ```text
/// wₖ = (1/T)∫₀ᵀ Poisson(Λt; k) dt = P(N > k)/(ΛT) = Σ_{i≥k} pᵢ/(i+1),
/// ```
///
/// with `N ~ Poisson(ΛT)` and `pᵢ = P(N = i)`, so `(1/T)∫₀ᵀ p(t) dt =
/// Σₖ wₖ vₖ` over the shared iterates (de Souza e Silva & Gail, JACM 1989).
/// `Σₖ wₖ = E[N]/(ΛT) = 1`, and the pmf mass dropped past the Poisson
/// truncation point is exactly the weight dropped from the whole series.
///
/// `P(N > k)` is never formed as `1 − CDF` where that would cancel. While
/// the running CDF is at most ½, `1 − CDF ≥ ½` is exact to a few ulps, so
/// the weight streams in O(1) memory. Once the CDF passes ½, the rest of
/// the pmf up to the truncation point (O(√ΛT) terms) is laid out and
/// suffix-summed over `pᵢ/(i+1)`, all positive terms. A horizon whose
/// steady-state detector closes it long before the median therefore never
/// holds more than the scalar state, however large `ΛT` is.
struct IntervalWeight {
    pw: PoissonWeight,
    /// `Σ_{i≥k} pᵢ/(i+1)` for `k = tail_base, tail_base + 1, …`; empty
    /// until the CDF passes ½.
    tail: Vec<f64>,
    tail_base: u64,
    /// `Σ wⱼ` over the terms handed out so far.
    accumulated: f64,
    done: bool,
}

impl IntervalWeight {
    fn new(lt: f64) -> Self {
        IntervalWeight {
            pw: PoissonWeight::new(lt),
            tail: Vec::new(),
            tail_base: 0,
            accumulated: 0.0,
            done: false,
        }
    }

    /// Runs the pmf on from `p_k` (with `cdf = P(N ≤ k)`) to the truncation
    /// point under [`PoissonWeight::step`]'s rule, then suffix-sums
    /// `pᵢ/(i+1)` in place.
    fn lay_out_tail(&mut self, k: u64, p_k: f64, cdf: f64, tol: f64) {
        let lt = self.pw.lt;
        // The table ends near k_bulk; size it once.
        self.tail
            .reserve((self.pw.k_bulk - k as f64).max(0.0) as usize + 2);
        let (mut i, mut p, mut cdf) = (k, p_k, cdf);
        loop {
            self.tail.push(p / (i + 1) as f64);
            if cdf >= 1.0 - tol || (i as f64 > self.pw.k_bulk && p < tol) {
                break;
            }
            i += 1;
            p *= lt / i as f64;
            cdf += p;
        }
        let mut suffix = 0.0;
        for t in self.tail.iter_mut().rev() {
            suffix += *t;
            *t = suffix;
        }
        self.tail_base = k;
    }
}

impl SeriesWeight for IntervalWeight {
    /// The last term is the one before the Poisson truncation point.
    fn step(&mut self, shared: &SharedStep, tol: f64) -> f64 {
        if self.tail.is_empty() {
            let p = self.pw.step(shared, tol);
            let cdf = self.pw.accumulated;
            if cdf <= 0.5 {
                let w = (1.0 - cdf) / self.pw.lt;
                self.accumulated += w;
                return w;
            }
            self.lay_out_tail(shared.k, p, cdf, tol);
        }
        let i = (shared.k - self.tail_base) as usize;
        let w = self.tail[i];
        self.accumulated += w;
        self.done = i + 1 == self.tail.len();
        w
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn served(&self) -> f64 {
        self.accumulated
    }

    fn k_bulk(&self) -> f64 {
        self.pw.k_bulk
    }

    fn close(&mut self) {
        self.done = true;
    }
}

impl TransientKernel {
    /// Builds the kernel: validates `q` and stores `P = I + Q/Λ` sparse.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidGenerator`] if `q` is malformed.
    pub fn new(q: &Matrix) -> Result<Self, SolverError> {
        validate_generator(q)?;
        let n = q.rows();
        let lambda = uniformization_rate(q);
        let mut triplets = Vec::new();
        if lambda == 0.0 {
            // All-absorbing chain (zero diagonal everywhere forces a zero
            // generator): P = I, and every Poisson series has λt = 0, so
            // each time point closes on the k = 0 term with p(t) = p0.
            // Dividing by Λ here would be 0/0.
            for i in 0..n {
                triplets.push((i, i, 1.0));
            }
        } else {
            for i in 0..n {
                for j in 0..n {
                    // Same arithmetic as the dense path: identity plus Q/Λ.
                    let base = if i == j { 1.0 } else { 0.0 };
                    let v = base + q[(i, j)] / lambda;
                    if v != 0.0 {
                        triplets.push((i, j, v));
                    }
                }
            }
        }
        let p_csr = CsrMatrix::from_triplets(n, n, &triplets).map_err(SolverError::Numeric)?;
        Ok(TransientKernel { p_csr, lambda, n })
    }

    /// Number of states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// The uniformization rate Λ.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Stored entries of the uniformized transition matrix.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.p_csr.nnz()
    }

    /// Transient distribution at a single time point.
    ///
    /// # Errors
    ///
    /// As [`Self::transient_batch`].
    pub fn transient(&self, p0: &[f64], t: f64, tol: f64) -> Result<Vec<f64>, SolverError> {
        Ok(self
            .transient_batch(p0, &[t], tol)?
            .pop()
            .expect("one time"))
    }

    /// Transient distributions at every time in `times`, sharing one
    /// iterate sequence `vₖ = p₀ Pᵏ` across all of them.
    ///
    /// Each returned distribution is accurate to `tol` in total variation
    /// and independent of the rest of the batch (see the type-level
    /// determinism note). Adaptive steady-state detection is on: once the
    /// iterate sequence stops moving at rounding level (see
    /// [`Self::transient_batch_full`]), every still-open time point is
    /// served its remaining Poisson mass from the converged iterate, so the
    /// matvec count is capped by the chain's mixing time instead of `λ·tₘₐₓ`.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidInput`] if `p0` is not a distribution, a time
    /// is negative or non-finite, or `tol` is out of `(0, 1)`.
    pub fn transient_batch(
        &self,
        p0: &[f64],
        times: &[f64],
        tol: f64,
    ) -> Result<Vec<Vec<f64>>, SolverError> {
        self.transient_batch_impl(p0, None, times, tol, true)
    }

    /// [`Self::transient_batch`] with steady-state detection disabled: the
    /// Poisson series of every time point runs to its own truncation. Kept
    /// as the pre-detection reference the detecting path is benchmarked
    /// (`mega_pk`) and property-tested against (agreement ≤ 1e-12).
    ///
    /// # Errors
    ///
    /// As [`Self::transient_batch`].
    pub fn transient_batch_full(
        &self,
        p0: &[f64],
        times: &[f64],
        tol: f64,
    ) -> Result<Vec<Vec<f64>>, SolverError> {
        self.transient_batch_impl(p0, None, times, tol, false)
    }

    /// The batch from `p0`, its iterates replayed from `table` (whose
    /// `p₀` is `p0`) when there is one.
    fn transient_batch_impl(
        &self,
        p0: &[f64],
        table: Option<&IterateTable>,
        times: &[f64],
        tol: f64,
        detect: bool,
    ) -> Result<Vec<Vec<f64>>, SolverError> {
        validate_p0(self.n, p0)?;
        if !(tol > 0.0 && tol < 1.0) {
            return Err(SolverError::InvalidInput(format!("bad tolerance {tol}")));
        }
        for &t in times {
            if t < 0.0 || !t.is_finite() {
                return Err(SolverError::InvalidInput(format!("bad time {t}")));
            }
            self.require_finite_series(t)?;
        }
        let weights = times
            .iter()
            .map(|&t| PoissonWeight::new(self.lambda * t))
            .collect();
        let sums = self.weighted_sums(self.iterates(p0, table, detect)?, weights, tol, detect)?;
        Ok(sums
            .into_iter()
            .zip(times)
            .map(|(out, &t)| {
                if t == 0.0 {
                    p0.to_vec()
                } else {
                    // The truncated tail (≤ tol) is discarded; renormalize.
                    oaq_linalg::vec_ops::normalize_prob(&out).unwrap_or(out)
                }
            })
            .collect())
    }

    /// The time average `∫₀ᵀ p(t) dt / T`, exact to the 1e-12 series
    /// tolerance (see [`Self::time_average_many`]).
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidInput`] for a non-finite / non-positive
    /// horizon; otherwise as [`Self::transient_batch`].
    pub fn time_average(&self, p0: &[f64], horizon: f64) -> Result<Vec<f64>, SolverError> {
        Ok(self
            .time_average_many(p0, &[horizon])?
            .pop()
            .expect("one horizon"))
    }

    /// Time averages over *several* horizons at once, all over one shared
    /// iterate sequence, so a φ-sweep costs a single matvec sweep sized by
    /// the largest horizon.
    ///
    /// Each average is the exact interval form of uniformization,
    /// `(1/T)∫₀ᵀ p(t) dt = Σₖ P(N > k)/(ΛT) · vₖ` with `N ~ Poisson(ΛT)`:
    /// one scalar weight per series term and horizon, so the cost is
    /// O(K·nnz + K) for `K ≈ ΛT` terms. The series is truncated where the
    /// Poisson pmf is (the dropped weight equals the dropped pmf mass, at
    /// most the 1e-12 tolerance) and each row is renormalized. Adaptive
    /// steady-state detection serves a horizon's remaining weight from the
    /// converged iterate, as in [`Self::transient_batch`].
    ///
    /// Batch invariance (see the type-level note) holds: each horizon
    /// accumulates its own weights in fixed order, so every row equals the
    /// corresponding single-horizon [`Self::time_average`] bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Self::time_average`], applied to every horizon.
    pub fn time_average_many(
        &self,
        p0: &[f64],
        horizons: &[f64],
    ) -> Result<Vec<Vec<f64>>, SolverError> {
        self.time_average_many_impl(p0, None, horizons, true)
    }

    /// [`Self::time_average_many`] with steady-state detection disabled:
    /// every horizon's series runs to its own truncation (O(Λ·φₘₐₓ)
    /// matvecs on long horizons). Kept as the baseline the detecting path
    /// is benchmarked (`mega_pk`) and property-tested against.
    ///
    /// # Errors
    ///
    /// As [`Self::time_average_many`].
    pub fn time_average_many_full(
        &self,
        p0: &[f64],
        horizons: &[f64],
    ) -> Result<Vec<Vec<f64>>, SolverError> {
        self.time_average_many_impl(p0, None, horizons, false)
    }

    /// As [`Self::transient_batch_impl`], for time averages.
    fn time_average_many_impl(
        &self,
        p0: &[f64],
        table: Option<&IterateTable>,
        horizons: &[f64],
        detect: bool,
    ) -> Result<Vec<Vec<f64>>, SolverError> {
        validate_p0(self.n, p0)?;
        for &h in horizons {
            validate_horizon(h)?;
            self.require_finite_series(h)?;
        }
        let weights = horizons
            .iter()
            .map(|&h| IntervalWeight::new(self.lambda * h))
            .collect();
        let sums = self.weighted_sums(self.iterates(p0, table, detect)?, weights, 1e-12, detect)?;
        // The truncated tail (≤ tol of weight) is discarded; renormalize.
        Ok(sums
            .into_iter()
            .map(|acc| oaq_linalg::vec_ops::normalize_prob(&acc).unwrap_or(acc))
            .collect())
    }

    /// Rejects a time whose series `Λt` overflows: its Poisson weights
    /// would never close, and the loop would run to its term cap.
    fn require_finite_series(&self, t: f64) -> Result<(), SolverError> {
        if (self.lambda * t).is_finite() {
            Ok(())
        } else {
            Err(SolverError::InvalidInput(format!(
                "horizon {t} overflows the uniformized series"
            )))
        }
    }

    /// The iterates from `p0`: replayed from `table`, or a fresh walk.
    fn iterates<'a>(
        &self,
        p0: &[f64],
        table: Option<&'a IterateTable>,
        detect: bool,
    ) -> Result<Iterates<'a>, SolverError> {
        match table {
            Some(table) => table.iterates(),
            None => Ok(Iterates::Walk(Walk::new(p0, detect))),
        }
    }

    /// `Σₖ wₖ vₖ` for every row of `weights`, over one shared iterate
    /// sequence `vₖ = p₀ Pᵏ` that runs until the last row is done. Each row
    /// accumulates its own weights in fixed order, so its sum does not
    /// depend on the other rows, nor on whether `iterates` replays a table
    /// or walks.
    ///
    /// With `detect`, once the iterates stop moving (see
    /// [`SteadyDetector`]) a row whose remaining series fits inside the
    /// drift floor is served its remaining weight `1 − Σw` from the current
    /// iterate and closed early.
    fn weighted_sums<W: SeriesWeight>(
        &self,
        mut iterates: Iterates<'_>,
        weights: Vec<W>,
        tol: f64,
        detect: bool,
    ) -> Result<Vec<Vec<f64>>, SolverError> {
        struct Row<W> {
            weight: W,
            acc: Vec<f64>,
            hits: u32,
        }
        let mut rows: Vec<Row<W>> = weights
            .into_iter()
            .map(|weight| Row {
                weight,
                acc: vec![0.0; self.n],
                hits: 0,
            })
            .collect();
        let mut k: u64 = 0;
        loop {
            let shared = SharedStep::at(k);
            let term = iterates.current(); // vₖ, shared by every row
            for r in rows.iter_mut().filter(|r| !r.weight.is_done()) {
                let w = r.weight.step(&shared, tol);
                if w > 0.0 {
                    for (a, x) in r.acc.iter_mut().zip(term) {
                        *a += w * x;
                    }
                }
            }
            if rows.iter().all(|r| r.weight.is_done()) {
                break;
            }
            k += 1;
            if k > 10_000_000 {
                return Err(SolverError::InvalidGenerator(
                    "uniformization failed to converge".to_string(),
                ));
            }
            let window = iterates.advance(&self.p_csr)?;
            if let Some(win) = window.filter(|_| detect) {
                let term = iterates.current();
                // vⱼ ≈ v* for all j ≥ k within the projected drift.
                for r in rows.iter_mut().filter(|r| !r.weight.is_done()) {
                    if win.within_floor(r.weight.k_bulk() - k as f64) {
                        r.hits += 1;
                    } else {
                        r.hits = 0;
                    }
                    if r.hits >= STEADY_HITS {
                        let rest = (1.0 - r.weight.served()).max(0.0);
                        if rest > 0.0 {
                            for (a, x) in r.acc.iter_mut().zip(term) {
                                *a += rest * x;
                            }
                        }
                        r.weight.close();
                    }
                }
            }
        }
        Ok(rows.into_iter().map(|r| r.acc).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Matrix {
        Matrix::from_rows(&[&[-1.0, 1.0], &[4.0, -4.0]]).unwrap()
    }

    #[test]
    fn stationary_two_state() {
        let pi = stationary_distribution(&two_state()).unwrap();
        assert!((pi[0] - 0.8).abs() < 1e-12);
        assert!((pi[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stationary_birth_death_matches_closed_form() {
        // Birth 1, death 2 on {0,1,2,3}: π ∝ 0.5^k.
        let q = Matrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.0],
            &[2.0, -3.0, 1.0, 0.0],
            &[0.0, 2.0, -3.0, 1.0],
            &[0.0, 0.0, 2.0, -2.0],
        ])
        .unwrap();
        let pi = stationary_distribution(&q).unwrap();
        let expected = [8.0 / 15.0, 4.0 / 15.0, 2.0 / 15.0, 1.0 / 15.0];
        for (p, e) in pi.iter().zip(&expected) {
            assert!((p - e).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_generator_rejected() {
        let q = Matrix::from_rows(&[&[-1.0, 2.0], &[4.0, -4.0]]).unwrap();
        assert!(matches!(
            stationary_distribution(&q),
            Err(SolverError::InvalidGenerator(_))
        ));
        let rect = Matrix::zeros(2, 3);
        assert!(stationary_distribution(&rect).is_err());
    }

    #[test]
    fn transient_at_zero_is_initial() {
        let p = transient_distribution(&two_state(), &[0.3, 0.7], 0.0, 1e-12).unwrap();
        assert_eq!(p, vec![0.3, 0.7]);
    }

    #[test]
    fn transient_matches_closed_form() {
        // Two-state: p0(t) = π0 + (1-π0) e^{-(a+b)t} starting in state 0.
        let q = two_state();
        for &t in &[0.1, 0.5, 1.0, 2.0] {
            let p = transient_distribution(&q, &[1.0, 0.0], t, 1e-13).unwrap();
            let expected = 0.8 + 0.2 * (-5.0_f64 * t).exp();
            assert!(
                (p[0] - expected).abs() < 1e-9,
                "t={t}: {} vs {expected}",
                p[0]
            );
        }
    }

    #[test]
    fn transient_converges_to_stationary() {
        let p = transient_distribution(&two_state(), &[0.0, 1.0], 50.0, 1e-12).unwrap();
        assert!((p[0] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn transient_rejects_bad_p0() {
        let q = two_state();
        assert!(transient_distribution(&q, &[1.0], 1.0, 1e-9).is_err());
        assert!(transient_distribution(&q, &[0.7, 0.7], 1.0, 1e-9).is_err());
        assert!(transient_distribution(&q, &[1.0, 0.0], f64::NAN, 1e-9).is_err());
    }

    /// `∫₀ᵀ p0(t) dt / T` for the two-state chain started in state 0,
    /// where `p0(t) = 0.8 + 0.2 e^{-5t}`.
    fn two_state_average(horizon: f64) -> f64 {
        0.8 - 0.2 * (-5.0 * horizon).exp_m1() / (5.0 * horizon)
    }

    #[test]
    fn time_average_matches_analytic() {
        let avg = TransientKernel::new(&two_state())
            .unwrap()
            .time_average(&[1.0, 0.0], 2.0)
            .unwrap();
        let expected = two_state_average(2.0);
        assert!(
            (avg[0] - expected).abs() < 1e-12,
            "{} vs {expected}",
            avg[0]
        );
    }

    #[test]
    fn time_average_rejects_bad_horizon() {
        assert!(TransientKernel::new(&two_state())
            .unwrap()
            .time_average(&[1.0, 0.0], 0.0)
            .is_err());
    }

    #[test]
    fn time_average_rejects_nonfinite_horizon_typed() {
        for bad in [
            TransientKernel::new(&two_state())
                .unwrap()
                .time_average(&[1.0, 0.0], -2.0),
            TransientKernel::new(&two_state())
                .unwrap()
                .time_average(&[1.0, 0.0], f64::NAN),
            TransientKernel::new(&two_state())
                .unwrap()
                .time_average(&[1.0, 0.0], f64::INFINITY),
        ] {
            assert!(matches!(bad, Err(SolverError::InvalidInput(_))), "{bad:?}");
        }
    }

    #[test]
    fn kernel_matches_dense_per_time_point() {
        let q = Matrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.0],
            &[2.0, -3.0, 1.0, 0.0],
            &[0.0, 2.0, -3.0, 1.0],
            &[0.0, 0.0, 2.0, -2.0],
        ])
        .unwrap();
        let kernel = TransientKernel::new(&q).unwrap();
        let p0 = [1.0, 0.0, 0.0, 0.0];
        let times = [0.0, 0.05, 0.5, 3.0, 40.0];
        let batch = kernel.transient_batch(&p0, &times, 1e-12).unwrap();
        for (&t, sparse) in times.iter().zip(&batch) {
            let dense = transient_distribution_dense(&q, &p0, t, 1e-12).unwrap();
            for (s, d) in sparse.iter().zip(&dense) {
                assert!((s - d).abs() <= 1e-12, "t={t}: {s} vs {d}");
            }
        }
    }

    #[test]
    fn batch_membership_does_not_change_answers() {
        // Batch invariance: the answer for t must not depend on which other
        // time points share the iterate sequence.
        let q = two_state();
        let kernel = TransientKernel::new(&q).unwrap();
        let p0 = [1.0, 0.0];
        let alone = kernel.transient(&p0, 0.7, 1e-12).unwrap();
        let crowded = kernel
            .transient_batch(&p0, &[0.0, 10.0, 0.7, 250.0], 1e-12)
            .unwrap();
        assert_eq!(crowded[2], alone, "must be bit-identical, not just close");
    }

    #[test]
    fn time_average_many_rows_match_single_horizon_calls() {
        let q = two_state();
        let kernel = TransientKernel::new(&q).unwrap();
        let p0 = [1.0, 0.0];
        let horizons = [0.5, 2.0, 8.0];
        let many = kernel.time_average_many(&p0, &horizons).unwrap();
        for (&h, row) in horizons.iter().zip(&many) {
            assert_eq!(row, &kernel.time_average(&p0, h).unwrap());
        }
    }

    #[test]
    fn kernel_time_average_matches_closed_form_across_horizons() {
        // Λφ from 5e-20 (one series term) past the CDF-½ switch (Λφ ≈ 0.7)
        // to 2.5e4 terms, where steady-state detection serves the rest.
        let kernel = TransientKernel::new(&two_state()).unwrap();
        for horizon in [1e-20, 0.01, 0.1, 0.2, 2.0, 7.5, 60.0, 5_000.0] {
            let avg = kernel.time_average(&[1.0, 0.0], horizon).unwrap();
            let expected = two_state_average(horizon);
            assert!(
                (avg[0] - expected).abs() <= 1e-12 && (avg[1] - (1.0 - expected)).abs() <= 1e-12,
                "phi={horizon}: {avg:?} vs {expected}"
            );
        }
    }

    #[test]
    fn interval_weights_sum_to_one_and_match_the_poisson_tail() {
        // wₖ = P(N > k)/(ΛT); against an independent log-space tail sum.
        for lt in [0.0, 1e-9, 0.5, 0.75, 3.0, 420.0, 900.0] {
            let mut iw = IntervalWeight::new(lt);
            let mut weights = Vec::new();
            let mut k = 0;
            while !iw.done {
                weights.push(iw.step(&SharedStep::at(k), 1e-12));
                k += 1;
            }
            let total: f64 = weights.iter().sum();
            assert!((total - 1.0).abs() <= 1e-12, "lt={lt}: sum {total}");
            assert_eq!(total, iw.accumulated);
            if lt == 0.0 {
                assert_eq!(weights, vec![1.0]);
                continue;
            }
            // pmf by log-factorials (no recurrence), tails summed smallest
            // first from far past the truncation point. The oracle's own
            // exponent rounding reaches ~1e-11 relative at Λφ ≈ 900, and
            // the kernel drops ≤ 1e-12 of pmf mass past its truncation
            // point (≤ 1e-12/Λφ of every weight); an off-by-one in k would
            // miss by ~1/√Λφ.
            let mut ln_fact = 0.0;
            let pmf: Vec<f64> = (0..4_000u32)
                .map(|j| {
                    if j > 0 {
                        ln_fact += f64::from(j).ln();
                    }
                    (-lt + f64::from(j) * lt.ln() - ln_fact).exp()
                })
                .collect();
            for (i, &w) in weights.iter().enumerate() {
                let expected = pmf[i + 1..].iter().rev().sum::<f64>() / lt;
                assert!(
                    (w - expected).abs() <= 1e-11 * expected + 2e-12 / lt.max(1.0),
                    "lt={lt}, k={i}: {w} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn astronomical_horizon_average_is_served_from_steady_state() {
        // Λφ = 5e12: the early weights stream in O(1) memory and detection
        // serves the remaining weight long before the Poisson median, so
        // the ΛT-term series is never laid out.
        let kernel = TransientKernel::new(&two_state()).unwrap();
        let avg = kernel.time_average(&[1.0, 0.0], 1e12).unwrap();
        assert!((avg[0] - 0.8).abs() <= 1e-12, "{avg:?}");
        let full_rows = kernel.time_average_many(&[0.0, 1.0], &[1e12, 3.0]).unwrap();
        assert_eq!(full_rows[1], kernel.time_average(&[0.0, 1.0], 3.0).unwrap());
    }

    #[test]
    fn kernel_is_sparse_for_banded_generators() {
        let q = Matrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.0],
            &[2.0, -3.0, 1.0, 0.0],
            &[0.0, 2.0, -3.0, 1.0],
            &[0.0, 0.0, 2.0, -2.0],
        ])
        .unwrap();
        let kernel = TransientKernel::new(&q).unwrap();
        assert_eq!(kernel.num_states(), 4);
        assert_eq!(kernel.nnz(), 10, "tridiagonal: 3n - 2 stored entries");
    }

    #[test]
    fn all_absorbing_chain_returns_p0_at_every_horizon() {
        // Regression: a zero generator (every state absorbing) used to be
        // uniformized at the 1e-12 floor rate, spinning identity matvecs —
        // up to the 10M iteration cap at astronomical horizons — before
        // returning p0. With Λ = 0 the answer is immediate and exact.
        let q = Matrix::zeros(3, 3);
        let p0 = [0.25, 0.25, 0.5];
        let kernel = TransientKernel::new(&q).unwrap();
        assert_eq!(kernel.lambda(), 0.0);
        for t in [0.0, 1.0, 30_000.0, 1e12, 1e20] {
            assert_eq!(
                transient_distribution(&q, &p0, t, 1e-12).unwrap(),
                p0.to_vec(),
                "t = {t}"
            );
            assert_eq!(
                transient_distribution_dense(&q, &p0, t, 1e-12).unwrap(),
                p0.to_vec(),
                "dense t = {t}"
            );
        }
        for horizon in [1.0, 30_000.0, 1e18] {
            assert_eq!(
                kernel.time_average(&p0, horizon).unwrap(),
                p0.to_vec(),
                "horizon = {horizon}"
            );
        }
    }

    #[test]
    fn partially_absorbing_generator_still_solves() {
        // One absorbing row must not trip the zero-diagonal special case.
        let q = Matrix::from_rows(&[&[-1.0, 1.0], &[0.0, 0.0]]).unwrap();
        let p = transient_distribution(&q, &[1.0, 0.0], 200.0, 1e-12).unwrap();
        assert!(p[1] > 1.0 - 1e-9, "mass absorbs into state 1: {p:?}");
    }

    #[test]
    fn steady_state_detection_agrees_with_full_iteration() {
        let q = Matrix::from_rows(&[
            &[-1.0, 1.0, 0.0, 0.0],
            &[2.0, -3.0, 1.0, 0.0],
            &[0.0, 2.0, -3.0, 1.0],
            &[0.0, 0.0, 2.0, -2.0],
        ])
        .unwrap();
        let kernel = TransientKernel::new(&q).unwrap();
        let p0 = [1.0, 0.0, 0.0, 0.0];
        let times = [0.5, 10.0, 500.0, 20_000.0];
        let detected = kernel.transient_batch(&p0, &times, 1e-12).unwrap();
        let full = kernel.transient_batch_full(&p0, &times, 1e-12).unwrap();
        for ((&t, d), f) in times.iter().zip(&detected).zip(&full) {
            for (a, b) in d.iter().zip(f) {
                assert!((a - b).abs() <= 1e-12, "t={t}: detected {a} vs full {b}");
            }
        }
        let horizons = [5.0, 900.0, 50_000.0];
        let avg_detected = kernel.time_average_many(&p0, &horizons).unwrap();
        let avg_full = kernel.time_average_many_full(&p0, &horizons).unwrap();
        for ((&h, d), f) in horizons.iter().zip(&avg_detected).zip(&avg_full) {
            for (a, b) in d.iter().zip(f) {
                assert!((a - b).abs() <= 1e-12, "phi={h}: detected {a} vs full {b}");
            }
        }
    }

    #[test]
    fn detection_preserves_batch_invariance() {
        // The detected-tail answer for one horizon must not depend on which
        // longer horizons share the iterate sequence.
        let q = two_state();
        let kernel = TransientKernel::new(&q).unwrap();
        let p0 = [1.0, 0.0];
        let alone = kernel.transient(&p0, 5_000.0, 1e-12).unwrap();
        let crowded = kernel
            .transient_batch(&p0, &[0.2, 5_000.0, 1e9], 1e-12)
            .unwrap();
        assert_eq!(crowded[1], alone, "must be bit-identical, not just close");
    }

    #[test]
    fn kernel_rejects_bad_times_and_tolerance() {
        let kernel = TransientKernel::new(&two_state()).unwrap();
        for bad in [
            kernel.transient_batch(&[1.0, 0.0], &[1.0, -0.5], 1e-12),
            kernel.transient_batch(&[1.0, 0.0], &[f64::NAN], 1e-12),
            kernel.transient_batch(&[1.0, 0.0], &[1.0], 0.0),
        ] {
            assert!(matches!(bad, Err(SolverError::InvalidInput(_))), "{bad:?}");
        }
    }
}
