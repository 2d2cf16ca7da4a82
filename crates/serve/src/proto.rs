//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every message on the wire is `u32 LE length ‖ payload`; every payload
//! starts with a fixed four-byte header — magic `0x4F51` (`"OQ"`),
//! protocol version, frame kind — followed by a kind-specific body. All
//! integers and float bit patterns are little-endian.
//!
//! The decoder is total: any byte sequence — truncated, oversized,
//! wrong-magic, future-version, unknown-kind, trailing-garbage — maps to
//! a typed [`ProtoError`], never a panic and never an unbounded
//! allocation (frame length is capped at [`MAX_FRAME`], distribution
//! length at [`MAX_DISTRIBUTION`]). The property tests in
//! `tests/protocol.rs` drive arbitrary and corrupted frames through it.
//!
//! Frame kinds:
//!
//! * **Request** (client → server): request id, tenant, optional serving
//!   deadline, the eight f64 model parameters as raw IEEE-754 bits, η,
//!   and the packed [`Measure`](oaq_engine::Measure) quad. Parameter
//!   *semantic* validation happens server-side in
//!   [`QuerySpec::build`](oaq_engine::QuerySpec::build); the codec only
//!   enforces structure.
//! * **Response** (server → client): request id plus a scalar or a
//!   `P(K = k)` distribution.
//! * **Error** (server → client): request id, a stable [`ErrorCode`]
//!   mapping every engine-side failure, and two auxiliary words carrying
//!   code-specific detail (tenant id, deadline floats as
//!   bits).

use std::fmt;
use std::io::{self, Read, Write};

use oaq_engine::{EngineError, QueryError, RejectReason};

/// Frame magic: `"OQ"` as a little-endian u16.
pub const MAGIC: u16 = 0x4F51;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Upper bound on a frame payload; larger length prefixes are rejected
/// before allocation.
pub const MAX_FRAME: usize = 1 << 20;
/// Upper bound on a response distribution length (the model's `P(k)` has
/// 15 points; this is hostile-input armor, not a model limit).
pub const MAX_DISTRIBUTION: u32 = 4096;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;

const HEADER_LEN: usize = 4;
/// Request body: id 8 + tenant 4 + eta 4 + deadline 8 + 8 params × 8 +
/// measure 4 × 4.
const REQUEST_BODY_LEN: usize = 8 + 4 + 4 + 8 + 64 + 16;
/// Error body: id 8 + code 2 + aux0 8 + aux1 8.
const ERROR_BODY_LEN: usize = 8 + 2 + 8 + 8;

/// A decoded frame payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A client query request.
    Request(Request),
    /// A server answer.
    Response(Response),
    /// A server-side failure, typed.
    Error(ErrorFrame),
}

/// A query request as it travels on the wire. Floats are raw bit
/// patterns: the server reconstitutes and *revalidates* them, so hostile
/// bits (NaN λ) surface as typed [`ErrorCode::InvalidParam`] answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the answer.
    pub req_id: u64,
    /// Submitting tenant.
    pub tenant: u32,
    /// Replenishment threshold η.
    pub eta: u32,
    /// Serving deadline in milliseconds as f64 bits; `0` means none
    /// (`0.0` is not a valid deadline, so the sentinel is unambiguous).
    pub deadline_bits: u64,
    /// θ, Tc, λ, φ, τ, µ, ν, δ_eff as f64 bits, in that order.
    pub param_bits: [u64; 8],
    /// The packed [`Measure::encode`](oaq_engine::Measure::encode) quad.
    pub measure: [u32; 4],
}

impl Request {
    /// Builds a wire request from validated query parts.
    #[must_use]
    pub fn from_query(req_id: u64, query: &oaq_engine::QosQuery) -> Self {
        let s = query.spec();
        Request {
            req_id,
            tenant: s.tenant.0,
            eta: s.eta,
            deadline_bits: s.deadline_ms.map_or(0, f64::to_bits),
            param_bits: [
                s.theta.to_bits(),
                s.tc.to_bits(),
                s.lambda.to_bits(),
                s.phi.to_bits(),
                s.tau.to_bits(),
                s.mu.to_bits(),
                s.nu.to_bits(),
                s.delta_eff.to_bits(),
            ],
            measure: s.measure.encode(),
        }
    }

    /// Reconstitutes the not-yet-validated [`oaq_engine::QuerySpec`] this request
    /// describes; `None` when the measure words are malformed (the
    /// server answers [`ErrorCode::Malformed`]).
    #[must_use]
    pub fn to_spec(&self) -> Option<oaq_engine::QuerySpec> {
        let measure = oaq_engine::Measure::decode(self.measure)?;
        let [theta, tc, lambda, phi, tau, mu, nu, delta_eff] = self.param_bits.map(f64::from_bits);
        Some(oaq_engine::QuerySpec {
            theta,
            tc,
            lambda,
            phi,
            eta: self.eta,
            tau,
            mu,
            nu,
            delta_eff,
            measure,
            tenant: oaq_engine::TenantId(self.tenant),
            deadline_ms: (self.deadline_bits != 0).then(|| f64::from_bits(self.deadline_bits)),
        })
    }
}

/// A server answer: the request id plus the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id.
    pub req_id: u64,
    /// The computed measure.
    pub value: oaq_engine::QosValue,
}

/// A typed server-side failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The request's correlation id (`0` when the request itself could
    /// not be parsed).
    pub req_id: u64,
    /// The stable failure code.
    pub code: ErrorCode,
    /// Code-specific detail word (e.g. tenant id, or an
    /// f64 bit pattern — see [`ErrorCode`]).
    pub aux0: u64,
    /// Second detail word.
    pub aux1: u64,
}

/// Stable wire codes for every failure the server can answer with.
/// Admission rejections are 1–9, per-query failures 10–19, engine
/// internals 20–29, protocol violations 40+.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    // Code 1 was the removed submission-queue rejection; never reuse it.
    /// The server is shutting down. Terminal.
    ShuttingDown = 2,
    /// The tenant is over quota (`aux0` = tenant id). Retryable.
    QuotaExceeded = 3,
    /// The SLO shedder rejected the query. Retryable.
    Overloaded = 4,
    /// A parameter failed validation.
    InvalidParam = 10,
    /// δ_eff consumes the whole deadline (`aux0`/`aux1` = τ/δ_eff bits).
    DeadlineConsumed = 11,
    /// The evaluation panicked; resubmit.
    EvalPanicked = 12,
    /// The serving deadline expired (`aux0`/`aux1` = deadline/waited ms
    /// bits).
    DeadlineExceeded = 13,
    /// The capacity CTMC solve failed.
    Solver = 20,
    /// The awaited flight was abandoned without an answer; resubmit.
    WorkerLost = 21,
    /// The request frame parsed structurally but its content is
    /// meaningless (unknown measure words, unexpected frame kind).
    Malformed = 40,
    /// An engine failure with no dedicated code (future variants).
    Internal = 99,
}

impl ErrorCode {
    /// The wire value.
    #[must_use]
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Decodes a wire value; `None` for unknown codes.
    #[must_use]
    pub fn from_code(code: u16) -> Option<ErrorCode> {
        Some(match code {
            2 => ErrorCode::ShuttingDown,
            3 => ErrorCode::QuotaExceeded,
            4 => ErrorCode::Overloaded,
            10 => ErrorCode::InvalidParam,
            11 => ErrorCode::DeadlineConsumed,
            12 => ErrorCode::EvalPanicked,
            13 => ErrorCode::DeadlineExceeded,
            20 => ErrorCode::Solver,
            21 => ErrorCode::WorkerLost,
            40 => ErrorCode::Malformed,
            99 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Maps an engine failure to its wire code and auxiliary detail words.
#[must_use]
pub fn error_code_of(e: &EngineError) -> (ErrorCode, u64, u64) {
    match e {
        EngineError::Rejected(RejectReason::ShuttingDown) => (ErrorCode::ShuttingDown, 0, 0),
        EngineError::Rejected(RejectReason::QuotaExceeded { tenant }) => {
            (ErrorCode::QuotaExceeded, u64::from(tenant.0), 0)
        }
        EngineError::Rejected(RejectReason::Overloaded) => (ErrorCode::Overloaded, 0, 0),
        EngineError::Solver(_) => (ErrorCode::Solver, 0, 0),
        EngineError::WorkerLost => (ErrorCode::WorkerLost, 0, 0),
        EngineError::Query(QueryError::Param(_)) => (ErrorCode::InvalidParam, 0, 0),
        EngineError::Query(QueryError::DeadlineConsumed { tau, delta_eff }) => (
            ErrorCode::DeadlineConsumed,
            tau.to_bits(),
            delta_eff.to_bits(),
        ),
        EngineError::Query(QueryError::EvalPanicked) => (ErrorCode::EvalPanicked, 0, 0),
        EngineError::Query(QueryError::DeadlineExceeded {
            deadline_ms,
            waited_ms,
        }) => (
            ErrorCode::DeadlineExceeded,
            deadline_ms.to_bits(),
            waited_ms.to_bits(),
        ),
        // Both enums are #[non_exhaustive]: future variants degrade to a
        // generic code instead of a compile break or a panic.
        EngineError::Rejected(_) | EngineError::Query(_) => (ErrorCode::Internal, 0, 0),
        _ => (ErrorCode::Internal, 0, 0),
    }
}

/// Why a payload failed to decode. Total over arbitrary bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload ends before the structure it announces.
    Truncated {
        /// Bytes the structure needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The first two bytes are not [`MAGIC`].
    BadMagic(u16),
    /// A version this decoder does not speak.
    UnsupportedVersion(u8),
    /// An unknown frame kind.
    UnknownKind(u8),
    /// Bytes after the announced structure.
    TrailingBytes {
        /// How many extra bytes.
        extra: usize,
    },
    /// A length prefix above [`MAX_FRAME`].
    Oversized {
        /// The announced length.
        len: u64,
    },
    /// A response value tag that is neither scalar nor distribution.
    BadValueTag(u8),
    /// A distribution length above [`MAX_DISTRIBUTION`].
    BadDistributionLength(u32),
    /// An error code outside the registry.
    UnknownErrorCode(u16),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProtoError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            ProtoError::BadMagic(m) => write!(f, "bad magic {m:#06x} (want {MAGIC:#06x})"),
            ProtoError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (speak {VERSION})")
            }
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the frame body")
            }
            ProtoError::Oversized { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::BadValueTag(t) => write!(f, "unknown value tag {t}"),
            ProtoError::BadDistributionLength(n) => {
                write!(
                    f,
                    "distribution length {n} exceeds the {MAX_DISTRIBUTION} cap"
                )
            }
            ProtoError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---- encoding ----------------------------------------------------------

fn put_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind);
}

/// Appends a request payload (no length prefix; see [`append_frame`]).
pub fn encode_request_into(out: &mut Vec<u8>, r: &Request) {
    put_header(out, KIND_REQUEST);
    out.extend_from_slice(&r.req_id.to_le_bytes());
    out.extend_from_slice(&r.tenant.to_le_bytes());
    out.extend_from_slice(&r.eta.to_le_bytes());
    out.extend_from_slice(&r.deadline_bits.to_le_bytes());
    for bits in r.param_bits {
        out.extend_from_slice(&bits.to_le_bytes());
    }
    for w in r.measure {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Appends a response payload.
pub fn encode_response_into(out: &mut Vec<u8>, req_id: u64, value: &oaq_engine::QosValue) {
    put_header(out, KIND_RESPONSE);
    out.extend_from_slice(&req_id.to_le_bytes());
    match value {
        oaq_engine::QosValue::Scalar(x) => {
            out.push(0);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        oaq_engine::QosValue::Distribution(d) => {
            out.push(1);
            #[allow(clippy::cast_possible_truncation)]
            out.extend_from_slice(&(d.len() as u32).to_le_bytes());
            for &x in d {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
    }
}

/// Appends an error payload.
pub fn encode_error_into(out: &mut Vec<u8>, e: &ErrorFrame) {
    put_header(out, KIND_ERROR);
    out.extend_from_slice(&e.req_id.to_le_bytes());
    out.extend_from_slice(&e.code.code().to_le_bytes());
    out.extend_from_slice(&e.aux0.to_le_bytes());
    out.extend_from_slice(&e.aux1.to_le_bytes());
}

/// Encodes a request payload (no length prefix; see [`write_frame`]).
#[must_use]
pub fn encode_request(r: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + REQUEST_BODY_LEN);
    encode_request_into(&mut out, r);
    out
}

/// Encodes a response payload.
#[must_use]
pub fn encode_response(req_id: u64, value: &oaq_engine::QosValue) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 32);
    encode_response_into(&mut out, req_id, value);
    out
}

/// Encodes an error payload.
#[must_use]
pub fn encode_error(e: &ErrorFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + ERROR_BODY_LEN);
    encode_error_into(&mut out, e);
    out
}

// ---- decoding ----------------------------------------------------------

/// A bounds-checked little-endian cursor; every read is total.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or(ProtoError::Truncated {
            needed: usize::MAX,
            got: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(ProtoError::Truncated {
                needed: end,
                got: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.pos < self.bytes.len() {
            Err(ProtoError::TrailingBytes {
                extra: self.bytes.len() - self.pos,
            })
        } else {
            Ok(())
        }
    }
}

/// Decodes one frame payload (the bytes after the length prefix).
///
/// # Errors
///
/// A typed [`ProtoError`] for any structural violation; never panics on
/// arbitrary input.
pub fn decode_frame(payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut c = Cursor::new(payload);
    let magic = c.u16()?;
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(ProtoError::UnsupportedVersion(version));
    }
    let kind = c.u8()?;
    let frame = match kind {
        KIND_REQUEST => {
            let req_id = c.u64()?;
            let tenant = c.u32()?;
            let eta = c.u32()?;
            let deadline_bits = c.u64()?;
            let mut param_bits = [0u64; 8];
            for b in &mut param_bits {
                *b = c.u64()?;
            }
            let mut measure = [0u32; 4];
            for w in &mut measure {
                *w = c.u32()?;
            }
            Frame::Request(Request {
                req_id,
                tenant,
                eta,
                deadline_bits,
                param_bits,
                measure,
            })
        }
        KIND_RESPONSE => {
            let req_id = c.u64()?;
            let tag = c.u8()?;
            let value = match tag {
                0 => oaq_engine::QosValue::Scalar(f64::from_bits(c.u64()?)),
                1 => {
                    let n = c.u32()?;
                    if n > MAX_DISTRIBUTION {
                        return Err(ProtoError::BadDistributionLength(n));
                    }
                    let mut d = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        d.push(f64::from_bits(c.u64()?));
                    }
                    oaq_engine::QosValue::Distribution(d)
                }
                t => return Err(ProtoError::BadValueTag(t)),
            };
            Frame::Response(Response { req_id, value })
        }
        KIND_ERROR => {
            let req_id = c.u64()?;
            let raw = c.u16()?;
            let code = ErrorCode::from_code(raw).ok_or(ProtoError::UnknownErrorCode(raw))?;
            let aux0 = c.u64()?;
            let aux1 = c.u64()?;
            Frame::Error(ErrorFrame {
                req_id,
                code,
                aux0,
                aux1,
            })
        }
        k => return Err(ProtoError::UnknownKind(k)),
    };
    c.finish()?;
    Ok(frame)
}

// ---- framing I/O -------------------------------------------------------

/// Appends one length-prefixed frame to `out`: `payload` appends the
/// payload bytes, and the prefix is patched in once their length is known.
/// This is the only place the length prefix is written.
pub fn append_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = out.len() - start - 4;
    debug_assert!(len <= MAX_FRAME);
    #[allow(clippy::cast_possible_truncation)]
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Writes one length-prefixed frame — prefix and payload in a single
/// `write_all`, so an unbuffered `TCP_NODELAY` socket sends one segment —
/// then flushes `w`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    append_frame(&mut frame, |out| out.extend_from_slice(payload));
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame payload; `Ok(None)` on a clean EOF at
/// a frame boundary.
///
/// # Errors
///
/// `InvalidData` for an oversized length prefix, `UnexpectedEof` for a
/// connection cut mid-frame, or any underlying I/O error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ProtoError::Oversized { len: len as u64 },
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// An incremental frame extractor for reads that may time out mid-frame.
///
/// The server feeds whatever bytes `read` returned into [`push`] and
/// drains complete frames with [`next_frame`]; partial frames stay
/// buffered across read timeouts, so a slow client never desynchronizes
/// the stream. Frames are borrowed in place behind a read cursor; the
/// consumed prefix is compacted away once per [`push`], not per frame.
///
/// [`push`]: FrameBuffer::push
/// [`next_frame`]: FrameBuffer::next_frame
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte in `buf`.
    pos: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends freshly read bytes, first dropping the frames already
    /// handed out.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Borrows the next complete frame payload, if one is buffered.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Oversized`] when the buffered length prefix exceeds
    /// [`MAX_FRAME`] — the connection cannot resynchronize and should be
    /// dropped.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        let rest = &self.buf[self.pos..];
        let Some(&prefix) = rest.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::Oversized { len: len as u64 });
        }
        let Some(payload) = rest.get(4..4 + len) else {
            return Ok(None);
        };
        self.pos += 4 + len;
        Ok(Some(payload))
    }

    /// Bytes currently buffered and not yet handed out (complete or
    /// partial frames).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaq_engine::{Measure, QosValue, QuerySpec, Scheme, TenantId};

    fn sample_query() -> oaq_engine::QosQuery {
        QuerySpec::paper_defaults(
            5e-5,
            Measure::QosAtLeast {
                scheme: Scheme::Oaq,
                y: 2,
            },
        )
        .build()
        .unwrap()
    }

    #[test]
    fn request_round_trips_through_wire_and_spec() {
        let q = sample_query()
            .for_tenant(TenantId(7))
            .with_deadline_ms(25.0)
            .unwrap();
        let req = Request::from_query(42, &q);
        let bytes = encode_request(&req);
        let Frame::Request(back) = decode_frame(&bytes).unwrap() else {
            panic!("request frame expected");
        };
        assert_eq!(back, req);
        let spec = back.to_spec().unwrap();
        let rebuilt = spec.build().unwrap();
        assert_eq!(rebuilt.key(), q.key(), "wire trip preserves the exact key");
        assert_eq!(rebuilt.tenant(), TenantId(7));
        assert_eq!(rebuilt.deadline_ms(), Some(25.0));
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        for value in [
            QosValue::Scalar(0.123_456_789_012_345_67),
            QosValue::Scalar(f64::MIN_POSITIVE),
            QosValue::Distribution(vec![0.25, 0.5, 0.25]),
            QosValue::Distribution(vec![]),
        ] {
            let bytes = encode_response(9, &value);
            let Frame::Response(r) = decode_frame(&bytes).unwrap() else {
                panic!("response frame expected");
            };
            assert_eq!(r.req_id, 9);
            assert_eq!(r.value, value);
        }
    }

    #[test]
    fn error_frames_round_trip() {
        let e = ErrorFrame {
            req_id: 3,
            code: ErrorCode::QuotaExceeded,
            aux0: 1024,
            aux1: 0,
        };
        let bytes = encode_error(&e);
        assert_eq!(decode_frame(&bytes).unwrap(), Frame::Error(e));
    }

    #[test]
    fn every_error_code_survives_the_wire() {
        for code in [
            ErrorCode::ShuttingDown,
            ErrorCode::QuotaExceeded,
            ErrorCode::Overloaded,
            ErrorCode::InvalidParam,
            ErrorCode::DeadlineConsumed,
            ErrorCode::EvalPanicked,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Solver,
            ErrorCode::WorkerLost,
            ErrorCode::Malformed,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_code(code.code()), Some(code));
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(1), None, "code 1 stays retired");
        assert_eq!(ErrorCode::from_code(12345), None);
    }

    #[test]
    fn engine_errors_map_to_stable_codes() {
        let cases = [
            (
                EngineError::Rejected(RejectReason::ShuttingDown),
                ErrorCode::ShuttingDown,
            ),
            (
                EngineError::Rejected(RejectReason::QuotaExceeded {
                    tenant: TenantId(5),
                }),
                ErrorCode::QuotaExceeded,
            ),
            (
                EngineError::Rejected(RejectReason::Overloaded),
                ErrorCode::Overloaded,
            ),
            (EngineError::WorkerLost, ErrorCode::WorkerLost),
            (
                EngineError::Query(QueryError::EvalPanicked),
                ErrorCode::EvalPanicked,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(error_code_of(&err).0, want, "{err:?}");
        }
        let (code, a0, a1) = error_code_of(&EngineError::Query(QueryError::DeadlineExceeded {
            deadline_ms: 10.0,
            waited_ms: 12.5,
        }));
        assert_eq!(code, ErrorCode::DeadlineExceeded);
        assert_eq!(f64::from_bits(a0), 10.0);
        assert_eq!(f64::from_bits(a1), 12.5);
    }

    #[test]
    fn hostile_payloads_yield_typed_errors() {
        assert!(matches!(
            decode_frame(&[]),
            Err(ProtoError::Truncated { .. })
        ));
        assert!(matches!(
            decode_frame(&[0x00, 0x00, 1, 1]),
            Err(ProtoError::BadMagic(0))
        ));
        let mut bad_version = encode_error(&ErrorFrame {
            req_id: 0,
            code: ErrorCode::Internal,
            aux0: 0,
            aux1: 0,
        });
        bad_version[2] = 99;
        assert_eq!(
            decode_frame(&bad_version),
            Err(ProtoError::UnsupportedVersion(99))
        );
        let mut bad_kind = bad_version;
        bad_kind[2] = VERSION;
        bad_kind[3] = 200;
        assert_eq!(decode_frame(&bad_kind), Err(ProtoError::UnknownKind(200)));
        // Truncation at every prefix of a valid request: typed, no panic.
        let full = encode_request(&Request::from_query(1, &sample_query()));
        for cut in 0..full.len() {
            assert!(
                matches!(
                    decode_frame(&full[..cut]),
                    Err(ProtoError::Truncated { .. } | ProtoError::BadMagic(_))
                ),
                "cut at {cut}"
            );
        }
        // Trailing garbage is rejected, not ignored.
        let mut padded = full;
        padded.push(0xFF);
        assert_eq!(
            decode_frame(&padded),
            Err(ProtoError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn oversized_distribution_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_header(&mut bytes, KIND_RESPONSE);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(ProtoError::BadDistributionLength(u32::MAX))
        );
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let a = encode_request(&Request::from_query(1, &sample_query()));
        let b = encode_error(&ErrorFrame {
            req_id: 2,
            code: ErrorCode::Overloaded,
            aux0: 0,
            aux1: 0,
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut fb = FrameBuffer::new();
        // Feed one byte at a time: frames must come out whole, in order.
        let mut out = Vec::new();
        for &byte in &wire {
            fb.push(&[byte]);
            while let Some(p) = fb.next_frame().unwrap() {
                out.push(p.to_vec());
            }
        }
        assert_eq!(out, vec![a, b]);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_rejects_oversized_prefix() {
        let mut fb = FrameBuffer::new();
        fb.push(&u32::MAX.to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(ProtoError::Oversized { .. })));
    }

    #[test]
    fn read_frame_handles_eof_and_oversize() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"abc".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        let mut huge = io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        let err = read_frame(&mut huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // EOF mid-frame is an error, not a silent truncation.
        let mut cut = io::Cursor::new(vec![8, 0, 0, 0, 1, 2]);
        assert_eq!(
            read_frame(&mut cut).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn proto_errors_render() {
        for e in [
            ProtoError::Truncated { needed: 4, got: 2 },
            ProtoError::BadMagic(7),
            ProtoError::UnsupportedVersion(9),
            ProtoError::UnknownKind(5),
            ProtoError::TrailingBytes { extra: 3 },
            ProtoError::Oversized { len: 1 << 30 },
            ProtoError::BadValueTag(9),
            ProtoError::BadDistributionLength(70_000),
            ProtoError::UnknownErrorCode(77),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
