//! # oaq-serve — the networked QoS serving frontend
//!
//! Puts the in-process [`oaq_engine::Engine`] behind a TCP socket with a
//! compact length-prefixed binary protocol, cache snapshot warm-start,
//! and graceful drain — the deployment shape of the paper's QoS
//! evaluation stack: one long-lived server answering constellation
//! operators' `P(Y ≥ y)` queries instead of each tool re-running the
//! analytic pipeline.
//!
//! * [`proto`] — the wire protocol: versioned frames, typed request /
//!   response / error payloads, a total decoder (arbitrary bytes map to
//!   typed [`proto::ProtoError`]s, never a panic), and the incremental
//!   [`proto::FrameBuffer`] the server pumps between read timeouts.
//! * [`server`] — the accept loop and per-connection handlers; shutdown
//!   drains every in-flight request before the engine winds down.
//! * [`client`] — a blocking client with split send/recv for pipelined
//!   load generation.
//! * [`snapshot`] — versioned, checksummed serialization of both engine
//!   cache layers; a reloaded snapshot answers the steady-state working
//!   set without re-running a single `P(k)` CTMC solve, and a corrupt or
//!   future-version file is rejected typed (the server just boots cold).
//!
//! ## Example
//!
//! ```
//! use oaq_engine::{EngineConfig, Measure, QuerySpec, Scheme};
//! use oaq_serve::client::{Client, Reply};
//! use oaq_serve::proto::Request;
//! use oaq_serve::server::{serve, ServerConfig};
//!
//! let handle = serve(&ServerConfig {
//!     engine: EngineConfig { workers: 2, ..EngineConfig::default() },
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let query = QuerySpec::paper_defaults(1e-5, Measure::QosAtLeast { scheme: Scheme::Oaq, y: 2 })
//!     .build()
//!     .unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! let Reply::Value { value, .. } = client.call(&Request::from_query(1, &query)).unwrap() else {
//!     panic!("expected a value");
//! };
//! assert!(value.scalar() > 0.7);
//! drop(client);
//! handle.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;
pub mod snapshot;

pub use client::{Client, ClientError, Reply};
pub use proto::{ErrorCode, Frame, ProtoError, Request};
pub use server::{serve, ServerConfig, ServerHandle, WarmStart};
pub use snapshot::{SnapshotError, SnapshotStats};
