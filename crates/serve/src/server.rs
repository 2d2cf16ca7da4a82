//! The TCP serving frontend: accept loop, per-connection frame pump,
//! graceful drain, snapshot warm-start.
//!
//! One OS thread per connection (connection counts here are bench
//! harnesses and operator tools, not the open internet), blocking I/O
//! with a short read timeout so every handler observes the shutdown flag
//! promptly. Shutdown is *graceful by construction*: the accept loop
//! closes first, each handler answers and sends every request it has
//! already read before it closes, and only then does the engine shut down
//! and the cache snapshot get written — so a drained server loses neither
//! in-flight answers nor its warm working set.
//!
//! Writes are batched per read: every reply to the frames one `read`
//! delivered is encoded into a reused buffer and sent in one `write` on a
//! `TCP_NODELAY` socket, so a reply never waits on Nagle's algorithm. The
//! price is head-of-line delay inside a batch — its first reply leaves
//! with its last — bounded by sending early past 64 KiB.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use oaq_engine::{Engine, EngineConfig, EngineError};

use crate::proto::{
    append_frame, decode_frame, encode_error_into, encode_response_into, error_code_of, ErrorCode,
    ErrorFrame, Frame, FrameBuffer, Request,
};
use crate::snapshot::{self, SnapshotStats};

/// How the server is sized and where its snapshot lives.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` to let the OS pick (the bound address
    /// is on [`ServerHandle::local_addr`]).
    pub addr: String,
    /// The engine behind the protocol.
    pub engine: EngineConfig,
    /// Cache snapshot path: loaded (best-effort) on boot, written on
    /// graceful shutdown. `None` disables persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Per-read socket timeout — the shutdown-flag polling cadence.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            engine: EngineConfig::default(),
            snapshot_path: None,
            read_timeout: Duration::from_millis(50),
        }
    }
}

/// What happened to the boot-time snapshot load.
#[derive(Debug, Clone)]
pub enum WarmStart {
    /// No snapshot path was configured.
    Disabled,
    /// No snapshot file existed (first boot); the engine starts cold.
    ColdBoot,
    /// The snapshot loaded; caches are warm.
    Loaded(SnapshotStats),
    /// A snapshot existed but was rejected (corrupt, truncated, or a
    /// version this build does not speak); the engine starts cold.
    Rejected(String),
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] still stops and joins everything, but skips
/// the snapshot write.
#[derive(Debug)]
pub struct ServerHandle {
    engine: Arc<Engine>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    snapshot_path: Option<PathBuf>,
    warm_start: WarmStart,
}

/// Starts a server per `config`: loads the snapshot (best-effort), binds,
/// and spawns the accept loop.
///
/// # Errors
///
/// The bind error, verbatim. A snapshot that fails to load is *not* an
/// error — the server boots cold and reports why on
/// [`ServerHandle::warm_start`].
pub fn serve(config: &ServerConfig) -> io::Result<ServerHandle> {
    let engine = Arc::new(Engine::new(config.engine));
    let warm_start = match &config.snapshot_path {
        None => WarmStart::Disabled,
        Some(path) => match snapshot::load(path, &engine) {
            Ok(stats) => WarmStart::Loaded(stats),
            Err(snapshot::SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                WarmStart::ColdBoot
            }
            Err(e) => WarmStart::Rejected(e.to_string()),
        },
    };
    let listener = TcpListener::bind(config.addr.as_str())?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let read_timeout = config.read_timeout;
        std::thread::spawn(move || accept_loop(&listener, &engine, &stop, read_timeout))
    };
    Ok(ServerHandle {
        engine,
        local_addr,
        stop,
        accept_thread: Some(accept_thread),
        snapshot_path: config.snapshot_path.clone(),
        warm_start,
    })
}

fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<Engine>,
    stop: &Arc<AtomicBool>,
    read_timeout: Duration,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        match conn {
            Ok(stream) => {
                let engine = Arc::clone(engine);
                let stop = Arc::clone(stop);
                handlers.push(std::thread::spawn(move || {
                    // A connection we cannot serve (socket error) is just
                    // dropped; the peer sees the close.
                    let _ = handle_connection(stream, &engine, &stop, read_timeout);
                }));
            }
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    }
    // Drain: every handler finishes its in-flight request before the
    // accept loop reports the server down.
    for h in handlers {
        let _ = h.join();
    }
}

/// Once the pending replies pass this many bytes they are sent without
/// waiting for the rest of the batch: bounds the per-connection output
/// buffer and the head-of-line delay inside one batch.
const FLUSH_AT: usize = 64 * 1024;

/// Serves one connection until the peer closes, a fatal protocol
/// violation desynchronizes the stream, or shutdown drains it.
///
/// Replies to every frame a read delivered are encoded into one reused
/// buffer and leave in a single `write` before the handler blocks in
/// `read` again (or returns); with `TCP_NODELAY` set, none of them waits
/// on Nagle's algorithm for the peer's delayed ACK.
fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    stop: &AtomicBool,
    read_timeout: Duration,
) -> io::Result<()> {
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let mut frames = FrameBuffer::new();
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Serve everything already buffered before touching the socket.
        loop {
            match frames.next_frame() {
                Ok(Some(payload)) => {
                    serve_frame(payload, engine, &mut out);
                    if out.len() >= FLUSH_AT {
                        send_replies(&mut writer, &mut out)?;
                    }
                }
                Ok(None) => break,
                // An oversized length prefix cannot resynchronize: send
                // the answers before it, answer it once, then close.
                Err(_) => {
                    malformed(&mut out, 0);
                    return send_replies(&mut writer, &mut out);
                }
            }
        }
        send_replies(&mut writer, &mut out)?;
        if stop.load(Ordering::Acquire) {
            // Drained: nothing buffered and shutdown requested.
            return Ok(());
        }
        match reader.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => frames.push(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Sends the pending replies, if any, in one write and empties the buffer.
fn send_replies(writer: &mut TcpStream, out: &mut Vec<u8>) -> io::Result<()> {
    if !out.is_empty() {
        writer.write_all(out)?;
        out.clear();
    }
    Ok(())
}

/// Answers one frame into `out`: a request runs through the engine;
/// anything else (including undecodable bytes) gets a typed `Malformed`
/// error frame.
fn serve_frame(payload: &[u8], engine: &Engine, out: &mut Vec<u8>) {
    match decode_frame(payload) {
        Ok(Frame::Request(req)) => answer_request(&req, engine, out),
        Ok(Frame::Response(r)) => malformed(out, r.req_id),
        Ok(Frame::Error(e)) => malformed(out, e.req_id),
        Err(_) => malformed(out, 0),
    }
}

fn malformed(out: &mut Vec<u8>, req_id: u64) {
    error_frame(out, req_id, ErrorCode::Malformed, 0, 0);
}

fn answer_request(req: &Request, engine: &Engine, out: &mut Vec<u8>) {
    let Some(spec) = req.to_spec() else {
        return malformed(out, req.req_id);
    };
    let result = spec
        .build()
        .map_err(EngineError::Query)
        .and_then(|query| engine.evaluate(query));
    match result {
        Ok(value) => append_frame(out, |o| encode_response_into(o, req.req_id, &value)),
        Err(e) => {
            let (code, aux0, aux1) = error_code_of(&e);
            error_frame(out, req.req_id, code, aux0, aux1);
        }
    }
}

fn error_frame(out: &mut Vec<u8>, req_id: u64, code: ErrorCode, aux0: u64, aux1: u64) {
    let e = ErrorFrame {
        req_id,
        code,
        aux0,
        aux1,
    };
    append_frame(out, |o| encode_error_into(o, &e));
}

impl ServerHandle {
    /// The bound address (resolves port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the protocol — for metrics and cache-counter
    /// reads; querying through it bypasses the wire path.
    #[must_use]
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// What the boot-time snapshot load did.
    #[must_use]
    pub fn warm_start(&self) -> &WarmStart {
        &self.warm_start
    }

    /// Gracefully stops the server: no new connections, every in-flight
    /// request answered, engine shut down, snapshot written (when
    /// configured). Returns the snapshot stats, if one was saved.
    ///
    /// # Errors
    ///
    /// A snapshot write failure; the server is down regardless.
    pub fn shutdown(mut self) -> Result<Option<SnapshotStats>, snapshot::SnapshotError> {
        self.stop_and_join();
        self.engine.shutdown();
        match self.snapshot_path.take() {
            Some(path) => snapshot::save(&path, &self.engine).map(Some),
            None => Ok(None),
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // The listener blocks in accept(): a throwaway connection wakes
        // it so it can observe the flag.
        let _ = TcpStream::connect_timeout(&wake_addr(self.local_addr), Duration::from_millis(250));
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// The address a wake-up connection should dial (loopback realization of
/// a wildcard bind).
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        if let Ok(mut it) = ("127.0.0.1", bound.port()).to_socket_addrs() {
            if let Some(a) = it.next() {
                return a;
            }
        }
    }
    bound
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
        self.engine.shutdown();
    }
}
