//! A minimal blocking client for the serve protocol.
//!
//! Two usage shapes: [`Client::call`] for one-request-at-a-time callers,
//! and split [`Client::send`]/[`Client::recv`] for pipelining — the load
//! generator keeps a window of requests on the wire and matches answers
//! by request id. The connection is sequential (answers arrive in request
//! order), so no reorder buffer is needed.

use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::proto::{
    append_frame, decode_frame, encode_request_into, read_frame, ErrorCode, Frame, ProtoError,
    Request,
};

/// What the server answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The computed value.
    Value {
        /// Echoed request id.
        req_id: u64,
        /// The measure.
        value: oaq_engine::QosValue,
    },
    /// A typed failure.
    Error {
        /// Echoed request id (`0` when the request never parsed).
        req_id: u64,
        /// The failure code.
        code: ErrorCode,
        /// Code-specific detail.
        aux0: u64,
        /// Second detail word.
        aux1: u64,
    },
}

impl Reply {
    /// The request id this reply answers.
    #[must_use]
    pub fn req_id(&self) -> u64 {
        match self {
            Reply::Value { req_id, .. } | Reply::Error { req_id, .. } => *req_id,
        }
    }
}

/// Why a client call failed below the protocol's typed error frames.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server sent bytes that do not decode.
    Proto(ProtoError),
    /// The server closed the connection before answering.
    Closed,
    /// The server sent a request frame (only clients send those).
    UnexpectedFrame,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O: {e}"),
            ClientError::Proto(e) => write!(f, "client protocol: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::UnexpectedFrame => write!(f, "server sent a request frame"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    frame: Vec<u8>,
}

impl Client {
    /// Connects to a serve frontend.
    ///
    /// # Errors
    ///
    /// The connect error, verbatim.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Client::from_stream(stream)
    }

    /// Wraps an already-connected stream (e.g. one that has spoken raw
    /// bytes first).
    ///
    /// # Errors
    ///
    /// The stream-clone error, verbatim.
    pub fn from_stream(stream: TcpStream) -> io::Result<Client> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            frame: Vec::new(),
        })
    }

    /// Sends a request without waiting (pipelining). Flushes the socket.
    ///
    /// # Errors
    ///
    /// The write error, verbatim.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.send_buffered(req)?;
        self.flush()
    }

    /// Sends a request *without* flushing — the batcher for deep
    /// pipelines; call [`Client::flush`] before the first `recv`.
    ///
    /// # Errors
    ///
    /// The write error, verbatim.
    pub fn send_buffered(&mut self, req: &Request) -> io::Result<()> {
        self.frame.clear();
        append_frame(&mut self.frame, |o| encode_request_into(o, req));
        self.writer.write_all(&self.frame)
    }

    /// Flushes buffered sends.
    ///
    /// # Errors
    ///
    /// The flush error, verbatim.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Receives the next reply in wire order.
    ///
    /// # Errors
    ///
    /// [`ClientError::Closed`] on clean EOF, otherwise the I/O or
    /// protocol failure.
    pub fn recv(&mut self) -> Result<Reply, ClientError> {
        let payload = read_frame(&mut self.reader)?.ok_or(ClientError::Closed)?;
        match decode_frame(&payload).map_err(ClientError::Proto)? {
            Frame::Response(r) => Ok(Reply::Value {
                req_id: r.req_id,
                value: r.value,
            }),
            Frame::Error(e) => Ok(Reply::Error {
                req_id: e.req_id,
                code: e.code,
                aux0: e.aux0,
                aux1: e.aux1,
            }),
            Frame::Request(_) => Err(ClientError::UnexpectedFrame),
        }
    }

    /// One synchronous round trip.
    ///
    /// # Errors
    ///
    /// Same as [`Client::send`] and [`Client::recv`].
    pub fn call(&mut self, req: &Request) -> Result<Reply, ClientError> {
        self.send(req)?;
        self.recv()
    }
}
