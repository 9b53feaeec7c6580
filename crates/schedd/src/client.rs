//! A blocking `schedd` client, pipelining-capable.
//!
//! [`Client::submit`] is the simple path: one request, block for its
//! response. The load-generator path splits that into [`Client::send`]
//! and [`Client::recv`] so a window of requests can be in flight on one
//! connection — the daemon's workers answer in completion order, so
//! callers match responses to requests by `request_id`, not arrival
//! order.

use std::fmt;
use std::io::{self, BufReader, Write};

use crate::conn::READ_WINDOW;
use crate::net::{Endpoint, Stream};
use crate::protocol::{
    begin_frame, read_frame, seal_frame, DaemonStats, DecodeError, ErrorReply, FrameError, Request,
    Response, SubmitDeltaRequest, SubmitReply, SubmitRequest,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not frame.
    Frame(FrameError),
    /// The server's frame did not decode.
    Decode(DecodeError),
    /// The server answered with a typed error.
    Server(ErrorReply),
    /// The server hung up while a response was owed.
    ConnectionClosed,
    /// The server answered with a frame the call did not expect.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Decode(e) => write!(f, "bad response body: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::ConnectionClosed => f.write_str("server closed the connection"),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// A connected `schedd` client.
pub struct Client {
    /// Reads go through a buffer of [`READ_WINDOW`] bytes, so one `read`
    /// syscall can fetch several pipelined replies; writes go to the
    /// socket underneath it, one `write_all` per request.
    stream: BufReader<Stream>,
    next_id: u64,
    /// The last request's frame: each request is encoded straight into
    /// it, after the header, and the buffer is kept for the next.
    frame: Vec<u8>,
}

impl Client {
    /// Connect to a daemon.
    ///
    /// # Errors
    ///
    /// The underlying connect error.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            stream: BufReader::with_capacity(READ_WINDOW, endpoint.connect()?),
            next_id: 1,
            frame: Vec::new(),
        })
    }

    /// Hand out the next request id (monotonic per connection).
    pub fn next_request_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Fire one request without waiting (pipelining).
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.frame.clear();
        begin_frame(&mut self.frame);
        req.encode_to(&mut self.frame);
        seal_frame(&mut self.frame, 0)?;
        let stream = self.stream.get_mut();
        stream.write_all(&self.frame)?;
        stream.flush()?;
        Ok(())
    }

    /// Block for the next response frame, whatever request it answers.
    ///
    /// # Errors
    ///
    /// Transport, framing, or decode errors; [`ClientError::ConnectionClosed`]
    /// on EOF.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let body = read_frame(&mut self.stream)?.ok_or(ClientError::ConnectionClosed)?;
        Ok(Response::decode(&body)?)
    }

    /// Submit one request and block for **its** response (responses for
    /// other in-flight ids arrived out of order are not expected on
    /// this path and surface as [`ClientError::Unexpected`]).
    ///
    /// # Errors
    ///
    /// Everything [`recv`](Self::recv) can raise, plus
    /// [`ClientError::Server`] for typed server errors.
    pub fn submit(&mut self, mut req: SubmitRequest) -> Result<SubmitReply, ClientError> {
        req.request_id = self.next_request_id();
        let want = req.request_id;
        self.send(&Request::Submit(req))?;
        self.recv_schedule(want)
    }

    /// Submit a delta against a base the daemon retains and block for
    /// its response. A daemon that no longer holds the base answers
    /// with a typed `unknown-base` error ([`ClientError::Server`]);
    /// callers recover by falling back to [`submit`](Self::submit) with
    /// the full matrix.
    ///
    /// # Errors
    ///
    /// Everything [`submit`](Self::submit) can raise.
    pub fn submit_delta(
        &mut self,
        mut req: SubmitDeltaRequest,
    ) -> Result<SubmitReply, ClientError> {
        req.request_id = self.next_request_id();
        let want = req.request_id;
        self.send(&Request::SubmitDelta(req))?;
        self.recv_schedule(want)
    }

    /// Block for the next response, which must be the schedule answering
    /// request `want`.
    fn recv_schedule(&mut self, want: u64) -> Result<SubmitReply, ClientError> {
        match self.recv()? {
            Response::Schedule(reply) if reply.request_id == want => Ok(reply),
            Response::Error(err) => Err(ClientError::Server(err)),
            Response::Schedule(_) => Err(ClientError::Unexpected("schedule for another id")),
            Response::Stats { .. } => Err(ClientError::Unexpected("stats")),
            Response::ShutdownAck { .. } => Err(ClientError::Unexpected("shutdown ack")),
        }
    }

    /// Fetch the daemon's counter snapshot.
    ///
    /// # Errors
    ///
    /// Everything [`recv`](Self::recv) can raise.
    pub fn stats(&mut self) -> Result<DaemonStats, ClientError> {
        let id = self.next_request_id();
        self.send(&Request::Stats { request_id: id })?;
        match self.recv()? {
            Response::Stats { request_id, stats } if request_id == id => Ok(stats),
            Response::Error(err) => Err(ClientError::Server(err)),
            _ => Err(ClientError::Unexpected("non-stats response")),
        }
    }

    /// Ask the daemon to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Everything [`recv`](Self::recv) can raise.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.next_request_id();
        self.send(&Request::Shutdown { request_id: id })?;
        match self.recv()? {
            Response::ShutdownAck { request_id } if request_id == id => Ok(()),
            Response::Error(err) => Err(ClientError::Server(err)),
            _ => Err(ClientError::Unexpected("non-ack response")),
        }
    }
}
