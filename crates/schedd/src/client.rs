//! A blocking `schedd` client, pipelining-capable.
//!
//! [`Client::submit`] is the simple path: one request, block for its
//! response. The load-generator path splits that into [`Client::send`]
//! and [`Client::recv`] so a window of requests can be in flight on one
//! connection — the daemon's workers answer in completion order, so
//! callers match responses to requests by `request_id`, not arrival
//! order.
//!
//! **Held requests.** A sent request may be held, laid out behind the
//! requests not yet written, until the client must wait for the daemon.
//! The held requests go out together, in one `write_all`:
//!
//! * when [`recv`](Client::recv) is about to wait for bytes it does not
//!   hold;
//! * when `recv` hands out the last whole reply its window holds, so the
//!   daemon works on them while the caller handles that reply;
//! * once a window's worth of them (32 KiB) is held, so at most one
//!   window plus one frame is ever held;
//! * on [`flush`](Client::flush), and when the client is dropped.
//!
//! A caller that sends and then waits on something other than `recv`
//! calls `flush` first. Replies are read into one window, as the daemon
//! reads requests, and split off it in place: one `read` fetches every
//! reply the socket holds, up to a window, and each reply's checksum is
//! checked once.

use std::fmt;
use std::io::{self, Read, Write};

use crate::conn::{Window, READ_WINDOW};
use crate::net::{Endpoint, Stream};
use crate::protocol::{
    begin_frame, seal_frame, DaemonStats, DecodeError, ErrorReply, FrameError, Request, Response,
    SubmitDeltaRequest, SubmitReply, SubmitRequest,
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
    stream: Stream,
    next_id: u64,
    /// The held requests: each is encoded straight into it, behind the
    /// frames not yet written, and the buffer is kept for the next.
    out: Vec<u8>,
    /// Replies read and not yet handed out.
    window: Window,
}

impl Client {
    /// Connect to a daemon.
    ///
    /// # Errors
    ///
    /// The underlying connect error.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            stream: endpoint.connect()?,
            next_id: 1,
            out: Vec::new(),
            window: Window::new(),
        })
    }

    /// Hand out the next request id (monotonic per connection).
    pub fn next_request_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Fire one request without waiting (pipelining). It may be held
    /// until [`recv`](Self::recv) or [`flush`](Self::flush) (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Transport errors; `InvalidInput` for a body past the frame cap,
    /// which is not sent.
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        let start = begin_frame(&mut self.out);
        req.encode_to(&mut self.out);
        if let Err(e) = seal_frame(&mut self.out, start) {
            self.out.truncate(start);
            return Err(e.into());
        }
        if self.out.len() >= READ_WINDOW {
            self.flush()?;
        }
        Ok(())
    }

    /// Write every request [`send`](Self::send) holds.
    ///
    /// # Errors
    ///
    /// Transport errors; the held requests are dropped.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        Ok(written?)
    }

    /// Block for the next response frame, whatever request it answers.
    /// Held requests are written first if it must wait, and as it hands
    /// out the last whole reply read.
    ///
    /// # Errors
    ///
    /// Transport, framing, or decode errors; [`ClientError::ConnectionClosed`]
    /// on EOF.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        while !self.window.split()? {
            self.flush()?;
            let n = loop {
                match self.stream.read(self.window.room()) {
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    read => break read?,
                }
            };
            match n {
                0 if self.window.is_empty() => return Err(ClientError::ConnectionClosed),
                0 => return Err(FrameError::Truncated.into()),
                n => self.window.filled(n),
            }
        }
        if !self.window.holds_frame() {
            self.flush()?;
        }
        Ok(Response::decode(self.window.body())?)
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

impl Drop for Client {
    /// Write the held requests; a transport error is dropped with them.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use std::os::unix::net::{UnixListener, UnixStream};

    /// A client connected to a listener the test owns, and the test's end
    /// of the connection.
    fn pair(name: &str) -> (Client, UnixStream) {
        let path =
            std::env::temp_dir().join(format!("schedd-client-{name}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let client = Client::connect(&Endpoint::Unix(path.clone())).expect("connect");
        let (peer, _) = listener.accept().expect("accept");
        let _ = std::fs::remove_file(&path);
        (client, peer)
    }

    fn stats(request_id: u64) -> Request {
        Request::Stats { request_id }
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, body).unwrap();
        wire
    }

    /// What the peer can read now without waiting.
    fn readable(peer: &mut UnixStream) -> Vec<u8> {
        peer.set_nonblocking(true).unwrap();
        let mut buf = vec![0; 4 * READ_WINDOW];
        let n = match peer.read(&mut buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
            read => read.unwrap(),
        };
        peer.set_nonblocking(false).unwrap();
        buf.truncate(n);
        buf
    }

    /// One blocking read's worth of what the peer is sent.
    fn one_read(peer: &mut UnixStream) -> Vec<u8> {
        let mut buf = vec![0; 4 * READ_WINDOW];
        let n = peer.read(&mut buf).unwrap();
        buf.truncate(n);
        buf
    }

    #[test]
    fn sent_requests_are_held_until_recv_and_leave_in_one_write() {
        let (mut client, mut peer) = pair("held");
        let sent: Vec<u8> = (1..=5).flat_map(|id| framed(&stats(id).encode())).collect();
        for id in 1..=5 {
            client.send(&stats(id)).unwrap();
        }
        assert!(readable(&mut peer).is_empty(), "a request left before recv");
        // A recv that must wait writes all five first, in one write.
        let waiting = std::thread::spawn(move || {
            let reply = client.recv().unwrap();
            (client, reply)
        });
        assert_eq!(one_read(&mut peer), sent);
        // Five replies in one write, drained while more requests are sent:
        // those leave together once the last reply held is handed out.
        let replies: Vec<u8> = (1..=5)
            .flat_map(|request_id| {
                let stats = DaemonStats::default();
                framed(&Response::Stats { request_id, stats }.encode())
            })
            .collect();
        peer.write_all(&replies).unwrap();
        let (mut client, first) = waiting.join().unwrap();
        assert_eq!(first.request_id(), 1);
        for id in 2..=5 {
            client.send(&stats(10 + id)).unwrap();
            if id < 5 {
                assert_eq!(client.recv().unwrap().request_id(), id);
                assert!(readable(&mut peer).is_empty(), "sent with replies held");
            }
        }
        assert_eq!(client.recv().unwrap().request_id(), 5);
        let after: Vec<u8> = (12..=15)
            .flat_map(|id| framed(&stats(id).encode()))
            .collect();
        assert_eq!(readable(&mut peer), after);
    }

    #[test]
    fn a_window_of_held_requests_flush_and_drop_write_them() {
        let (mut client, mut peer) = pair("flush");
        // Held requests leave once a window of them is held.
        let frame = framed(&stats(1).encode()).len();
        let per_window = READ_WINDOW.div_ceil(frame);
        for id in 1..per_window as u64 {
            client.send(&stats(id)).unwrap();
        }
        assert!(readable(&mut peer).is_empty());
        client.send(&stats(per_window as u64)).unwrap();
        assert_eq!(readable(&mut peer).len(), per_window * frame);
        // `flush` writes what is held, and so does drop.
        client.send(&stats(1)).unwrap();
        client.flush().unwrap();
        assert_eq!(readable(&mut peer).len(), frame);
        client.send(&stats(2)).unwrap();
        drop(client);
        let mut rest = Vec::new();
        peer.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, framed(&stats(2).encode()));
    }
}
