//! The daemon shell: sockets, threads, admission, and graceful drain.
//!
//! Thread anatomy of a running [`Server`]:
//!
//! * one **acceptor** blocks on the listener and spawns a reader per
//!   connection;
//! * one **reader per connection** reads frames through a buffer of
//!   `READ_WINDOW` (32 KiB; one `read` syscall per window of pipelined
//!   frames) and runs the admission stage on every
//!   `Submit`: drain check → admission (registry lookup, the daemon's
//!   fabric of the named kind, and keys from the request's envelope, one
//!   [`ServiceState`] `Pending`) →
//!   the service's resident
//!   answer → per-client quota → bounded-queue push. Admission has two
//!   front ends. A `Submit` body whose envelope checks out, whose cost
//!   model is uniform and whose messages are already canonical
//!   (row-major, in range, no self-message, no zero size, no cell twice)
//!   is keyed straight from its message slice and decoded only if memory
//!   cannot answer it; every other frame is decoded in full first, and a
//!   `SubmitDelta` is resolved against its retained base. Either way, a
//!   request whose schedule and estimate are both resident is answered
//!   right there, by the reader: it occupies no worker, so it skips the
//!   quota and the queue, and a canonical one builds no matrix,
//!   serialises no matrix and encodes no schedule. Every rejection is a
//!   typed error frame; the connection stays healthy;
//! * a fixed pool of **workers** pops the jobs memory could not answer —
//!   what must be read from the store, compiled, patched or priced, or
//!   (incremental daemon) whose patch base must be retained again — and
//!   finishes the [`ServiceState`] pipeline on them.
//!
//! A reader and a worker answer alike: the service hands back one answer,
//! and one writer ([`ServiceState`]'s `put_reply`) lays the `Schedule`
//! frame out from the estimate's report and the artifact bytes the
//! schedule cache keeps beside the schedule, so the reply to a miss keeps
//! the artifact its repeats are answered with. Readers and workers write
//! responses under the connection's writer lock, which is why responses
//! can overtake each other and every frame echoes its `request_id`.
//!
//! A worker writes its reply as soon as it has it. A reader holds the
//! frames it lays out itself (resident answers, `Stats`, `ShutdownAck`,
//! error frames) while the next whole request is already in its read
//! buffer, and writes them in one `write_all` before it can block in
//! `read` again, before it exits, or once they pass `HELD_CAP` (64 KiB); a
//! `ShutdownAck` is written before the drain starts. A pipelined burst of
//! resident repeats so costs one `read` and one `write` per window, not
//! per request, and the reader's own replies leave in request order. A
//! frame is counted when it is laid out, a `Schedule` as `completed`, so
//! a client never reads a reply the counters miss and a `Stats` frame
//! held behind answers counts them; a write that fails moves its frames
//! to `write_failures`.
//!
//! A pipelining client must keep reading its replies. A reader whose
//! held replies do not fit the socket's buffers blocks in the write, and
//! reads no more of that connection's requests until the client reads
//! its replies. A client that writes more request bytes than the socket
//! buffers and the reader's window hold before it reads any reply can
//! therefore stall its own connection; how many requests that takes
//! moves with `READ_WINDOW` and `HELD_CAP`.
//!
//! Graceful shutdown (from [`ServerHandle::shutdown`] or a client's
//! `Shutdown` frame) is an ordering, not a flag: mark draining (new
//! submits → `ShuttingDown`) → wake and join the acceptor → close the
//! queue and join the workers, which **drains every admitted job** →
//! unblock and join the readers → remove the Unix socket file. Nothing
//! admitted is dropped; nothing after the drain mark is accepted.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::net::{Endpoint, Listener, Stream};
use crate::protocol::{
    begin_frame, read_frame, seal_frame, DaemonStats, ErrorCode, ErrorReply, FrameError, Request,
    Response, SubmitRequest, SubmitView,
};
use crate::queue::{BoundedQueue, PushError};
use crate::service::{Answer, Pending, ServiceConfig, ServiceState};

/// Bytes one `read` syscall may fetch off a connection: a window of
/// about five pipelined `cube:d=6` requests on the daemon's side, and of
/// replies on the [`Client`](crate::Client)'s.
pub(crate) const READ_WINDOW: usize = 32 << 10;

/// Held bytes past which a reader writes its replies without waiting
/// for the end of the frames it has read.
const HELD_CAP: usize = 64 << 10;

/// One admitted request memory could not answer, on its way to the
/// worker pool with its admission and keys.
struct Job {
    req: SubmitRequest,
    pending: Pending,
    writer: Arc<Mutex<Stream>>,
    conn: Arc<ConnState>,
}

/// Frames laid out for one connection and not yet written: a reader's
/// replies while it has whole requests left to read, or the one reply a
/// worker is about to write.
struct Outbox {
    writer: Arc<Mutex<Stream>>,
    bytes: Vec<u8>,
    frames: u64,
    /// The `Schedule` frames among them, already counted `completed`.
    schedules: u64,
}

impl Outbox {
    fn to(writer: Arc<Mutex<Stream>>) -> Outbox {
        Outbox {
            writer,
            bytes: Vec::new(),
            frames: 0,
            schedules: 0,
        }
    }
}

/// Per-connection shared state (reader + workers).
struct ConnState {
    id: u64,
    inflight: AtomicU64,
}

/// Counters backing [`DaemonStats`]. Everything is a relaxed atomic:
/// these are metrics, not synchronization.
#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    disconnects_midstream: AtomicU64,
    submits: AtomicU64,
    delta_submits: AtomicU64,
    completed: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_shutdown: AtomicU64,
    errors_malformed: AtomicU64,
    errors_other: AtomicU64,
    write_failures: AtomicU64,
    inflight: AtomicU64,
    /// `Submit` bodies decoded in full (each builds a matrix): a resident
    /// repeat answered from its bytes adds nothing here.
    #[cfg(test)]
    submit_decodes: AtomicU64,
    /// `write_all` calls on connections, by readers and workers alike.
    #[cfg(test)]
    socket_writes: AtomicU64,
}

/// State shared by every daemon thread.
struct Shared {
    state: ServiceState,
    queue: BoundedQueue<Job>,
    counters: Counters,
    config: ServiceConfig,
    endpoint: Endpoint,
    /// Set once a shutdown is requested; admission rejects from then on.
    draining: Mutex<bool>,
    drain_requested: Condvar,
    /// Live connections, by id, as extra socket handles for shutdown.
    conns: Mutex<HashMap<u64, Stream>>,
}

impl Shared {
    fn is_draining(&self) -> bool {
        *self.draining.lock().expect("drain lock")
    }

    fn request_drain(&self) {
        *self.draining.lock().expect("drain lock") = true;
        self.drain_requested.notify_all();
    }

    fn stats(&self) -> DaemonStats {
        let cache = self.state.cache_stats();
        let flight = self.state.flight_stats();
        let (estimate_hits, estimate_misses) = self.state.estimate_stats();
        let incr = self.state.incremental_stats().unwrap_or_default();
        let c = &self.counters;
        DaemonStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_active: c.connections_active.load(Ordering::Relaxed),
            disconnects_midstream: c.disconnects_midstream.load(Ordering::Relaxed),
            submits: c.submits.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            compiles: cache.misses,
            coalesced: flight.coalesced,
            cache_requests: cache.requests,
            cache_mem_hits: cache.mem_hits,
            cache_store_hits: cache.store_hits,
            cache_misses: cache.misses,
            estimate_hits,
            estimate_misses,
            rejected_quota: c.rejected_quota.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            rejected_shutdown: c.rejected_shutdown.load(Ordering::Relaxed),
            errors_malformed: c.errors_malformed.load(Ordering::Relaxed),
            errors_other: c.errors_other.load(Ordering::Relaxed),
            write_failures: c.write_failures.load(Ordering::Relaxed),
            queue_depth: self.queue.len() as u64,
            inflight: c.inflight.load(Ordering::Relaxed),
            draining: u64::from(self.is_draining()),
            delta_submits: c.delta_submits.load(Ordering::Relaxed),
            incr_base_hits: incr.base_hits,
            incr_patches: incr.patches,
            incr_fallbacks: incr.fallbacks,
            incr_validation_rejections: incr.validation_rejections,
        }
    }

    /// Put the `Schedule` reply answering `request_id` with `answer`,
    /// laid out by [`ServiceState::put_reply`] (see [`put`](Self::put)).
    fn put_answer(&self, out: &mut Outbox, request_id: u64, want_schedule: bool, answer: &Answer) {
        self.put(out, true, |frame| {
            self.state
                .put_reply(frame, request_id, want_schedule, answer);
        });
    }

    /// Put any other response (see [`put`](Self::put)).
    fn put_response(&self, out: &mut Outbox, resp: &Response) {
        self.put(out, false, |frame| resp.encode_to(frame));
    }

    /// [`put_response`](Self::put_response) with an error frame.
    fn put_error(&self, out: &mut Outbox, request_id: u64, code: ErrorCode, detail: String) {
        let resp = Response::Error(ErrorReply {
            request_id,
            code,
            detail,
        });
        self.put_response(out, &resp);
    }

    /// Lay one frame's body out with `body` after the frames `out` holds,
    /// seal the frame and commit it to the connection: a `schedule` is
    /// counted `completed` now, before any of its bytes can reach the
    /// client, so a `Stats` frame held behind it counts it. A frame that
    /// cannot be sealed is dropped and counted in `write_failures`.
    fn put(&self, out: &mut Outbox, schedule: bool, body: impl FnOnce(&mut Vec<u8>)) {
        let start = begin_frame(&mut out.bytes);
        body(&mut out.bytes);
        if seal_frame(&mut out.bytes, start).is_err() {
            out.bytes.truncate(start);
            self.counters.write_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
        out.frames += 1;
        if schedule {
            out.schedules += 1;
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Write every frame `out` holds in one `write_all` under the
    /// connection's writer lock. If the write fails, the frames move from
    /// `completed` to `write_failures`: a dead client is not the daemon's
    /// problem beyond that count.
    fn flush(&self, out: &mut Outbox) {
        if out.bytes.is_empty() {
            return;
        }
        #[cfg(test)]
        self.counters.socket_writes.fetch_add(1, Ordering::Relaxed);
        let written = {
            let mut stream = out.writer.lock().expect("writer lock");
            stream.write_all(&out.bytes).and_then(|()| stream.flush())
        };
        if written.is_err() {
            let c = &self.counters;
            c.completed.fetch_sub(out.schedules, Ordering::Relaxed);
            c.write_failures.fetch_add(out.frames, Ordering::Relaxed);
        }
        out.bytes.clear();
        (out.frames, out.schedules) = (0, 0);
    }
}

/// A running daemon.
pub struct Server;

/// Handle on a running daemon: stats, test hooks, shutdown.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `endpoint` and start serving.
    ///
    /// # Errors
    ///
    /// The bind error, if the endpoint cannot be listened on.
    pub fn start(config: ServiceConfig, endpoint: &Endpoint) -> io::Result<ServerHandle> {
        let listener = endpoint.bind()?;
        let bound = listener.local_endpoint()?;
        let shared = Arc::new(Shared {
            state: ServiceState::new(&config),
            queue: BoundedQueue::new(config.queue_capacity),
            counters: Counters::default(),
            config,
            endpoint: bound,
            draining: Mutex::new(false),
            drain_requested: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
        });

        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("schedd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let readers = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let readers = Arc::clone(&readers);
            std::thread::Builder::new()
                .name("schedd-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared, &readers))
                .expect("spawn acceptor")
        };

        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            readers,
            workers,
        })
    }
}

impl ServerHandle {
    /// The endpoint actually bound (TCP port 0 resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.endpoint
    }

    /// Snapshot every daemon counter.
    pub fn stats(&self) -> DaemonStats {
        self.shared.stats()
    }

    /// Test hook: stop workers from taking jobs, making queue depth and
    /// quota occupancy deterministic. Drain ([`shutdown`](Self::shutdown))
    /// overrides a pause.
    pub fn pause_workers(&self) {
        self.shared.queue.pause();
    }

    /// Undo [`pause_workers`](Self::pause_workers).
    pub fn resume_workers(&self) {
        self.shared.queue.resume();
    }

    /// Block until some client sends a `Shutdown` frame (the daemon
    /// binary's main-thread parking spot).
    pub fn wait_shutdown_requested(&self) {
        let mut draining = self.shared.draining.lock().expect("drain lock");
        while !*draining {
            draining = self
                .shared
                .drain_requested
                .wait(draining)
                .expect("drain lock");
        }
    }

    /// Drain and stop: serve everything admitted, reject everything
    /// new, join every thread, remove the Unix socket file.
    pub fn shutdown(mut self) {
        self.shared.request_drain();

        // The acceptor is parked in accept(); a throwaway connection
        // wakes it so it can observe the drain flag and exit.
        if let Ok(stream) = self.shared.endpoint.connect() {
            drop(stream);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }

        // Closing the queue lets workers drain admitted jobs and exit.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }

        // Readers are parked in read_frame(); shutting the sockets down
        // turns that into EOF.
        for (_, stream) in self.shared.conns.lock().expect("conns lock").drain() {
            stream.shutdown_both();
        }
        let handles: Vec<_> = self
            .readers
            .lock()
            .expect("readers lock")
            .drain(..)
            .collect();
        for reader in handles {
            let _ = reader.join();
        }

        if let Endpoint::Unix(path) = &self.shared.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn acceptor_loop(
    listener: &Listener,
    shared: &Arc<Shared>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn_id: u64 = 1;
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) if shared.is_draining() => return,
            Err(_) => continue,
        };
        if shared.is_draining() {
            // The wake-up connection (or a late client): drop it.
            return;
        }
        let conn_id = next_conn_id;
        next_conn_id += 1;
        shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .connections_active
            .fetch_add(1, Ordering::Relaxed);
        if let Ok(extra) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conns lock")
                .insert(conn_id, extra);
        }
        let shared = Arc::clone(shared);
        let reader = std::thread::Builder::new()
            .name(format!("schedd-conn-{conn_id}"))
            .spawn(move || {
                reader_loop(stream, conn_id, &shared);
                shared.conns.lock().expect("conns lock").remove(&conn_id);
                shared
                    .counters
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            })
            .expect("spawn reader");
        readers.lock().expect("readers lock").push(reader);
    }
}

fn reader_loop(stream: Stream, conn_id: u64, shared: &Arc<Shared>) {
    let mut out = Outbox::to(Arc::new(Mutex::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    })));
    let conn = Arc::new(ConnState {
        id: conn_id,
        inflight: AtomicU64::new(0),
    });
    // One `read` syscall fetches a window of pipelined frames. The replies
    // the reader lays out itself are held while the next whole frame is
    // already buffered, and written together before the reader can block
    // in `read` again, before it exits, or once they pass `HELD_CAP`.
    let mut reading = BufReader::with_capacity(READ_WINDOW, stream);
    loop {
        match read_frame(&mut reading) {
            Ok(None) => break, // clean close between frames
            Ok(Some(body)) => match SubmitView::parse(&body, &shared.config.limits) {
                Some(view) => handle_submit(Submit::Body(&body, view), &mut out, &conn, shared),
                None => {
                    if let Some(req) = decode(&body, &mut out, shared) {
                        handle_request(req, &mut out, &conn, shared);
                    }
                }
            },
            Err(e) => {
                match &e {
                    FrameError::Io(_) | FrameError::Truncated => {
                        shared
                            .counters
                            .disconnects_midstream
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    FrameError::BadMagic(_) | FrameError::Oversized(_) | FrameError::Checksum => {
                        shared
                            .counters
                            .errors_malformed
                            .fetch_add(1, Ordering::Relaxed);
                        // Byte-stream sync is lost; tell the peer why,
                        // then hang up.
                        shared.put_error(&mut out, 0, ErrorCode::Malformed, e.to_string());
                    }
                }
                break;
            }
        }
        if out.bytes.len() >= HELD_CAP || !holds_whole_frame(reading.buffer()) {
            shared.flush(&mut out);
        }
    }
    shared.flush(&mut out);
}

/// Whether `buffered` starts with a whole frame (header, body, checksum),
/// which reading costs no syscall.
fn holds_whole_frame(buffered: &[u8]) -> bool {
    let Some(&[a, b, c, d]) = buffered.get(4..8) else {
        return false;
    };
    let body = u64::from(u32::from_le_bytes([a, b, c, d]));
    buffered.len() as u64 >= 8 + body + 8
}

/// Decode a frame body in full; `None`, having answered a typed
/// `Malformed` error, when it does not decode (framing is intact, so the
/// stream stays usable).
fn decode(body: &[u8], out: &mut Outbox, shared: &Shared) -> Option<Request> {
    #[cfg(test)]
    if body.first() == Some(&crate::protocol::K_SUBMIT) {
        shared
            .counters
            .submit_decodes
            .fetch_add(1, Ordering::Relaxed);
    }
    match Request::decode_with(body, &shared.config.limits) {
        Ok(req) => Some(req),
        Err(e) => {
            shared
                .counters
                .errors_malformed
                .fetch_add(1, Ordering::Relaxed);
            shared.put_error(out, 0, ErrorCode::Malformed, e.to_string());
            None
        }
    }
}

fn handle_request(req: Request, out: &mut Outbox, conn: &Arc<ConnState>, shared: &Arc<Shared>) {
    match req {
        Request::Stats { request_id } => {
            let stats = shared.stats();
            shared.put_response(out, &Response::Stats { request_id, stats });
        }
        Request::Shutdown { request_id } => {
            // The acknowledgement goes out before the drain starts, which
            // ends in shutting this socket down.
            shared.put_response(out, &Response::ShutdownAck { request_id });
            shared.flush(out);
            shared.request_drain();
        }
        Request::Submit(req) => handle_submit(Submit::Decoded(req), out, conn, shared),
        Request::SubmitDelta(req) => {
            // Resolve the delta against its retained base, then the
            // reconstructed full request rides the ordinary submit path —
            // same fingerprint, same cache, byte-identical replies.
            shared
                .counters
                .delta_submits
                .fetch_add(1, Ordering::Relaxed);
            match shared.state.resolve_delta(&req) {
                Ok(full) => handle_submit(Submit::Decoded(full), out, conn, shared),
                Err(e) => {
                    shared.counters.errors_other.fetch_add(1, Ordering::Relaxed);
                    shared.put_error(out, req.request_id, e.code(), e.to_string());
                }
            }
        }
    }
}

/// A `Submit` as the reader holds it.
enum Submit<'a> {
    /// A canonical body, keyed from its bytes and decoded only when
    /// memory cannot answer it.
    Body(&'a [u8], SubmitView<'a>),
    /// A decoded request: any other body, or a resolved delta.
    Decoded(SubmitRequest),
}

/// The admission stage: drain check → admission (semantic validation
/// and keys) → the resident answer, when memory holds it → quota →
/// queue. Rejections are typed error frames; the connection survives. A
/// resident answer occupies no worker, so it skips the quota and the
/// queue, and its reply is laid out from the bytes the cache keeps.
fn handle_submit(
    submit: Submit<'_>,
    out: &mut Outbox,
    conn: &Arc<ConnState>,
    shared: &Arc<Shared>,
) {
    shared.counters.submits.fetch_add(1, Ordering::Relaxed);
    let (request_id, want_schedule) = match &submit {
        Submit::Body(_, view) => (view.head.request_id, view.head.want_schedule),
        Submit::Decoded(req) => (req.request_id, req.want_schedule),
    };
    if shared.is_draining() {
        shared
            .counters
            .rejected_shutdown
            .fetch_add(1, Ordering::Relaxed);
        shared.put_error(
            out,
            request_id,
            ErrorCode::ShuttingDown,
            "daemon is draining".into(),
        );
        return;
    }
    let admitted = match &submit {
        Submit::Body(_, view) => Pending::of_view(&shared.state, view),
        Submit::Decoded(req) => Pending::of_request(&shared.state, req),
    };
    let pending = match admitted {
        Ok(pending) => pending,
        Err(e) => {
            shared.counters.errors_other.fetch_add(1, Ordering::Relaxed);
            shared.put_error(out, request_id, e.code(), e.to_string());
            return;
        }
    };
    if let Some(answer) = shared.state.resident(&pending) {
        shared.put_answer(out, request_id, want_schedule, &answer);
        return;
    }
    let req = match submit {
        Submit::Decoded(req) => req,
        // A canonical body decodes (`SubmitView::parse`), and keeps the
        // admission and keys its bytes gave.
        Submit::Body(body, _) => {
            let Some(Request::Submit(req)) = decode(body, out, shared) else {
                return;
            };
            req
        }
    };
    // Quota: optimistic increment, revert on rejection — never exceeds
    // the cap even with a racing pipelined client.
    let quota = shared.config.max_inflight_per_client as u64;
    if conn.inflight.fetch_add(1, Ordering::AcqRel) >= quota {
        conn.inflight.fetch_sub(1, Ordering::AcqRel);
        shared
            .counters
            .rejected_quota
            .fetch_add(1, Ordering::Relaxed);
        shared.put_error(
            out,
            request_id,
            ErrorCode::QuotaExceeded,
            format!(
                "more than {quota} requests in flight on connection {}",
                conn.id
            ),
        );
        return;
    }
    shared.counters.inflight.fetch_add(1, Ordering::Relaxed);
    let job = Job {
        req,
        pending,
        writer: Arc::clone(&out.writer),
        conn: Arc::clone(conn),
    };
    if let Err((job, push_err)) = shared.queue.try_push(job) {
        job.conn.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.counters.inflight.fetch_sub(1, Ordering::Relaxed);
        let (code, counter, detail) = match push_err {
            PushError::Full => (
                ErrorCode::Overloaded,
                &shared.counters.rejected_overload,
                format!("compile queue full ({} jobs)", shared.config.queue_capacity),
            ),
            PushError::Closed => (
                ErrorCode::ShuttingDown,
                &shared.counters.rejected_shutdown,
                "daemon is draining".to_string(),
            ),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        shared.put_error(out, request_id, code, detail);
    }
}

/// Worker: pop, finish the pipeline, write the answer at once.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let request_id = job.req.request_id;
        let mut out = Outbox::to(job.writer);
        match shared.state.finish(&job.req, job.pending) {
            Ok(answer) => shared.put_answer(&mut out, request_id, job.req.want_schedule, &answer),
            Err(e) => {
                shared.counters.errors_other.fetch_add(1, Ordering::Relaxed);
                shared.put_error(&mut out, request_id, e.code(), e.to_string());
            }
        }
        shared.flush(&mut out);
        job.conn.inflight.fetch_sub(1, Ordering::AcqRel);
        shared.counters.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::SchemeChoice;
    use commcache::CacheConfig;
    use commrt::BackendKind;
    use simnet::LinkCostModel;
    use topo::TopologyKind;

    fn submit(matrix: &commsched::CommMatrix, want_schedule: bool) -> SubmitRequest {
        SubmitRequest {
            request_id: 0,
            want_schedule,
            topology: TopologyKind::Hypercube { dims: 6 },
            scheduler: "RS_NL".into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Analytic,
            seed: 3,
            matrix: matrix.clone(),
            cost_model: LinkCostModel::Uniform,
        }
    }

    #[test]
    fn a_resident_repeat_builds_no_matrix() {
        for cache in [
            CacheConfig::in_memory(),
            CacheConfig::in_memory().incremental_default(),
        ] {
            let endpoint = Endpoint::Unix(std::env::temp_dir().join(format!(
                "schedd-unit-nomatrix-{}-{}.sock",
                std::process::id(),
                cache.incremental.is_some()
            )));
            let config = ServiceConfig {
                cache,
                ..ServiceConfig::default()
            };
            let handle = Server::start(config, &endpoint).expect("daemon starts");
            let decodes = || (handle.shared.counters.submit_decodes).load(Ordering::Relaxed);
            let mut client = Client::connect(&endpoint).expect("connect");
            let matrix = workloads::random_dregular(64, 8, 1024, 9);
            // The first request is a miss, decoded in full; every repeat
            // after it is a hit, answered from its bytes, with the
            // schedule or without.
            let first = client.submit(submit(&matrix, true)).unwrap();
            assert_eq!(decodes(), 1);
            for want_schedule in [true, false, true] {
                let again = client.submit(submit(&matrix, want_schedule)).unwrap();
                assert!(!again.freshly_compiled);
                assert_eq!(again.estimate, first.estimate);
                assert_eq!(again.schedule.is_some(), want_schedule);
            }
            assert_eq!(decodes(), 1, "a hit decoded its body");
            // A reply is counted before it is written, so every reply the
            // client has read is counted.
            let stats = handle.stats();
            assert_eq!((stats.submits, stats.completed), (4, 4));
            assert_eq!((stats.cache_mem_hits, stats.estimate_hits), (3, 3));
            drop(client);
            handle.shutdown();
        }
    }

    /// An 8-message `Submit` on an 8-node cube: sixteen of its frames
    /// fit one read window many times over.
    fn small(request_id: u64) -> Vec<u8> {
        let mut req = submit(&workloads::random_dregular(8, 1, 512, 9), false);
        (req.request_id, req.topology) = (request_id, TopologyKind::Hypercube { dims: 3 });
        Request::Submit(req).encode()
    }

    /// A daemon and a connection to it whose reads give up after 10 s,
    /// so a reply the daemon holds fails the test instead of hanging it.
    /// The connection's first request, a miss, has been answered.
    fn warmed(tag: &str) -> (ServerHandle, std::os::unix::net::UnixStream) {
        use crate::protocol::{read_frame, write_frame};
        let path =
            std::env::temp_dir().join(format!("schedd-unit-{tag}-{}.sock", std::process::id()));
        let handle =
            Server::start(ServiceConfig::default(), &Endpoint::Unix(path.clone())).unwrap();
        let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, &small(1)).unwrap();
        read_frame(&mut stream).unwrap().expect("the miss's reply");
        (handle, stream)
    }

    /// The next reply, which must be the resident schedule answering
    /// `request_id`.
    fn expect_hit(stream: &mut impl io::Read, request_id: u64) {
        let frame = crate::protocol::read_frame(stream).expect("a reply in time");
        match Response::decode(&frame.expect("a frame")).unwrap() {
            Response::Schedule(reply) => {
                assert_eq!(
                    (reply.request_id, reply.freshly_compiled),
                    (request_id, false)
                );
            }
            other => panic!("expected the schedule for {request_id}, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_resident_repeats_are_answered_in_one_write() {
        let (handle, mut stream) = warmed("batch");
        let writes = || (handle.shared.counters.socket_writes).load(Ordering::Relaxed);
        // The miss's reply was counted before it was written.
        assert_eq!(writes(), 1);
        let mut wire = Vec::new();
        for request_id in 2..18 {
            crate::protocol::write_frame(&mut wire, &small(request_id)).unwrap();
        }
        stream.write_all(&wire).unwrap();
        for request_id in 2..18 {
            expect_hit(&mut stream, request_id);
        }
        // Sixteen frames in one window: one write, or two if the read
        // split them.
        let batch = writes() - 1;
        assert!((1..=2).contains(&batch), "{batch} writes for 16 repeats");
        let stats = handle.stats();
        assert_eq!((stats.completed, stats.cache_mem_hits), (17, 16));
        drop(stream);
        handle.shutdown();
    }

    #[test]
    fn a_hit_ahead_of_half_a_frame_is_answered_at_once() {
        let (handle, mut stream) = warmed("half");
        // The hit, then half of the next frame: the reader must not hold
        // the hit's reply while it waits for the rest.
        let mut wire = Vec::new();
        crate::protocol::write_frame(&mut wire, &small(2)).unwrap();
        let hit = wire.len();
        crate::protocol::write_frame(&mut wire, &small(3)).unwrap();
        let half = hit + (wire.len() - hit) / 2;
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(1)))
            .unwrap();
        stream.write_all(&wire[..half]).unwrap();
        expect_hit(&mut stream, 2);
        stream.write_all(&wire[half..]).unwrap();
        expect_hit(&mut stream, 3);
        drop(stream);
        handle.shutdown();
    }

    #[test]
    fn a_worker_answer_keeps_the_artifact_its_reply_carried() {
        for cache in [
            CacheConfig::in_memory(),
            CacheConfig::in_memory().incremental_default(),
        ] {
            let endpoint = Endpoint::Unix(std::env::temp_dir().join(format!(
                "schedd-unit-keep-{}-{}.sock",
                std::process::id(),
                cache.incremental.is_some()
            )));
            let config = ServiceConfig {
                cache,
                ..ServiceConfig::default()
            };
            let handle = Server::start(config, &endpoint).expect("daemon starts");
            let cache = || handle.shared.state.cache_stats();
            let mut client = Client::connect(&endpoint).expect("connect");
            let matrix = workloads::random_dregular(64, 8, 1024, 9);
            // A miss, answered by a worker: its reply's artifact is kept
            // beside the schedule, metered by the byte budget, by the time
            // the reply arrives.
            let first = client.submit(submit(&matrix, true)).unwrap();
            assert!(first.freshly_compiled);
            let schedule = first.schedule.as_ref().unwrap();
            let artifact = commcache::encode_artifact(first.fingerprint, schedule);
            let kept = commcache::schedule_weight_bytes(schedule) + artifact.len();
            assert_eq!(cache().bytes_in_use, kept, "the worker's artifact is kept");
            // The resident repeat is answered with those bytes: nothing
            // is kept a second time.
            let again = client.submit(submit(&matrix, true)).unwrap();
            assert!(!again.freshly_compiled);
            assert_eq!(again.schedule, first.schedule);
            let stats = cache();
            assert_eq!(stats.bytes_in_use, kept, "the repeat kept nothing more");
            assert_eq!((stats.mem_hits, stats.insertions), (1, 1));
            drop(client);
            handle.shutdown();
        }
    }

    #[test]
    fn a_daemon_builds_each_fabric_once_and_keeps_at_most_sixteen() {
        use crate::protocol::{read_frame, write_frame};
        let endpoint = Endpoint::Unix(
            std::env::temp_dir().join(format!("schedd-unit-fabrics-{}.sock", std::process::id())),
        );
        let config = ServiceConfig::default();
        let handle = Server::start(config.clone(), &endpoint).expect("daemon starts");
        let fabrics = || handle.shared.state.fabric_counts();
        let mut stream = endpoint.connect().expect("connect");
        // Every request below is a miss, so its reply must be the bytes a
        // fresh pipeline, which has built nothing yet, answers it with.
        let mut miss = |request_id: u64, topology: &str, seed: u64| {
            let topology = TopologyKind::parse(topology).unwrap();
            let n = topology.num_nodes();
            let mut req = submit(&workloads::random_dregular(n, 1, 512, seed), true);
            (req.request_id, req.topology, req.seed) = (request_id, topology, seed);
            if request_id.is_multiple_of(2) {
                req.backend = BackendKind::Des;
            }
            write_frame(&mut stream, &Request::Submit(req.clone()).encode()).unwrap();
            let reply = read_frame(&mut stream).unwrap().expect("a reply");
            let fresh = ServiceState::new(&config).process(&req).unwrap();
            assert!(fresh.freshly_compiled, "{}", req.topology);
            assert_eq!(
                reply,
                Response::Schedule(fresh).encode(),
                "{}",
                req.topology
            );
        };
        // Repeated misses on one walked fabric route it once.
        for seed in 1..=4 {
            miss(seed, "torus:8x8", seed);
        }
        assert_eq!(fabrics(), (1, 1));
        // Sixteen more kinds: the seventeenth clears the table.
        for (i, kind) in [
            "cube:d=1",
            "cube:d=3",
            "cube:d=6",
            "mesh:2x3",
            "mesh:1x7",
            "mesh:4x4",
            "mesh:8x8",
            "mesh:16x16",
            "torus:3x3",
            "torus:4x4",
            "torus:2x2x2",
            "torus:5x3x2",
            "torus:4x4x4x4",
            "fattree:k=2",
            "fattree:k=4",
            "fattree:k=8",
        ]
        .into_iter()
        .enumerate()
        {
            miss(10 + i as u64, kind, 7);
            assert!(fabrics().1 <= 16, "{kind}: {:?}", fabrics());
        }
        assert_eq!(fabrics(), (17, 1));
        // The cleared kind is built again, once.
        miss(30, "torus:8x8", 5);
        miss(31, "torus:8x8", 6);
        assert_eq!(fabrics(), (18, 2));
        drop(stream);
        handle.shutdown();
    }
}
