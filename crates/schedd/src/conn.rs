//! The connection core: one [`Conn`] per connection decides everything
//! about it, does no I/O and never waits on a peer. The shell
//! ([`server`](crate::server)) lends it the [`Window`] a `read` filled
//! ([`Conn::received`]), hands it a worker's answer ([`Conn::answered`])
//! and what a `write` took ([`Conn::wrote`]), and writes
//! [`Conn::unwritten`].
//!
//! **The window.** A connection's reader reads straight into its
//! [`Window`], which it keeps on its own side: it holds no lock while it
//! waits in `read`, and workers write their replies under the lock.
//! `received` splits every whole frame off the window in place
//! ([`split_frame`]); a frame's prefix stays for the next read. The
//! [`Client`](crate::Client) reads its replies through a `Window` too.
//! A `Submit` runs the admission stage (`Conn::submit`): a resident one
//! is answered right there, taking no worker, quota or queue slot, and a
//! miss is queued as a [`Job`] ([`Action::Queued`]). A rejection is a
//! typed error frame and the connection stays healthy; a broken frame is
//! answered `Malformed` and closes the connection ([`Action::Close`]):
//! sync is lost.
//!
//! **Held replies.** The frames `received` lays out itself (resident
//! answers, `Stats`, `ShutdownAck`, errors) are held while a whole frame
//! is left in the window, then written together ([`Action::Write`]): a
//! pipelined burst of resident repeats costs one `read` and one `write`
//! per window, and its replies leave in request order. They go sooner
//! past `HELD_CAP` (64 KiB), and right after a `ShutdownAck`: the drain,
//! which ends in shutting the socket down, is marked once the
//! acknowledgement is written. A worker's reply is written at once.
//!
//! **Counting at layout.** A frame is counted when it is laid out (a
//! `Schedule` as `completed`, a job's answer out of the in-flight counts),
//! before any byte of it can reach the client: a client never reads a
//! reply the counters miss, and a `Stats` frame held behind answers
//! counts them. A failed write moves the frames it leaves short to
//! `write_failures`.
//!
//! **The self-stall.** A pipelining client must keep reading its
//! replies. A reader whose held replies do not fit the socket's buffers
//! blocks in the write and reads no more of that connection's requests
//! until the client reads. A client that writes more request bytes than
//! the socket buffers and the window hold before it reads any reply can
//! so stall its own connection; how many requests that takes moves with
//! `READ_WINDOW` and `HELD_CAP`. The [`Client`](crate::Client) holds its
//! requests until it reads, or until a window of them is held, so it
//! writes at most one window plus one frame before it reads again.

use std::sync::{Condvar, Mutex};

use crate::protocol::{
    begin_frame, frame_len, seal_frame, split_frame, DaemonStats, ErrorCode, ErrorReply,
    FrameError, Request, Response, SubmitRequest, SubmitView, K_SCHEDULE,
};
use crate::queue::{BoundedQueue, PushError};
use crate::service::{Answer, Pending, ServiceConfig, ServiceError, ServiceState};

/// The size of a [`Window`], the most one `read` syscall fetches off a
/// connection unless a longer frame has grown it: about five pipelined
/// `cube:d=6` requests on the daemon's side, and nine replies on the
/// [`Client`](crate::Client)'s. The client also writes its held requests
/// once this many bytes of them are held.
pub(crate) const READ_WINDOW: usize = 32 << 10;

/// Held bytes past which a reader's replies are written without waiting
/// for the end of the frames in its window.
const HELD_CAP: usize = 64 << 10;

/// Bytes read off a connection and not yet split off as whole frames. A
/// `read` fills its [`room`](Self::room) in place, and whole frames are
/// split off it in place ([`split`](Self::split)): nothing is copied but a
/// frame's prefix, moved to the front before the next read.
pub(crate) struct Window {
    buf: Vec<u8>,
    /// `buf[start..end]` is read and not yet split off; the frame split
    /// off last is `buf[frame]`.
    start: usize,
    end: usize,
    frame: std::ops::Range<usize>,
}

impl Window {
    pub(crate) fn new() -> Window {
        Window {
            buf: vec![0; READ_WINDOW],
            start: 0,
            end: 0,
            frame: 0..0,
        }
    }

    /// Whether no byte is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Where the next `read` goes; report its count to
    /// [`filled`](Self::filled). A frame longer than the window grows it,
    /// at most twofold per read, so its size follows the bytes received
    /// and not a header's claim; an emptied window shrinks back.
    pub(crate) fn room(&mut self) -> &mut [u8] {
        if self.is_empty() {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > READ_WINDOW {
                self.buf.truncate(READ_WINDOW);
                self.buf.shrink_to_fit();
            }
        } else if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.end == self.buf.len() {
            // Full, and no whole frame in it: the header claims more.
            let (len, claim) = (self.buf.len(), frame_len(&self.buf));
            let claim = claim.ok().flatten().unwrap_or(len);
            self.buf.resize(claim.clamp(len, 2 * len), 0);
        }
        &mut self.buf[self.end..]
    }

    /// A `read` put `n` bytes into [`room`](Self::room).
    pub(crate) fn filled(&mut self, n: usize) {
        self.end += n;
    }

    /// Split off the frame the held bytes start with, once all of it is
    /// held (`Ok(true)`), checking its checksum once; its body is then
    /// [`body`](Self::body).
    ///
    /// # Errors
    ///
    /// What [`split_frame`] raises. Sync is lost: every held byte is
    /// dropped.
    pub(crate) fn split(&mut self) -> Result<bool, FrameError> {
        match split_frame(&self.buf[self.start..self.end]) {
            Ok(Some((body, len))) => {
                let at = self.start + 8;
                self.frame = at..at + body.len();
                self.start += len;
                Ok(true)
            }
            Ok(None) => Ok(false),
            Err(e) => {
                self.start = self.end;
                Err(e)
            }
        }
    }

    /// The body of the frame [`split`](Self::split) split off last.
    pub(crate) fn body(&self) -> &[u8] {
        &self.buf[self.frame.clone()]
    }

    /// Whether the held bytes start with a whole frame, read from its
    /// header alone: [`split`](Self::split) checks its checksum.
    pub(crate) fn holds_frame(&self) -> bool {
        let held = &self.buf[self.start..self.end];
        matches!(frame_len(held), Ok(Some(len)) if len <= held.len())
    }
}

/// One admitted request memory could not answer, on its way to the
/// worker pool with its admission, its keys and its connection.
pub(crate) struct Job<L> {
    pub(crate) req: SubmitRequest,
    pub(crate) pending: Pending,
    /// How the worker finds the request's [`Conn`] again.
    pub(crate) conn: L,
}

/// What every connection shares: the service, the queue to the workers,
/// the daemon's counts and the drain mark. A [`Job`] names its
/// connection by `L`.
pub(crate) struct Core<L> {
    pub(crate) state: ServiceState,
    pub(crate) queue: BoundedQueue<Job<L>>,
    pub(crate) config: ServiceConfig,
    /// The counts the daemon keeps itself, and (`draining`) the drain
    /// mark, under one lock; what the service and the queue count is read
    /// from them by [`stats`](Self::stats) and stays zero here.
    counts: Mutex<DaemonStats>,
    drain_requested: Condvar,
    /// `Submit` bodies decoded in full (each builds a matrix): a resident
    /// repeat answered from its bytes adds nothing here.
    #[cfg(test)]
    pub(crate) submit_decodes: std::sync::atomic::AtomicU64,
}

impl<L> Core<L> {
    pub(crate) fn new(config: ServiceConfig) -> Core<L> {
        Core {
            state: ServiceState::new(&config),
            queue: BoundedQueue::new(config.queue_capacity),
            config,
            counts: Mutex::default(),
            drain_requested: Condvar::new(),
            #[cfg(test)]
            submit_decodes: Default::default(),
        }
    }

    /// Read or change the daemon's counts under their lock.
    pub(crate) fn count<T>(&self, change: impl FnOnce(&mut DaemonStats) -> T) -> T {
        change(&mut self.counts.lock().expect("count lock"))
    }

    pub(crate) fn request_drain(&self) {
        self.count(|n| n.draining = 1);
        self.drain_requested.notify_all();
    }

    pub(crate) fn wait_drain(&self) {
        let mut counts = self.counts.lock().expect("count lock");
        while counts.draining == 0 {
            counts = self.drain_requested.wait(counts).expect("count lock");
        }
    }

    pub(crate) fn stats(&self) -> DaemonStats {
        let cache = self.state.cache_stats();
        let (estimate_hits, estimate_misses) = self.state.estimate_stats();
        let incr = self.state.incremental_stats().unwrap_or_default();
        DaemonStats {
            compiles: cache.misses,
            coalesced: self.state.flight_stats().coalesced,
            cache_requests: cache.requests,
            cache_mem_hits: cache.mem_hits,
            cache_store_hits: cache.store_hits,
            cache_misses: cache.misses,
            estimate_hits,
            estimate_misses,
            queue_depth: self.queue.len() as u64,
            incr_base_hits: incr.base_hits,
            incr_patches: incr.patches,
            incr_fallbacks: incr.fallbacks,
            incr_validation_rejections: incr.validation_rejections,
            ..self.count(|n| *n)
        }
    }
}

/// What [`Conn::received`] asks of the shell.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Write [`Conn::unwritten`], then call `received` again before the
    /// next read: whole frames may be left in the window.
    Write,
    /// Write [`Conn::unwritten`], whose last frame is the `Malformed`
    /// error saying why, then hang up.
    Close,
    /// A job was queued: let go of the connection, wake a worker, go on.
    Queued,
}

/// A `Submit` as the reader holds it.
enum Submit<'a> {
    /// A canonical body, keyed from its bytes and decoded only when
    /// memory cannot answer it.
    Body(&'a [u8], SubmitView<'a>),
    /// A decoded request: any other body, or a resolved delta.
    Decoded(SubmitRequest),
}

/// One connection: the frames laid out for it and not yet written, and
/// its jobs in flight.
#[derive(Default)]
pub(crate) struct Conn {
    id: u64,
    /// Frames laid out and not yet all written; the first `sent` bytes
    /// are written.
    out: Vec<u8>,
    sent: usize,
    /// Jobs queued and not yet answered.
    inflight: u64,
    /// `out` holds a `ShutdownAck`: the drain is marked once it is written.
    acked: bool,
}

impl Conn {
    pub(crate) fn new(id: u64) -> Conn {
        Conn {
            id,
            ..Conn::default()
        }
    }

    /// Answer or queue every whole frame `window` holds, a miss as a
    /// [`Job`] naming `me`; a frame's prefix stays in it. `None` asks for
    /// the next read, with nothing left to write.
    pub(crate) fn received<L: Clone>(
        &mut self,
        core: &Core<L>,
        me: &L,
        window: &mut Window,
    ) -> Option<Action> {
        loop {
            if self.acked || self.unwritten().len() >= HELD_CAP {
                return Some(Action::Write);
            }
            match window.split() {
                Ok(true) => {
                    let (body, inflight) = (window.body(), self.inflight);
                    match SubmitView::parse(body, &core.config.limits) {
                        Some(view) => self.submit(core, me, Submit::Body(body, view)),
                        None => self.request(core, me, body),
                    }
                    if self.inflight > inflight {
                        return Some(Action::Queued); // only a push raises it here
                    }
                }
                Ok(false) => return (!self.unwritten().is_empty()).then_some(Action::Write),
                Err(e) => {
                    self.put_error(core, 0, ErrorCode::Malformed, e.to_string());
                    return Some(Action::Close);
                }
            }
        }
    }

    /// The peer hung up, or (`failed`) the read failed: a frame cut short
    /// in `window` counts a midstream disconnect.
    pub(crate) fn ended<L>(core: &Core<L>, window: &Window, failed: bool) {
        if failed || !window.is_empty() {
            core.count(|n| n.disconnects_midstream += 1);
        }
    }

    /// Lay out a worker's answer to `req`, one of this connection's jobs,
    /// and let go of the job; the reply is [`unwritten`](Self::unwritten).
    pub(crate) fn answered<L>(
        &mut self,
        core: &Core<L>,
        req: &SubmitRequest,
        answer: Result<Answer, ServiceError>,
    ) {
        match answer {
            Ok(answer) => self.put_answer(core, req.request_id, req.want_schedule, &answer),
            Err(e) => self.put_error(core, req.request_id, e.code(), e.to_string()),
        }
        self.inflight -= 1;
        core.count(|n| n.inflight -= 1);
    }

    /// The bytes laid out and not yet written, in the order they must go.
    pub(crate) fn unwritten(&self) -> &[u8] {
        &self.out[self.sent..]
    }

    /// A write took the first `n` bytes of [`unwritten`](Self::unwritten);
    /// `n == 0` is a failed write, after which every frame not yet written
    /// whole moves from `completed` to `write_failures` and is dropped: a
    /// dead client is not the daemon's problem beyond that count.
    pub(crate) fn wrote<L>(&mut self, core: &Core<L>, n: usize) {
        if n == 0 {
            let (mut at, mut frames, mut schedules) = (0, 0, 0);
            while at < self.out.len() {
                let len = frame_len(&self.out[at..])
                    .ok()
                    .flatten()
                    .expect("a sealed frame");
                if at + len > self.sent {
                    frames += 1;
                    schedules += u64::from(self.out[at + 8] == K_SCHEDULE);
                }
                at += len;
            }
            core.count(|c| {
                c.completed -= schedules;
                c.write_failures += frames;
            });
            self.sent = self.out.len();
        }
        self.sent += n;
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
            if std::mem::take(&mut self.acked) {
                core.request_drain();
            }
        }
    }

    /// Lay one frame's body out with `body` after the frames `out` holds,
    /// and seal it: a `schedule` is counted `completed` now. A frame that
    /// cannot be sealed is dropped and counted in `write_failures`.
    fn put<L>(&mut self, core: &Core<L>, schedule: bool, body: impl FnOnce(&mut Vec<u8>)) {
        let start = begin_frame(&mut self.out);
        body(&mut self.out);
        if seal_frame(&mut self.out, start).is_err() {
            self.out.truncate(start);
            return core.count(|n| n.write_failures += 1);
        }
        if schedule {
            core.count(|n| n.completed += 1);
        }
    }

    /// The `Schedule` reply answering `request_id` with `answer`, laid out
    /// by [`ServiceState::put_reply`].
    fn put_answer<L>(&mut self, core: &Core<L>, request_id: u64, schedule: bool, answer: &Answer) {
        self.put(core, true, |frame| {
            core.state.put_reply(frame, request_id, schedule, answer);
        });
    }

    fn put_response<L>(&mut self, core: &Core<L>, resp: &Response) {
        self.put(core, false, |frame| resp.encode_to(frame));
    }

    /// A typed error frame, counted by its code.
    fn put_error<L>(&mut self, core: &Core<L>, request_id: u64, code: ErrorCode, detail: String) {
        core.count(|n| match code {
            ErrorCode::Malformed => n.errors_malformed += 1,
            ErrorCode::QuotaExceeded => n.rejected_quota += 1,
            ErrorCode::Overloaded => n.rejected_overload += 1,
            ErrorCode::ShuttingDown => n.rejected_shutdown += 1,
            _ => n.errors_other += 1,
        });
        let resp = Response::Error(ErrorReply {
            request_id,
            code,
            detail,
        });
        self.put_response(core, &resp);
    }

    /// Decode a frame body in full; `None`, having answered a typed
    /// `Malformed` error, when it does not decode (framing is intact, so
    /// the stream stays usable).
    fn decode<L>(&mut self, core: &Core<L>, body: &[u8]) -> Option<Request> {
        #[cfg(test)]
        if body.first() == Some(&crate::protocol::K_SUBMIT) {
            (core.submit_decodes).fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let decoded = Request::decode_with(body, &core.config.limits);
        if let Err(e) = &decoded {
            self.put_error(core, 0, ErrorCode::Malformed, e.to_string());
        }
        decoded.ok()
    }

    /// Answer or queue a body that is no canonical `Submit`.
    fn request<L: Clone>(&mut self, core: &Core<L>, me: &L, body: &[u8]) {
        match self.decode(core, body) {
            None => {}
            Some(Request::Stats { request_id }) => {
                let stats = core.stats();
                self.put_response(core, &Response::Stats { request_id, stats });
            }
            Some(Request::Shutdown { request_id }) => {
                self.put_response(core, &Response::ShutdownAck { request_id });
                self.acked = true;
            }
            Some(Request::Submit(req)) => self.submit(core, me, Submit::Decoded(req)),
            Some(Request::SubmitDelta(req)) => {
                // Resolve the delta against its retained base, then the
                // reconstructed full request rides the ordinary submit path —
                // same fingerprint, same cache, byte-identical replies.
                core.count(|n| n.delta_submits += 1);
                match core.state.resolve_delta(&req) {
                    Ok(full) => self.submit(core, me, Submit::Decoded(full)),
                    Err(e) => self.put_error(core, req.request_id, e.code(), e.to_string()),
                }
            }
        }
    }

    /// The admission stage: drain check → admission (semantic validation
    /// and keys) → the resident answer, when memory holds it → quota →
    /// queue. Rejections are typed error frames; the connection survives.
    /// A resident answer occupies no worker, so it skips the quota and the
    /// queue, and its reply is laid out from the bytes the cache keeps.
    fn submit<L: Clone>(&mut self, core: &Core<L>, me: &L, submit: Submit<'_>) {
        let (request_id, want_schedule) = match &submit {
            Submit::Body(_, view) => (view.head.request_id, view.head.want_schedule),
            Submit::Decoded(req) => (req.request_id, req.want_schedule),
        };
        if core.count(|n| {
            n.submits += 1;
            n.draining == 1
        }) {
            let detail = "daemon is draining".into();
            return self.put_error(core, request_id, ErrorCode::ShuttingDown, detail);
        }
        let admitted = match &submit {
            Submit::Body(_, view) => Pending::of_view(&core.state, view),
            Submit::Decoded(req) => Pending::of_request(&core.state, req),
        };
        let pending = match admitted {
            Ok(pending) => pending,
            Err(e) => return self.put_error(core, request_id, e.code(), e.to_string()),
        };
        if let Some(answer) = core.state.resident(&pending) {
            return self.put_answer(core, request_id, want_schedule, &answer);
        }
        let req = match submit {
            Submit::Decoded(req) => req,
            // A canonical body decodes (`SubmitView::parse`), and keeps the
            // admission and keys its bytes gave.
            Submit::Body(body, _) => match self.decode(core, body) {
                Some(Request::Submit(req)) => req,
                _ => return,
            },
        };
        let quota = core.config.max_inflight_per_client as u64;
        if self.inflight >= quota {
            let id = self.id;
            let detail = format!("more than {quota} requests in flight on connection {id}");
            return self.put_error(core, request_id, ErrorCode::QuotaExceeded, detail);
        }
        self.inflight += 1;
        core.count(|n| n.inflight += 1);
        let job = Job {
            req,
            pending,
            conn: me.clone(),
        };
        let Err((_, push_err)) = core.queue.try_push_unwoken(job) else {
            return;
        };
        self.inflight -= 1;
        core.count(|n| n.inflight -= 1);
        let (code, detail) = match push_err {
            PushError::Full => (
                ErrorCode::Overloaded,
                format!("compile queue full ({} jobs)", core.config.queue_capacity),
            ),
            PushError::Closed => (ErrorCode::ShuttingDown, "daemon is draining".into()),
        };
        self.put_error(core, request_id, code, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{write_frame, SchemeChoice, SubmitDeltaRequest};
    use commrt::BackendKind;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use simnet::LinkCostModel;
    use std::collections::HashMap;
    use topo::TopologyKind;

    /// An 8-message `Submit` on an 8-node cube whose matrix is drawn from
    /// `matrix_seed`: sixteen of its frames fit one read window many times
    /// over.
    fn submit(request_id: u64, matrix_seed: u64, want_schedule: bool) -> SubmitRequest {
        SubmitRequest {
            request_id,
            want_schedule,
            topology: TopologyKind::Hypercube { dims: 3 },
            scheduler: "RS_NL".into(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Analytic,
            seed: 3,
            matrix: workloads::random_dregular(8, 1, 512, matrix_seed),
            cost_model: LinkCostModel::Uniform,
        }
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, body).unwrap();
        wire
    }

    fn small(request_id: u64) -> Vec<u8> {
        framed(&Request::Submit(submit(request_id, 9, false)).encode())
    }

    /// `window` once a read has put `bytes` into it.
    fn read<'w>(window: &'w mut Window, bytes: &[u8]) -> &'w mut Window {
        let room = window.room();
        room[..bytes.len()].copy_from_slice(bytes);
        window.filled(bytes.len());
        window
    }

    /// Hand everything `conn` has laid out to its client in one write.
    fn write_all<L>(core: &Core<L>, conn: &mut Conn) -> Vec<u8> {
        let bytes = conn.unwritten().to_vec();
        conn.wrote(core, bytes.len());
        bytes
    }

    /// The replies in `wire`, which holds whole frames only.
    fn replies(mut wire: &[u8]) -> Vec<Response> {
        let mut out = Vec::new();
        while let Some((body, len)) = split_frame(wire).unwrap() {
            out.push(Response::decode(body).unwrap());
            wire = &wire[len..];
        }
        assert!(wire.is_empty(), "a torn reply");
        out
    }

    /// A core, its one connection and the connection's window, whose
    /// first request, a miss, a worker has answered.
    fn warmed() -> (Core<()>, Conn, Window) {
        let core = Core::new(ServiceConfig::default());
        let (mut conn, mut window) = (Conn::new(1), Window::new());
        assert_eq!(
            conn.received(&core, &(), read(&mut window, &small(1))),
            Some(Action::Queued),
            "a miss is queued"
        );
        assert_eq!(conn.received(&core, &(), &mut window), None);
        let job = core.queue.pop().expect("the miss is queued");
        let answer = core.state.finish(&job.req, job.pending);
        conn.answered(&core, &job.req, answer);
        assert_eq!(replies(&write_all(&core, &mut conn)).len(), 1);
        (core, conn, window)
    }

    /// `wire` holds the resident schedules answering `ids`, in order.
    fn expect_hits(wire: &[u8], ids: impl IntoIterator<Item = u64>) {
        let answered: Vec<u64> = (replies(wire).into_iter())
            .map(|reply| match reply {
                Response::Schedule(reply) if !reply.freshly_compiled => reply.request_id,
                other => panic!("expected a resident schedule, got {other:?}"),
            })
            .collect();
        assert_eq!(answered, ids.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn pipelined_resident_repeats_are_answered_in_one_write() {
        let (core, mut conn, mut window) = warmed();
        // Sixteen repeats received as one chunk: one write.
        let wire: Vec<u8> = (2..18).flat_map(small).collect();
        assert_eq!(
            conn.received(&core, &(), read(&mut window, &wire)),
            Some(Action::Write)
        );
        let batch = write_all(&core, &mut conn);
        assert_eq!(
            conn.received(&core, &(), &mut window),
            None,
            "a second write"
        );
        expect_hits(&batch, 2..18);
        let stats = core.stats();
        assert_eq!((stats.completed, stats.cache_mem_hits), (17, 16));
    }

    #[test]
    fn a_hit_ahead_of_half_a_frame_is_answered_at_once() {
        let (core, mut conn, mut window) = warmed();
        // The hit, then half of the next frame: the hit's reply is not
        // held while the rest of that frame is awaited.
        let (hit, next) = (small(2), small(3));
        let half = next.len() / 2;
        let chunk = [&hit[..], &next[..half]].concat();
        assert_eq!(
            conn.received(&core, &(), read(&mut window, &chunk)),
            Some(Action::Write)
        );
        expect_hits(&write_all(&core, &mut conn), [2]);
        assert_eq!(conn.received(&core, &(), &mut window), None);
        assert_eq!(
            conn.received(&core, &(), read(&mut window, &next[half..])),
            Some(Action::Write)
        );
        expect_hits(&write_all(&core, &mut conn), [3]);
    }

    #[test]
    fn a_frame_longer_than_the_window_grows_it_and_an_emptied_window_shrinks() {
        let wire = framed(&vec![0x55; 5 * READ_WINDOW]);
        let mut window = Window::new();
        let mut rooms = Vec::new();
        let mut at = 0;
        while at < wire.len() {
            assert!(!window.split().unwrap(), "split before the frame is in");
            let room = window.room();
            let n = room.len().min(wire.len() - at);
            room[..n].copy_from_slice(&wire[at..at + n]);
            rooms.push(n);
            window.filled(n);
            at += n;
        }
        // The window doubles while the frame's bytes come in, never past
        // the frame.
        let left = wire.len() - 4 * READ_WINDOW;
        assert_eq!(rooms, [READ_WINDOW, READ_WINDOW, 2 * READ_WINDOW, left]);
        assert!(window.holds_frame());
        assert!(window.split().unwrap());
        assert_eq!(window.body(), &wire[8..wire.len() - 8]);
        assert!(window.is_empty() && !window.holds_frame());
        assert_eq!(
            window.room().len(),
            READ_WINDOW,
            "the emptied window shrinks"
        );
    }

    #[test]
    fn a_failed_write_counts_only_the_frames_it_leaves_short() {
        let core: Core<()> = Core::new(ServiceConfig::default());
        let (mut conn, mut window) = (Conn::new(1), Window::new());
        let stats = |request_id| framed(&Request::Stats { request_id }.encode());
        let wire = [stats(1), stats(2)].concat();
        assert_eq!(
            conn.received(&core, &(), read(&mut window, &wire)),
            Some(Action::Write)
        );
        // The first reply is written whole, then the write of the second
        // fails: only the second counts.
        let (_, first) = split_frame(conn.unwritten()).unwrap().expect("two replies");
        conn.wrote(&core, first);
        conn.wrote(&core, 0);
        assert!(conn.unwritten().is_empty());
        assert_eq!(core.stats().write_failures, 1);
        // A resident schedule written whole stays `completed`; the one cut
        // short leaves it.
        let (core, mut conn, mut window) = warmed();
        let wire = [small(2), small(3)].concat();
        assert_eq!(
            conn.received(&core, &(), read(&mut window, &wire)),
            Some(Action::Write)
        );
        let (_, first) = split_frame(conn.unwritten()).unwrap().expect("two replies");
        conn.wrote(&core, first + 1);
        conn.wrote(&core, 0);
        let stats = core.stats();
        assert_eq!((stats.completed, stats.write_failures), (2, 1));
    }

    /// The frame of one scripted request, drawn from `rng`: mostly submits
    /// of four matrices (so misses and resident repeats), and `Stats`, a
    /// body that does not decode (answered with id 0), an unknown
    /// scheduler, a delta on a base never seen and, one frame in 80,
    /// `Shutdown`.
    fn scripted(request_id: u64, rng: &mut StdRng) -> (u64, Vec<u8>) {
        let mut req = submit(request_id, rng.random_range(0..4u64), rng.random_bool(0.5));
        let request = match rng.random_range(0..40) {
            0..=3 => Request::Stats { request_id },
            4..=5 => return (0, framed(&[0x55, 1, 2, 3])),
            6 => {
                req.scheduler = "NO_SUCH".into();
                Request::Submit(req)
            }
            7 => {
                let topo = req.topology.build();
                Request::SubmitDelta(SubmitDeltaRequest {
                    request_id,
                    want_schedule: true,
                    topology: req.topology.clone(),
                    scheduler: req.scheduler.clone(),
                    scheme: req.scheme,
                    backend: req.backend,
                    seed: req.seed,
                    base: commcache::InstanceKey::compute(&req.matrix, topo.as_ref()),
                    delta: commsched::MatrixDelta::diff(&req.matrix, &req.matrix).unwrap(),
                    cost_model: LinkCostModel::Uniform,
                })
            }
            8 if rng.random_bool(0.5) => Request::Shutdown { request_id },
            _ => Request::Submit(req),
        };
        (request_id, framed(&request.encode()))
    }

    /// One scripted client of the interleaving driver: its connection,
    /// the frames it sends, and what it has been sent back.
    struct Client {
        conn: Conn,
        window: Window,
        /// The request id of each frame, in order (0 for a body that does
        /// not decode).
        ids: Vec<u64>,
        wire: Vec<u8>,
        sent: usize,
        /// What `received` last asked for. As in the shell, a connection
        /// that asks for anything gets no new bytes: it goes on after a
        /// queued job at any step, and after a write once everything is
        /// written.
        asked: Option<Action>,
        /// Bytes written to the client and not yet a whole frame.
        inbox: Vec<u8>,
        /// Replies per request id, and the `Schedule`s among them.
        answers: HashMap<u64, usize>,
        schedules: u64,
        /// Requests a worker answered.
        jobs: Vec<u64>,
        /// Where in `ids` the last reply the reader laid out itself sits.
        last: Option<usize>,
    }

    impl Client {
        fn new(id: u64, rng: &mut StdRng) -> Client {
            let (ids, frames): (Vec<u64>, Vec<Vec<u8>>) = (1..=rng.random_range(4..=12u64))
                .map(|request_id| scripted(request_id, rng))
                .unzip();
            Client {
                conn: Conn::new(id),
                window: Window::new(),
                ids,
                wire: frames.concat(),
                sent: 0,
                asked: None,
                inbox: Vec::new(),
                answers: HashMap::new(),
                schedules: 0,
                jobs: Vec::new(),
                last: None,
            }
        }

        /// How many frames carry request id `id`.
        fn sent_with(&self, id: u64) -> usize {
            self.ids.iter().filter(|&&sent| sent == id).count()
        }

        /// Read every whole reply now in the inbox and check it: one per
        /// request, the reader's in request order, and at most one fresh
        /// compile per fingerprint (`fresh`).
        fn read_replies(&mut self, fresh: &mut HashMap<u128, usize>) {
            let mut taken = 0;
            while let Some((body, len)) = split_frame(&self.inbox[taken..]).unwrap() {
                taken += len;
                let reply = Response::decode(body).unwrap();
                if let Response::Schedule(schedule) = &reply {
                    self.schedules += 1;
                    if schedule.freshly_compiled {
                        let compiles = fresh.entry(schedule.fingerprint.0).or_default();
                        *compiles += 1;
                        assert_eq!(*compiles, 1, "one key compiled twice");
                    }
                }
                let id = reply.request_id();
                let answers = self.answers.entry(id).or_default();
                *answers += 1;
                assert!(
                    *answers <= self.sent_with(id),
                    "request {id} answered twice"
                );
                if !self.jobs.contains(&id) {
                    let from = self.last.map_or(0, |last| last + 1);
                    let Some(at) = self.ids[from..].iter().position(|&sent| sent == id) else {
                        panic!("the reader's reply to {id} left out of request order");
                    };
                    self.last = Some(from + at);
                }
            }
            self.inbox.drain(..taken);
        }

        /// `Schedule` frames laid out for this client and not yet whole in
        /// its inbox.
        fn schedules_held(&self) -> u64 {
            let held = replies(&[&self.inbox[..], self.conn.unwritten()].concat());
            (held.iter())
                .filter(|reply| matches!(reply, Response::Schedule(_)))
                .count() as u64
        }
    }

    /// What the driver can do next.
    #[derive(Clone, Copy)]
    enum Step {
        /// A client sends the next chunk of its frames, cut anywhere.
        Send(usize),
        /// A write hands part of what a connection laid out to its client.
        Write(usize),
        /// A connection goes on with the frames left in its window.
        Resume(usize),
        /// A worker pops the oldest job and answers it.
        Work,
        /// The daemon marks the drain, as `ServerHandle::shutdown` does.
        Drain,
    }

    /// Three connections, a worker and the drain mark, stepped in an order
    /// drawn from `seed`; every invariant of the connection core is
    /// checked after every step and once nothing is left to do.
    fn interleave(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let core: Core<usize> = Core::new(ServiceConfig {
            max_inflight_per_client: 2,
            queue_capacity: 3,
            ..ServiceConfig::default()
        });
        let mut clients: Vec<Client> = (0..3).map(|i| Client::new(i, &mut rng)).collect();
        let mut fresh = HashMap::new();
        // Requests past the drain check and jobs ever queued, as the drain
        // mark found them.
        let mut at_drain: Option<(u64, u64)> = None;
        let mut popped = 0;
        loop {
            let mut steps = Vec::new();
            for (i, client) in clients.iter().enumerate() {
                let written = client.conn.unwritten().is_empty();
                match client.asked {
                    None if client.sent < client.wire.len() => steps.push(Step::Send(i)),
                    Some(Action::Queued) => steps.push(Step::Resume(i)),
                    Some(_) if written => steps.push(Step::Resume(i)),
                    _ => {}
                }
                if !written {
                    steps.push(Step::Write(i));
                }
            }
            if !core.queue.is_empty() {
                steps.push(Step::Work);
            }
            if steps.is_empty() {
                break;
            }
            if at_drain.is_none() && rng.random_bool(0.01) {
                steps = vec![Step::Drain];
            }
            match steps[rng.random_range(0..steps.len())] {
                Step::Send(i) => {
                    let client = &mut clients[i];
                    let left = client.wire.len() - client.sent;
                    let room = client.window.room();
                    let n = rng.random_range(1..=left.min(600)).min(room.len());
                    room[..n].copy_from_slice(&client.wire[client.sent..client.sent + n]);
                    client.window.filled(n);
                    client.asked = client.conn.received(&core, &i, &mut client.window);
                    client.sent += n;
                }
                Step::Write(i) => {
                    let client = &mut clients[i];
                    let n = rng.random_range(1..=client.conn.unwritten().len());
                    client
                        .inbox
                        .extend_from_slice(&client.conn.unwritten()[..n]);
                    client.conn.wrote(&core, n);
                    client.read_replies(&mut fresh);
                }
                Step::Resume(i) => {
                    let client = &mut clients[i];
                    client.asked = client.conn.received(&core, &i, &mut client.window);
                }
                Step::Work => {
                    let job = core.queue.pop().expect("a queued job");
                    popped += 1;
                    let answer = core.state.finish(&job.req, job.pending);
                    let client = &mut clients[job.conn];
                    client.jobs.push(job.req.request_id);
                    client.conn.answered(&core, &job.req, answer);
                }
                Step::Drain => core.request_drain(),
            }
            let stats = core.stats();
            if at_drain.is_none() && stats.draining == 1 {
                // Marked by this step, or by a `ShutdownAck` it wrote.
                let admitted = stats.submits - stats.rejected_shutdown;
                at_drain = Some((admitted, popped + stats.queue_depth));
            }
            check(&core, &clients, at_drain, popped);
        }
        let compiled: usize = fresh.values().sum();
        assert_eq!(
            core.stats().compiles,
            compiled as u64,
            "compiles, fresh replies"
        );
        for client in &clients {
            assert!(client.inbox.is_empty(), "a reply left torn");
            for &id in &client.ids {
                let answers = client.answers.get(&id).copied().unwrap_or(0);
                assert_eq!(answers, client.sent_with(id), "replies to request {id}");
            }
        }
    }

    /// The invariants every step keeps.
    fn check(core: &Core<usize>, clients: &[Client], at_drain: Option<(u64, u64)>, popped: u64) {
        let stats = core.stats();
        assert_eq!(
            stats.cache_requests,
            stats.cache_mem_hits + stats.cache_store_hits + stats.cache_misses,
            "cache requests against their outcomes"
        );
        // Counted at layout: every `Schedule` handed out, or laid out and
        // not yet handed out whole.
        let schedules: u64 = (clients.iter())
            .map(|client| client.schedules + client.schedules_held())
            .sum();
        assert_eq!(
            stats.completed, schedules,
            "completed against Schedule frames"
        );
        // The driver's worker answers a job in the step that pops it.
        let held: u64 = clients.iter().map(|client| client.conn.inflight).sum();
        assert_eq!(
            (stats.inflight, held),
            (stats.queue_depth, stats.queue_depth)
        );
        if let Some((admitted, queued)) = at_drain {
            let now = stats.submits - stats.rejected_shutdown;
            assert_eq!(now, admitted, "a submit admitted after the drain mark");
            assert_eq!(
                popped + stats.queue_depth,
                queued,
                "a job queued after the drain mark"
            );
        }
    }

    #[test]
    fn seeded_interleavings_keep_every_invariant() {
        // CI runs this in release over 10 000 seeds; a debug build steps
        // through the first 500 of the same sequence.
        let seeds = if cfg!(debug_assertions) { 500 } else { 10_000 };
        for seed in 0..seeds {
            if let Err(panic) = std::panic::catch_unwind(|| interleave(seed)) {
                eprintln!("interleaving seed {seed} fails");
                std::panic::resume_unwind(panic);
            }
        }
    }
}
