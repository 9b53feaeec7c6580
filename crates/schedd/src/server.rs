//! The daemon shell: sockets, threads and graceful drain. What the daemon
//! decides about a connection — framing, admission, held replies,
//! counting, the quota — is its `Conn`'s (the crate-private `conn`
//! module); the shell only moves bytes between sockets and `Conn`s.
//!
//! Thread anatomy of a running [`Server`]:
//!
//! * one **acceptor** blocks on the listener, makes a connection's
//!   handles (its writer, and one to shut it down with), then counts it
//!   and spawns its reader; a connection short of a handle is dropped
//!   uncounted;
//! * one **reader per connection** reads straight into the connection's
//!   window, which it keeps, lends the window to its `Conn` and writes
//!   what the `Conn` asks it to;
//! * a fixed pool of **workers** pops the jobs memory could not answer,
//!   finishes them ([`ServiceState`](crate::ServiceState)), hands the
//!   answer to the job's `Conn` and writes the reply at once.
//!
//! A connection's lock is its write turn, taken by its reader and by the
//! workers answering it, so replies can overtake each other and every
//! frame echoes its `request_id`. The reader wakes a worker only once it
//! has let go of it: woken sooner, the worker would wait on the lock.
//!
//! Graceful shutdown (from [`ServerHandle::shutdown`] or a client's
//! `Shutdown` frame, once its acknowledgement is written) is an ordering,
//! not a flag: mark draining (new submits → `ShuttingDown`) → wake and
//! join the acceptor → close the queue and join the workers, which
//! **drains every admitted job** → unblock and join the readers → remove
//! the Unix socket file. Nothing admitted is dropped; nothing after the
//! drain mark is accepted.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::conn::{Action, Conn, Core, Window};
use crate::net::{Endpoint, Listener, Stream};
use crate::protocol::DaemonStats;
use crate::service::ServiceConfig;

/// A connection as the shell keeps it, behind the [`Handle`] each of its
/// queued jobs holds: its [`Conn`] and the socket its replies are written
/// to. The lock around it is the connection's write turn.
struct Link {
    conn: Conn,
    stream: Stream,
}

type Handle = Arc<Mutex<Link>>;

impl Link {
    /// Write everything the connection has laid out.
    fn flush(&mut self, core: &Core<Handle>) {
        while !self.conn.unwritten().is_empty() {
            match self.stream.write(self.conn.unwritten()) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                written => self.conn.wrote(core, written.unwrap_or(0)),
            }
        }
    }
}

/// State shared by every daemon thread.
struct Shared {
    core: Core<Handle>,
    endpoint: Endpoint,
    /// Live connections, by id, as extra socket handles for shutdown.
    conns: Mutex<HashMap<u64, Stream>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running daemon.
pub struct Server;

/// Handle on a running daemon: stats, test hooks, shutdown.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
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
        let shared = Arc::new(Shared {
            core: Core::new(config),
            endpoint: listener.local_endpoint()?,
            conns: Mutex::new(HashMap::new()),
            readers: Mutex::new(Vec::new()),
        });

        let workers = (0..shared.core.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("schedd-worker-{i}"))
                    .spawn(move || worker_loop(&shared.core))
                    .expect("spawn worker")
            })
            .collect();

        let spawned = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("schedd-acceptor".into())
            .spawn(move || acceptor_loop(&listener, &spawned))
            .expect("spawn acceptor");

        Ok(ServerHandle {
            shared,
            acceptor,
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
        self.shared.core.stats()
    }

    /// Test hook: stop workers from taking jobs, making queue depth and
    /// quota occupancy deterministic. Drain ([`shutdown`](Self::shutdown))
    /// overrides a pause.
    pub fn pause_workers(&self) {
        self.shared.core.queue.pause();
    }

    /// Undo [`pause_workers`](Self::pause_workers).
    pub fn resume_workers(&self) {
        self.shared.core.queue.resume();
    }

    /// Block until some client sends a `Shutdown` frame (the daemon
    /// binary's main-thread parking spot).
    pub fn wait_shutdown_requested(&self) {
        self.shared.core.wait_drain();
    }

    /// Drain and stop: serve everything admitted, reject everything
    /// new, join every thread, remove the Unix socket file.
    pub fn shutdown(self) {
        self.shared.core.request_drain();

        // The acceptor is parked in accept(); a throwaway connection
        // wakes it so it can observe the drain flag and exit.
        let _ = self.shared.endpoint.connect();
        let _ = self.acceptor.join();

        // Closing the queue lets workers drain admitted jobs and exit.
        self.shared.core.queue.close();
        for worker in self.workers {
            let _ = worker.join();
        }

        // Readers are parked in read(); shutting the sockets down turns
        // that into EOF.
        for (_, stream) in self.shared.conns.lock().expect("conns lock").drain() {
            stream.shutdown_both();
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock().expect("readers lock"));
        for reader in readers {
            let _ = reader.join();
        }

        if let Endpoint::Unix(path) = &self.shared.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn acceptor_loop(listener: &Listener, shared: &Arc<Shared>) {
    let mut next_conn_id: u64 = 1;
    loop {
        let accepted = listener.accept();
        if shared.core.count(|n| n.draining == 1) {
            // The wake-up connection (or a late client): drop it.
            return;
        }
        let Ok(stream) = accepted else { continue };
        // Every handle first: a connection whose replies cannot be
        // written, or that shutdown could not reach, is never served.
        let (Ok(writer), Ok(extra)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let conn_id = next_conn_id;
        next_conn_id += 1;
        shared.core.count(|n| {
            n.connections_accepted += 1;
            n.connections_active += 1;
        });
        let conns = &shared.conns;
        conns.lock().expect("conns lock").insert(conn_id, extra);
        let link = Arc::new(Mutex::new(Link {
            conn: Conn::new(conn_id),
            stream: writer,
        }));
        let spawned = Arc::clone(shared);
        let reader = std::thread::Builder::new()
            .name(format!("schedd-conn-{conn_id}"))
            .spawn(move || {
                reader_loop(stream, &link, &spawned.core);
                spawned.conns.lock().expect("conns lock").remove(&conn_id);
                spawned.core.count(|n| n.connections_active -= 1);
            })
            .expect("spawn reader");
        shared.readers.lock().expect("readers lock").push(reader);
    }
}

/// Read into the connection's window, lend it to the connection's `Conn`
/// and write what it asks for, until the peer hangs up or the framing
/// breaks. The window is the reader's: no lock is held across `read`.
fn reader_loop(mut stream: Stream, link: &Handle, core: &Core<Handle>) {
    let mut window = Window::new();
    loop {
        let read = match stream.read(window.room()) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            read => read,
        };
        let Ok(n @ 1..) = read else {
            return Conn::ended(core, &window, read.is_err());
        };
        window.filled(n);
        let mut held = link.lock().expect("connection lock");
        while let Some(action) = held.conn.received(core, link, &mut window) {
            if action == Action::Queued {
                drop(held);
                core.queue.wake_one();
                held = link.lock().expect("connection lock");
                continue;
            }
            held.flush(core);
            if action == Action::Close {
                return;
            }
        }
    }
}

/// Worker: pop, finish the pipeline, hand the answer to the job's
/// connection and write it at once.
fn worker_loop(core: &Core<Handle>) {
    while let Some(job) = core.queue.pop() {
        let answer = core.state.finish(&job.req, job.pending);
        let mut held = job.conn.lock().expect("connection lock");
        held.conn.answered(core, &job.req, answer);
        held.flush(core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{Request, Response, SchemeChoice, SubmitRequest};
    use crate::service::ServiceState;
    use commcache::CacheConfig;
    use commrt::BackendKind;
    use simnet::LinkCostModel;
    use std::sync::atomic::Ordering;
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
            let decodes = || (handle.shared.core.submit_decodes).load(Ordering::Relaxed);
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
            let cache = || handle.shared.core.state.cache_stats();
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
        let fabrics = || handle.shared.core.state.fabric_counts();
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
