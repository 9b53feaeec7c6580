//! Phases 0–2 of the serve workloads: an in-process `schedd::Server` on a
//! Unix socket, one closed-loop lane for latency, `nproc` pipelined lanes
//! for throughput, then the output checks and the workload-shape
//! invariants.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipsc_sched::commcache::{CacheConfig, IncrementalConfig};
use ipsc_sched::commsched::validate_schedule;
use ipsc_sched::schedd::{
    Client, DaemonStats, Endpoint, LinkCostModel, Request, Response, SchemeChoice, Server,
    ServerHandle, ServiceConfig,
};
use ipsc_sched::simnet::MachineParams;

use crate::affinity::OneCpu;
use crate::ops::{
    DriftInputs, DriftLane, Fabrics, Lane, LaneReport, Outcome, Pool, PoolLane, Sample, ServeKind,
    Slot, COLD_WARMUP, DRIFT_IN_FLIGHT, SMALL_CACHE_BYTES, SMALL_MEMO_ENTRIES, WINDOW,
};
use crate::util::{process_cpu_seconds, Slice};

/// The daemon configuration of a workload: the default `ServiceConfig`
/// (2 workers), with the incremental layer for `serve_drift`, and small
/// caches — schedule LRU, retained bases, estimate memo — where every
/// request writes to them (see [`SMALL_CACHE_BYTES`]).
pub fn service_config(kind: ServeKind) -> ServiceConfig {
    let small = CacheConfig::in_memory().with_byte_budget(SMALL_CACHE_BYTES);
    let defaults = ServiceConfig::default();
    match kind {
        ServeKind::Hot => defaults,
        ServeKind::Cold => ServiceConfig {
            cache: small,
            estimate_cache_capacity: SMALL_MEMO_ENTRIES,
            ..defaults
        },
        ServeKind::Drift => ServiceConfig {
            cache: small
                .with_incremental(IncrementalConfig::default().with_byte_budget(SMALL_CACHE_BYTES)),
            estimate_cache_capacity: SMALL_MEMO_ENTRIES,
            ..defaults
        },
    }
}

/// The seeded inputs of a serve workload.
pub enum Inputs {
    Pool(Arc<Pool>),
    Drift {
        fabrics: Arc<Fabrics>,
        slots: Vec<Slot>,
    },
}

impl Inputs {
    pub fn build(kind: ServeKind, seed: u64) -> Inputs {
        match kind {
            ServeKind::Drift => {
                let DriftInputs { fabrics, slots } = DriftInputs::build(seed);
                Inputs::Drift {
                    fabrics: Arc::new(fabrics),
                    slots,
                }
            }
            kind => Inputs::Pool(Arc::new(Pool::build(kind, seed))),
        }
    }

    pub fn fabrics(&self) -> &Fabrics {
        match self {
            Inputs::Pool(pool) => &pool.fabrics,
            Inputs::Drift { fabrics, .. } => fabrics,
        }
    }

    /// Put through `serve` the requests set-up issues before anything is
    /// timed, so the caches are in their steady state from the first timed
    /// op: the hot pool itself; a cold stream that fills the LRU; every
    /// drift slot's first matrix and then one pass of the chain, which
    /// fills the LRU and the base cache. The traced replay warms its
    /// mirror the same way.
    pub fn warm_up(
        &mut self,
        mut serve: impl FnMut(&Request) -> Result<Response, String>,
    ) -> Result<(), String> {
        let mut send = |request: &Request| match serve(request)? {
            response @ Response::Schedule(_) => Ok(response),
            other => Err(format!("warm-up request refused: {other:?}")),
        };
        match self {
            Inputs::Pool(pool) => {
                let count = match pool.kind {
                    ServeKind::Hot => pool.instances.len() as u64,
                    _ => COLD_WARMUP,
                };
                let mut lane = PoolLane::new(Arc::clone(pool), 0);
                for id in 1..=count {
                    send(lane.next(id).expect("pool lanes always have a request"))?;
                }
            }
            Inputs::Drift { slots, .. } => {
                for slot in slots.iter() {
                    send(slot.full_request())?;
                }
                let mut lane = self.lane(0, 0, 1);
                for id in 1..=ServeKind::Drift.pass_ops() as u64 {
                    let response =
                        send(lane.next(id).expect("a slot is free with one op in flight"))?;
                    if lane.complete(response) != Outcome::Done {
                        return Err("a warm-up op of the drift chain failed".into());
                    }
                }
                self.restore(&mut lane.finish());
            }
        }
        Ok(())
    }

    /// The lane of stream `stream` out of `lanes` concurrent ones (phase 1
    /// and the replay: stream 1 of 1). Drift lanes take their share of the
    /// slots with them and hand them back in their report.
    pub fn lane(&mut self, stream: u64, index: usize, lanes: usize) -> Box<dyn Lane> {
        match self {
            Inputs::Pool(pool) => Box::new(PoolLane::new(Arc::clone(pool), stream)),
            Inputs::Drift { fabrics, slots } => {
                let (mine, rest): (Vec<Slot>, Vec<Slot>) = std::mem::take(slots)
                    .into_iter()
                    .partition(|s| s.index % lanes == index);
                *slots = rest;
                Box::new(DriftLane::new(Arc::clone(fabrics), mine))
            }
        }
    }

    /// Take back the slots a finished drift lane carried.
    pub fn restore(&mut self, report: &mut LaneReport) {
        if let Inputs::Drift { slots, .. } = self {
            slots.append(&mut report.slots);
            slots.sort_by_key(|s| s.index);
        }
    }
}

/// A set-up workload: the daemon is up and warm.
pub struct Running {
    pub kind: ServeKind,
    pub inputs: Inputs,
    pub server: ServerHandle,
    pub params: MachineParams,
}

/// Phase 0: inputs from the seed, daemon on a socket under `out_dir`,
/// caches warm.
pub fn setup(kind: ServeKind, seed: u64, out_dir: &Path) -> Result<Running, String> {
    let mut inputs = Inputs::build(kind, seed);
    let config = service_config(kind);
    let params = config.params.clone();
    let socket = out_dir.join(format!("schedd-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let server = Server::start(config, &Endpoint::Unix(socket))
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let mut client =
        Client::connect(server.endpoint()).map_err(|e| format!("cannot connect: {e}"))?;
    inputs.warm_up(|request| {
        client.send(request).map_err(|e| format!("warm-up: {e}"))?;
        client.recv().map_err(|e| format!("warm-up: {e}"))
    })?;
    Ok(Running {
        kind,
        inputs,
        server,
        params,
    })
}

/// Tally of one phase.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub retried: u64,
}

impl Tally {
    fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Done => self.succeeded += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Retried => self.retried += 1,
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.retried += other.retried;
    }
}

/// Phase 1 result: per-op latencies in µs, one slice per pass.
pub struct LatencyPhase {
    pub slices: Vec<Vec<f64>>,
    /// Whether the phase ran on one CPU.
    pub pinned: bool,
    pub tally: Tally,
    pub report: LaneReport,
}

/// Streams a round of the run may use: its phase-1 lane and its phase-2
/// lanes. Every lane of a run draws from a stream of its own, so no
/// `serve_cold` request repeats an earlier one.
const STREAMS_PER_ROUND: u64 = 1 << 16;

/// Phase 1 of round `round`: one generator thread, one op in flight, the
/// whole process on one CPU (see [`OneCpu`]; the rounds take turns over
/// the CPUs), in passes of `ServeKind::pass_ops` ops — every pass the same
/// mix of ops — until `seconds` are up.
pub fn latency_phase(
    running: &mut Running,
    seconds: f64,
    round: usize,
) -> Result<LatencyPhase, String> {
    let pinned = OneCpu::pin_nth(round);
    let mut lane = running
        .inputs
        .lane(round as u64 * STREAMS_PER_ROUND + 1, 0, 1);
    let mut client = Client::connect(running.server.endpoint()).map_err(|e| e.to_string())?;
    let pass_ops = running.kind.pass_ops();
    let mut slices = Vec::new();
    let mut tally = Tally::default();
    let start = Instant::now();
    while slices.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut latencies = Vec::with_capacity(pass_ops);
        for _ in 0..pass_ops {
            tally.attempted += 1;
            // The clock runs from the request being ready to the response
            // being decoded: making the request up and checking the reply
            // are the generator's work, not the system's. A lost base is
            // answered by the full resubmit, and the op's latency is both
            // round trips.
            let mut waited = Duration::ZERO;
            loop {
                let id = client.next_request_id();
                let request = lane
                    .next(id)
                    .ok_or("lane has no request with nothing in flight")?;
                let sent = Instant::now();
                client.send(request).map_err(|e| e.to_string())?;
                let response = client.recv().map_err(|e| e.to_string())?;
                waited += sent.elapsed();
                let outcome = lane.complete(response);
                tally.record(outcome);
                if outcome != Outcome::Retried {
                    break;
                }
            }
            latencies.push(waited.as_secs_f64() * 1e6);
        }
        slices.push(latencies);
    }
    drop(client);
    let mut report = lane.finish();
    running.inputs.restore(&mut report);
    Ok(LatencyPhase {
        slices,
        pinned: pinned.is_some(),
        tally,
        report,
    })
}

/// Length of one phase-2 slice in seconds.
const SLICE_S: f64 = 0.5;

/// Phase 2 result.
pub struct ThroughputPhase {
    /// Half-second slices: ops all lanes completed, wall and CPU time.
    pub slices: Vec<Slice>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub threads: usize,
    pub window: usize,
    pub tally: Tally,
    pub reports: Vec<LaneReport>,
}

struct LaneRun {
    tally: Tally,
    report: LaneReport,
}

fn pipelined_lane(
    endpoint: &Endpoint,
    mut lane: Box<dyn Lane>,
    window: usize,
    deadline: Instant,
    done: &AtomicU64,
) -> Result<LaneRun, String> {
    let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let mut in_flight = 0usize;
    loop {
        if Instant::now() < deadline {
            while in_flight < window {
                let id = client.next_request_id();
                let Some(request) = lane.next(id) else { break };
                client.send(request).map_err(|e| e.to_string())?;
                in_flight += 1;
                tally.attempted += 1;
            }
        }
        if in_flight == 0 {
            break;
        }
        let response = client.recv().map_err(|e| e.to_string())?;
        in_flight -= 1;
        let outcome = lane.complete(response);
        tally.record(outcome);
        match outcome {
            Outcome::Done => {
                done.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Retried => {
                // The resubmit belongs to an op already counted, and goes
                // out even past the deadline.
                let id = client.next_request_id();
                let request = lane.next(id).ok_or("a retried op has a resubmit")?;
                client.send(request).map_err(|e| e.to_string())?;
                in_flight += 1;
            }
            Outcome::Failed => {}
        }
    }
    Ok(LaneRun {
        tally,
        report: lane.finish(),
    })
}

/// Generator threads and requests in flight per thread in phase 2:
/// `nproc` threads with [`WINDOW`] each — except on `serve_drift`, where
/// the whole load keeps [`DRIFT_IN_FLIGHT`] requests in flight.
pub fn lanes_and_window(kind: ServeKind, nproc: usize) -> (usize, usize) {
    match kind {
        ServeKind::Drift => {
            let lanes = nproc.clamp(1, DRIFT_IN_FLIGHT);
            (lanes, DRIFT_IN_FLIGHT / lanes)
        }
        _ => (nproc.max(1), WINDOW),
    }
}

/// Phase 2 of round `round`: closed loop, one pipelined connection per
/// generator thread. This thread samples the lanes' op count and the
/// process's CPU time every half second.
pub fn throughput_phase(
    running: &mut Running,
    seconds: f64,
    threads: usize,
    round: usize,
) -> Result<ThroughputPhase, String> {
    let slice_count = (seconds / SLICE_S).round().max(1.0) as usize;
    let (threads, window) = lanes_and_window(running.kind, threads);
    let first_stream = round as u64 * STREAMS_PER_ROUND + 2;
    let lanes: Vec<Box<dyn Lane>> = (0..threads)
        .map(|t| running.inputs.lane(first_stream + t as u64, t, threads))
        .collect();
    let endpoint = running.server.endpoint().clone();
    let done = AtomicU64::new(0);
    let cpu_before = process_cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(slice_count as f64 * SLICE_S);
    let mut slices = Vec::with_capacity(slice_count);
    let runs: Vec<Result<LaneRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|lane| {
                let (endpoint, done) = (&endpoint, &done);
                scope.spawn(move || pipelined_lane(endpoint, lane, window, deadline, done))
            })
            .collect();
        let mut last = (start, 0, cpu_before);
        for slice in 1..=slice_count {
            let due = start + Duration::from_secs_f64(slice as f64 * SLICE_S);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let now = (
                Instant::now(),
                done.load(Ordering::Relaxed),
                process_cpu_seconds(),
            );
            slices.push(Slice {
                ops: now.1 - last.1,
                wall_s: now.0.duration_since(last.0).as_secs_f64(),
                cpu_s: now.2 - last.2,
            });
            last = now;
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a generator thread panicked".into()))
            })
            .collect()
    });
    let mut phase = ThroughputPhase {
        slices,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: process_cpu_seconds() - cpu_before,
        threads,
        window,
        tally: Tally::default(),
        reports: Vec::new(),
    };
    for run in runs {
        let mut run = run?;
        phase.tally.add(&run.tally);
        running.inputs.restore(&mut run.report);
        phase.reports.push(run.report);
    }
    Ok(phase)
}

/// The heavy output check of one sampled reply: the schedule validates
/// against its matrix (and keeps the entry's link guarantee), and the
/// estimate equals a direct library call; where nothing may have patched
/// it, the schedule equals a cold compile.
pub fn check_sample(
    fabrics: &Fabrics,
    params: &MachineParams,
    sample: &Sample,
) -> Result<(), String> {
    let topo = fabrics.topo(sample.topo);
    let entry = sample.entry;
    let schedule = sample
        .reply
        .schedule
        .as_ref()
        .ok_or("reply carries no schedule")?;
    validate_schedule(&sample.matrix, schedule)
        .map_err(|e| format!("{}: invalid schedule: {e}", entry.name()))?;
    if entry.link_contention_free() && !schedule.link_contention_free(topo) {
        return Err(format!("{}: schedule shares a link", entry.name()));
    }
    if sample.cold_equal && **schedule != entry.schedule(&sample.matrix, topo, sample.seed) {
        return Err(format!(
            "{}: schedule differs from a cold compile",
            entry.name()
        ));
    }
    let direct = ipsc_sched::commrt::BackendKind::Analytic
        .backend()
        .estimate_costed(
            params,
            &LinkCostModel::Uniform,
            topo,
            &sample.matrix,
            schedule,
            SchemeChoice::Default.resolve(entry),
        )
        .map_err(|e| format!("{}: direct estimate failed: {e}", entry.name()))?;
    if direct != sample.reply.estimate {
        return Err(format!(
            "{}: estimate differs from a direct call",
            entry.name()
        ));
    }
    Ok(())
}

/// What the daemon counted between two snapshots.
pub struct StatsDelta {
    pub before: DaemonStats,
    pub after: DaemonStats,
}

impl StatsDelta {
    pub fn of(&self, field: impl Fn(&DaemonStats) -> u64) -> u64 {
        field(&self.after).saturating_sub(field(&self.before))
    }

    pub fn share(
        &self,
        part: impl Fn(&DaemonStats) -> u64,
        whole: impl Fn(&DaemonStats) -> u64,
    ) -> f64 {
        let whole = self.of(whole);
        if whole == 0 {
            0.0
        } else {
            self.of(part) as f64 / whole as f64
        }
    }
}

/// The workload-shape invariants: a workload that stops exercising its
/// layer must not keep reporting numbers.
pub fn shape_invariants(
    kind: ServeKind,
    stats: &StatsDelta,
    tally: &Tally,
    reply_weight_bytes: u64,
    deltas_sent: u64,
) -> Vec<String> {
    let mut broken = Vec::new();
    match kind {
        ServeKind::Hot => {
            if stats.after.compiles != 16 {
                broken.push(format!(
                    "serve_hot compiled {} times, not 16",
                    stats.after.compiles
                ));
            }
            let hit_share =
                stats.share(|s| s.estimate_hits, |s| s.estimate_hits + s.estimate_misses);
            if hit_share < 0.999 {
                broken.push(format!(
                    "serve_hot estimate-memo hit share {hit_share:.4} < 0.999"
                ));
            }
        }
        ServeKind::Cold => {
            let compiles = stats.of(|s| s.compiles);
            if compiles != tally.succeeded {
                broken.push(format!(
                    "serve_cold compiled {compiles} times for {} succeeded requests",
                    tally.succeeded
                ));
            }
            // The daemon does not export its eviction counter; every reply
            // was a fresh insert, so once their weights exceed the budget
            // the LRU must have evicted.
            if reply_weight_bytes <= SMALL_CACHE_BYTES as u64 {
                broken.push(format!(
                    "serve_cold inserted {reply_weight_bytes} B, within the {SMALL_CACHE_BYTES} B budget: no eviction"
                ));
            }
        }
        ServeKind::Drift => {
            let patch_share = stats.share(|s| s.incr_patches, |s| s.delta_submits);
            if deltas_sent == 0 || patch_share < 0.9 {
                broken.push(format!(
                    "serve_drift patch share {patch_share:.3} of {deltas_sent} delta submits < 0.9"
                ));
            }
            if tally.retried * 100 > tally.attempted {
                broken.push(format!(
                    "serve_drift retried {} of {} ops (> 1 %)",
                    tally.retried, tally.attempted
                ));
            }
        }
    }
    broken
}

/// Stop the daemon and wait for every one of its threads.
pub fn teardown(running: Running) {
    running.server.shutdown();
}
