//! The serve workloads as seeded op streams.
//!
//! A [`Lane`] is one closed-loop generator: it hands out the next request
//! and judges the reply. Phase 1 runs one lane with one op in flight,
//! phase 2 one lane per generator thread, and the traced replay drives a
//! fresh lane of the phase-1 stream against the in-process mirror — so
//! all three see the same requests for the same `--seed`.

use std::collections::VecDeque;
use std::sync::Arc;

use ipsc_sched::commcache::{schedule_weight_bytes, Fingerprint, InstanceKey};
use ipsc_sched::commrt::BackendKind;
use ipsc_sched::commsched::{registry, CommMatrix, MatrixDelta, Scheduler};
use ipsc_sched::hypercube::{NodeId, Topology};
use ipsc_sched::schedd::{
    ErrorCode, LinkCostModel, Request, Response, SchemeChoice, SubmitDeltaRequest, SubmitReply,
    SubmitRequest, TopologySpec,
};
use ipsc_sched::workloads::Generator;

use crate::util::{mix, SplitMix64};

/// Nodes of every fabric the workloads use (`cube:d=6`, `torus:8x8`).
pub const NODES: usize = 64;

/// Most requests one lane keeps in flight (phase 2 window).
pub const WINDOW: usize = 16;

/// Drift slots; each is a chain with at most one request in flight.
pub const DRIFT_SLOTS: usize = 32;

/// Requests `serve_drift` keeps in flight in phase 2, all lanes together.
/// The incremental layer diffs a miss against its 8 most recently used
/// bases (`IncrementalConfig::max_candidates`), and every request in
/// flight touches one or two; measured on the seed commit the patch share
/// is 0.998 with 4 in flight, 0.87 with 6 and 0.24 with 32. The workload
/// exists to measure the patch path, so it stays where patches happen.
pub const DRIFT_IN_FLIGHT: usize = 4;

/// One heavy output check in this many cold/drift replies.
const CHECK_EVERY: u64 = 256;

/// Requests `serve_cold` sends in set-up so the LRU is full, and evicting,
/// from the first timed op.
pub const COLD_WARMUP: u64 = 1024;

/// `serve_cold` and `serve_drift` run the schedule cache — and
/// `serve_drift` the incremental layer's base cache — at this budget
/// instead of the 64 and 32 MiB defaults: a time-bounded run would
/// otherwise spend a machine-dependent share of itself filling them, and
/// `peak_rss_mb` would grow with the number of ops a faster build
/// completes. Set-up fills them, so they evict from the first timed op.
pub const SMALL_CACHE_BYTES: usize = 2 << 20;

/// Estimate-memo entries on the same two workloads, instead of 65 536, for
/// the same reason: every request adds an entry, and the memo empties
/// itself when full, so its peak must not depend on the run's op count.
pub const SMALL_MEMO_ENTRIES: usize = 4096;

/// Every `DRIFT_MIX`-th step of a drift slot is an exact repeat, the rest
/// are deltas: one to three. An even mix would put the median latency on
/// the boundary between the two kinds of op, where it flips between them
/// from run to run.
const DRIFT_MIX: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeKind {
    Hot,
    Cold,
    Drift,
}

impl ServeKind {
    /// Ops of one phase-1 pass: a whole number of sweeps over the pool or
    /// rounds over the slots, so every pass is the same mix of ops.
    pub fn pass_ops(self) -> usize {
        match self {
            ServeKind::Hot => 16 * 128,
            ServeKind::Cold => 256 * 5,
            ServeKind::Drift => DRIFT_SLOTS * 32,
        }
    }
}

/// A matrix together with how it was made and where it runs.
pub struct Instance {
    pub generator: Generator,
    pub gen_seed: u64,
    pub matrix: CommMatrix,
    pub topo: usize,
    pub key: InstanceKey,
}

/// The fabrics of a workload, built once for client-side fingerprints and
/// the output checks (the daemon builds its own per request).
pub struct Fabrics {
    pub specs: Vec<TopologySpec>,
    pub built: Vec<Box<dyn Topology>>,
}

impl Fabrics {
    fn new(specs: Vec<TopologySpec>) -> Fabrics {
        let built = specs.iter().map(TopologySpec::build).collect();
        Fabrics { specs, built }
    }

    pub fn topo(&self, index: usize) -> &dyn Topology {
        self.built[index].as_ref()
    }
}

fn cube() -> TopologySpec {
    TopologySpec::Hypercube { dims: 6 }
}

fn torus() -> TopologySpec {
    TopologySpec::Torus {
        extents: vec![8, 8],
    }
}

/// The inputs of a pool workload (`serve_hot`, `serve_cold`).
pub struct Pool {
    pub kind: ServeKind,
    pub seed: u64,
    pub fabrics: Fabrics,
    pub instances: Vec<Instance>,
    pub entries: Vec<&'static dyn Scheduler>,
}

impl Pool {
    pub fn build(kind: ServeKind, seed: u64) -> Pool {
        let (fabrics, shapes, count, entries): (_, Vec<(usize, usize, u32)>, usize, Vec<_>) =
            match kind {
                ServeKind::Hot => (
                    Fabrics::new(vec![cube()]),
                    vec![(0, 8, 1024)],
                    16,
                    vec![registry::find("RS_NL").expect("RS_NL is registered")],
                ),
                ServeKind::Cold => {
                    let mut shapes = Vec::new();
                    for topo in 0..2 {
                        for d in [4, 8, 16, 32] {
                            for bytes in [256, 1024, 131_072] {
                                shapes.push((topo, d, bytes));
                            }
                        }
                    }
                    (
                        Fabrics::new(vec![cube(), torus()]),
                        shapes,
                        256,
                        registry::primary().collect(),
                    )
                }
                ServeKind::Drift => unreachable!("drift inputs are DriftSlots"),
            };
        let instances = (0..count)
            .map(|i| {
                let (topo, d, bytes) = shapes[i % shapes.len()];
                let generator = Generator::dregular(NODES, d, bytes);
                let gen_seed = mix(seed ^ ((i as u64) << 32));
                let matrix = generator.generate(gen_seed);
                let key = InstanceKey::compute(&matrix, fabrics.topo(topo));
                Instance {
                    generator,
                    gen_seed,
                    matrix,
                    topo,
                    key,
                }
            })
            .collect();
        Pool {
            kind,
            seed,
            fabrics,
            instances,
            entries,
        }
    }

    fn template(&self, instance: usize) -> Request {
        let inst = &self.instances[instance];
        Request::Submit(SubmitRequest {
            request_id: 0,
            want_schedule: true,
            topology: self.fabrics.specs[inst.topo].clone(),
            scheduler: self.entries[0].name().to_string(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Analytic,
            seed: instance as u64,
            matrix: inst.matrix.clone(),
            cost_model: LinkCostModel::Uniform,
        })
    }
}

/// What a lane knows about a request it sent.
struct Sent {
    fingerprint: Fingerprint,
    instance: usize,
    entry: usize,
    seed: u64,
}

/// What a lane says about a reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The op succeeded.
    Done,
    /// The op failed: refused, errored, or its reply did not check out.
    Failed,
    /// The daemon lost the delta's base; the lane's next request is the
    /// full resubmit of the same op.
    Retried,
}

/// A reply kept for the output checks that are too heavy for the timed
/// path: `validate_schedule` and the estimate against a direct library
/// call.
pub struct Sample {
    pub matrix: CommMatrix,
    pub topo: usize,
    pub entry: &'static dyn Scheduler,
    pub seed: u64,
    pub reply: SubmitReply,
    /// Whether the schedule must equal a cold compile (false once the
    /// incremental layer may have patched it).
    pub cold_equal: bool,
}

/// Counters and leftovers of a finished lane.
#[derive(Default)]
pub struct LaneReport {
    pub samples: Vec<Sample>,
    /// `schedule_weight_bytes` summed over every reply: what the daemon's
    /// LRU was asked to hold.
    pub reply_weight_bytes: u64,
    pub deltas_sent: u64,
    /// Why ops failed (the first few).
    pub failures: Vec<String>,
    pub slots: Vec<Slot>,
}

impl LaneReport {
    fn fail(&mut self, why: String) -> Outcome {
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
        Outcome::Failed
    }
}

/// One closed-loop generator.
pub trait Lane: Send {
    /// The next request, stamped `request_id`; `None` when nothing can be
    /// issued until a reply arrives (every drift slot is busy).
    fn next(&mut self, request_id: u64) -> Option<&Request>;

    /// Judge the reply to an earlier request.
    fn complete(&mut self, response: Response) -> Outcome;

    fn finish(self: Box<Self>) -> LaneReport;
}

/// The requests a lane has in flight, by id. Replies may overtake each
/// other, so ids in flight are not contiguous; there are at most
/// [`WINDOW`] of them, so a scan beats hashing.
struct InFlight<T>(Vec<(u64, T)>);

impl<T> InFlight<T> {
    fn new() -> Self {
        InFlight(Vec::with_capacity(WINDOW))
    }

    fn insert(&mut self, request_id: u64, sent: T) {
        self.0.push((request_id, sent));
    }

    fn take(&mut self, request_id: u64) -> Option<T> {
        let at = self.0.iter().position(|(id, _)| *id == request_id)?;
        Some(self.0.swap_remove(at).1)
    }
}

/// Lane of `serve_hot` / `serve_cold`: draws pool instances.
pub struct PoolLane {
    pool: Arc<Pool>,
    requests: Vec<Request>,
    stream: u64,
    issued: u64,
    sent: InFlight<Sent>,
    sampled: Vec<bool>,
    report: LaneReport,
}

impl PoolLane {
    /// Lane `stream` of the workload: stream 0 is the set-up warm-up,
    /// 1 is phase 1 of the first round (and the traced replay), 2.. are
    /// its phase-2 threads; later rounds count on from a multiple of 2^16.
    pub fn new(pool: Arc<Pool>, stream: u64) -> PoolLane {
        PoolLane {
            requests: (0..pool.instances.len())
                .map(|i| pool.template(i))
                .collect(),
            stream,
            issued: 0,
            sent: InFlight::new(),
            sampled: vec![false; pool.instances.len()],
            report: LaneReport::default(),
            pool,
        }
    }
}

impl Lane for PoolLane {
    fn next(&mut self, request_id: u64) -> Option<&Request> {
        let pool = &self.pool;
        // Concurrent lanes start a few instances apart.
        let k = self.issued + 7 * self.stream;
        self.issued += 1;
        // Both pools are swept in a fixed order, so any `pass_ops`
        // consecutive requests of a lane are the same mix: every instance
        // equally often, on `serve_cold` under every entry once.
        let count = pool.instances.len() as u64;
        let instance = (k % count) as usize;
        let (entry, seed) = match pool.kind {
            // Hot: repeat the instance's set-up request exactly.
            ServeKind::Hot => (0, instance as u64),
            // Cold: the primary entries round-robin (an entry that declines
            // the fabric passes its turn on), and a scheduler seed no
            // earlier request of this run has carried.
            _ => {
                let topo = pool.fabrics.topo(pool.instances[instance].topo);
                let mut e = ((k / count + k) % pool.entries.len() as u64) as usize;
                while !pool.entries[e].supports_topology(topo) {
                    e = (e + 1) % pool.entries.len();
                }
                (e, (pool.seed << 44) ^ (self.stream << 36) ^ k)
            }
        };
        let entry_name = pool.entries[entry].name();
        let Request::Submit(req) = &mut self.requests[instance] else {
            unreachable!("pool templates are full submits")
        };
        req.request_id = request_id;
        req.seed = seed;
        if req.scheduler != entry_name {
            req.scheduler.clear();
            req.scheduler.push_str(entry_name);
        }
        let fingerprint = pool.instances[instance].key.schedule_key(entry_name, seed);
        self.sent.insert(
            request_id,
            Sent {
                fingerprint,
                instance,
                entry,
                seed,
            },
        );
        Some(&self.requests[instance])
    }

    fn complete(&mut self, response: Response) -> Outcome {
        let Some(sent) = self.sent.take(response.request_id()) else {
            return self
                .report
                .fail(format!("reply to unknown request: {response:?}"));
        };
        let reply = match response {
            Response::Schedule(reply) => reply,
            other => return self.report.fail(format!("not a schedule: {other:?}")),
        };
        let Some(schedule) = reply.schedule.as_ref() else {
            return self.report.fail("reply carries no schedule".into());
        };
        if reply.fingerprint != sent.fingerprint {
            return self.report.fail(format!(
                "fingerprint {} where the client computed {}",
                reply.fingerprint, sent.fingerprint
            ));
        }
        self.report.reply_weight_bytes += schedule_weight_bytes(schedule) as u64;
        let pool = &self.pool;
        let sample = match pool.kind {
            ServeKind::Hot => !std::mem::replace(&mut self.sampled[sent.instance], true),
            _ => self.issued % CHECK_EVERY == 1,
        };
        if sample {
            let inst = &pool.instances[sent.instance];
            self.report.samples.push(Sample {
                matrix: inst.matrix.clone(),
                topo: inst.topo,
                entry: pool.entries[sent.entry],
                seed: sent.seed,
                reply,
                cold_equal: true,
            });
        }
        Outcome::Done
    }

    fn finish(self: Box<Self>) -> LaneReport {
        self.report
    }
}

/// One drifting chain of `serve_drift`.
pub struct Slot {
    pub index: usize,
    pub entry: &'static dyn Scheduler,
    pub generator: Generator,
    pub gen_seed: u64,
    /// The full submit of the slot's current matrix.
    request: Request,
    key: InstanceKey,
    rng: SplitMix64,
    step: u64,
}

impl Slot {
    fn submit(&self) -> &SubmitRequest {
        match &self.request {
            Request::Submit(req) => req,
            _ => unreachable!("slot requests are full submits"),
        }
    }

    fn submit_mut(&mut self) -> &mut SubmitRequest {
        match &mut self.request {
            Request::Submit(req) => req,
            _ => unreachable!("slot requests are full submits"),
        }
    }

    pub fn matrix(&self) -> &CommMatrix {
        &self.submit().matrix
    }

    /// The full submit of the slot's current matrix.
    pub fn full_request(&self) -> &Request {
        &self.request
    }

    fn drift(&mut self) -> (MatrixDelta, CommMatrix) {
        let Slot { request, rng, .. } = self;
        match request {
            Request::Submit(req) => drift(&req.matrix, rng),
            _ => unreachable!("slot requests are full submits"),
        }
    }
}

/// Move 1–4 messages of `base` to free cells of their rows: the delta and
/// the matrix it leads to.
pub fn drift(base: &CommMatrix, rng: &mut SplitMix64) -> (MatrixDelta, CommMatrix) {
    let n = base.n();
    let mut target = base.clone();
    let messages: Vec<(NodeId, NodeId, u32)> = base.messages().collect();
    let mut added = Vec::new();
    let mut removed: Vec<(NodeId, NodeId)> = Vec::new();
    let edits = 1 + rng.below(4);
    for _ in 0..edits {
        let (src, old, bytes) = messages[rng.below(messages.len())];
        let s = src.index();
        if target.get(s, old.index()) == 0 {
            continue; // already moved by an earlier edit of this delta
        }
        // A cell this delta vacated is not free: a delta names a cell once.
        let start = rng.below(n);
        let free = (0..n)
            .map(|off| (start + off) % n)
            .find(|&dst| dst != s && base.get(s, dst) == 0 && target.get(s, dst) == 0);
        if let Some(dst) = free {
            target.set(s, old.index(), 0);
            target.set(s, dst, bytes);
            removed.push((src, old));
            added.push((src, NodeId(dst as u32), bytes));
        }
    }
    added.sort_unstable_by_key(|&(s, d, _)| (s, d));
    removed.sort_unstable();
    let delta = MatrixDelta::from_parts(n, added, removed, Vec::new())
        .expect("moves touch distinct in-range cells");
    (delta, target)
}

/// The inputs of `serve_drift`: 32 chains on `cube:d=6`, d = 8, 1 KiB.
pub struct DriftInputs {
    pub fabrics: Fabrics,
    pub slots: Vec<Slot>,
}

impl DriftInputs {
    pub fn build(seed: u64) -> DriftInputs {
        let fabrics = Fabrics::new(vec![cube()]);
        let entries = ["RS_N", "RS_NL", "GREEDY"].map(|n| registry::find(n).expect("registered"));
        let generator = Generator::dregular(NODES, 8, 1024);
        let slots = (0..DRIFT_SLOTS)
            .map(|index| {
                let entry = entries[index % entries.len()];
                let gen_seed = mix(seed ^ ((index as u64) << 32) ^ 0xD21F7);
                let matrix = generator.generate(gen_seed);
                let key = InstanceKey::compute(&matrix, fabrics.topo(0));
                Slot {
                    index,
                    entry,
                    generator: generator.clone(),
                    gen_seed,
                    request: Request::Submit(SubmitRequest {
                        request_id: 0,
                        want_schedule: true,
                        topology: fabrics.specs[0].clone(),
                        scheduler: entry.name().to_string(),
                        scheme: SchemeChoice::Default,
                        backend: BackendKind::Analytic,
                        seed: index as u64,
                        matrix,
                        cost_model: LinkCostModel::Uniform,
                    }),
                    key,
                    rng: SplitMix64::new(mix(seed ^ ((index as u64) << 40))),
                    step: 0,
                }
            })
            .collect();
        DriftInputs { fabrics, slots }
    }
}

/// A drift request in flight.
struct DriftSent {
    slot: usize,
    fingerprint: Fingerprint,
    /// The matrix a delta leads to, until the reply commits it.
    target: Option<(CommMatrix, InstanceKey)>,
}

/// Lane of `serve_drift`: owns some slots, one request in flight per slot.
pub struct DriftLane {
    fabrics: Arc<Fabrics>,
    slots: Vec<Slot>,
    free: VecDeque<usize>,
    resubmit: VecDeque<DriftSent>,
    sent: InFlight<DriftSent>,
    outgoing: Option<Request>,
    completed: u64,
    report: LaneReport,
}

impl DriftLane {
    pub fn new(fabrics: Arc<Fabrics>, slots: Vec<Slot>) -> DriftLane {
        DriftLane {
            free: (0..slots.len()).collect(),
            resubmit: VecDeque::new(),
            sent: InFlight::new(),
            outgoing: None,
            completed: 0,
            report: LaneReport::default(),
            fabrics,
            slots,
        }
    }
}

impl Lane for DriftLane {
    fn next(&mut self, request_id: u64) -> Option<&Request> {
        if let Some(sent) = self.resubmit.pop_front() {
            // The base was lost: send the whole target matrix instead.
            let current = self.slots[sent.slot].submit();
            let (matrix, _) = sent.target.as_ref().expect("only deltas are resubmitted");
            self.outgoing = Some(Request::Submit(SubmitRequest {
                request_id,
                matrix: matrix.clone(),
                ..current.clone()
            }));
            self.sent.insert(request_id, sent);
            return self.outgoing.as_ref();
        }
        let index = self.free.pop_front()?;
        let slot = &mut self.slots[index];
        slot.step += 1;
        // Staggered by slot, so every round over the slots has the same
        // share of repeats.
        if (slot.step + slot.index as u64).is_multiple_of(DRIFT_MIX) {
            // An exact repeat of the slot's current matrix.
            slot.submit_mut().request_id = request_id;
            let req = slot.submit();
            self.sent.insert(
                request_id,
                DriftSent {
                    slot: index,
                    fingerprint: slot.key.schedule_key(&req.scheduler, req.seed),
                    target: None,
                },
            );
            return Some(&self.slots[index].request);
        }
        let (delta, target) = slot.drift();
        let target_key = InstanceKey::compute(&target, self.fabrics.topo(0));
        let current = slot.submit();
        self.sent.insert(
            request_id,
            DriftSent {
                slot: index,
                fingerprint: target_key.schedule_key(&current.scheduler, current.seed),
                target: Some((target, target_key)),
            },
        );
        self.report.deltas_sent += 1;
        self.outgoing = Some(Request::SubmitDelta(SubmitDeltaRequest {
            request_id,
            want_schedule: true,
            topology: current.topology.clone(),
            scheduler: current.scheduler.clone(),
            scheme: current.scheme,
            backend: current.backend,
            seed: current.seed,
            base: slot.key,
            delta,
            cost_model: current.cost_model,
        }));
        self.outgoing.as_ref()
    }

    fn complete(&mut self, response: Response) -> Outcome {
        let Some(sent) = self.sent.take(response.request_id()) else {
            return self
                .report
                .fail(format!("reply to unknown request: {response:?}"));
        };
        let reply = match response {
            Response::Schedule(reply) => reply,
            Response::Error(err) if err.code == ErrorCode::UnknownBase && sent.target.is_some() => {
                self.resubmit.push_back(sent);
                return Outcome::Retried;
            }
            other => {
                self.free.push_back(sent.slot);
                return self.report.fail(format!("not a schedule: {other:?}"));
            }
        };
        self.free.push_back(sent.slot);
        let Some(schedule) = reply.schedule.as_ref() else {
            return self.report.fail("reply carries no schedule".into());
        };
        if reply.fingerprint != sent.fingerprint {
            return self.report.fail(format!(
                "fingerprint {} where the client computed {}",
                reply.fingerprint, sent.fingerprint
            ));
        }
        self.report.reply_weight_bytes += schedule_weight_bytes(schedule) as u64;
        let slot = &mut self.slots[sent.slot];
        if let Some((matrix, key)) = sent.target {
            slot.submit_mut().matrix = matrix;
            slot.key = key;
        }
        self.completed += 1;
        if self.completed % CHECK_EVERY == 1 {
            let req = slot.submit();
            self.report.samples.push(Sample {
                matrix: req.matrix.clone(),
                topo: 0,
                entry: slot.entry,
                seed: req.seed,
                reply,
                cold_equal: false,
            });
        }
        Outcome::Done
    }

    fn finish(mut self: Box<Self>) -> LaneReport {
        self.report.slots = std::mem::take(&mut self.slots);
        self.report
    }
}
