//! The daemon's compute pipeline, separated from all transport concerns.
//!
//! [`ServiceState::process`] is the whole pipeline after decode:
//! **admit → fingerprint → dedup → compile → simulate**. It takes a
//! decoded [`SubmitRequest`] and produces either a [`SubmitReply`] or a
//! typed [`ServiceError`]; the server wraps it in socket plumbing, and
//! the differential-conformance suite calls it (and the registry
//! directly) *in-process* to pin the daemon byte-identical to library
//! calls — which is only possible because nothing in here knows about
//! sockets.
//!
//! `process` is three steps, and the server runs them on different
//! threads:
//!
//! * A `Pending` admits the request from its envelope (registry entry,
//!   size check, and the daemon's fabric of the named kind, read from a
//!   table that keeps one [`TopologyKind::build_arc`] fabric per kind)
//!   and computes its instance key and fingerprint. A kind is built the
//!   first time a request names it, so the compile, the estimate and the
//!   DES of every later request on a walked fabric that `build_arc`
//!   tables read its circuits from that table instead of walking them.
//!   Its two
//!   front ends differ only in how the instance is keyed: a canonical
//!   `Submit` body from its bytes ([`InstanceKey::of_block`], see
//!   [`crate::protocol`]'s `SubmitView`), so a repeat builds no matrix;
//!   a decoded request, resolved delta included, from its matrix
//!   ([`InstanceKey::compute`]).
//! * `resident` answers it from memory when the schedule and the memo's
//!   estimate of it are both resident (see
//!   [`SchedCache::get_resident`]). It never compiles, patches, prices or
//!   reads the artifact store, so the connection's reader runs it and a
//!   repeat never waits for a worker.
//! * Otherwise a worker runs `finish` on the same `Pending`:
//!   single-flight, then store, compile or patch, then register, then
//!   price.
//!
//! Either step hands back one `Answer`: the fingerprint, whether this
//! request's flight produced the schedule, the estimate and the schedule.
//! `put_reply` lays every `Schedule` frame the daemon writes out of an
//! `Answer`, a reader's or a worker's, with the artifact bytes the
//! schedule cache keeps beside the schedule ([`SchedCache::artifact`]),
//! so a schedule's artifact is encoded once while it stays resident;
//! `process` turns its `Answer` into a [`SubmitReply`].
//!
//! A resident answer counts exactly what `finish` counts for a hit; a
//! `Pending` has counted nothing. Three layers of reuse sit in front of
//! the actual work:
//!
//! 1. [`SingleFlight`] coalesces *concurrent* identical requests onto
//!    one compile (keyed by the [`commcache::Fingerprint`], so "identical"
//!    means identical canonical bytes, not identical frames);
//! 2. [`commcache::SchedCache`] serves *repeat* requests from memory or
//!    the artifact store;
//! 3. an estimate memo does the same for simulation results, keyed
//!    (fingerprint, scheme, backend) — a duplicate-heavy load ends up
//!    touching neither the scheduler nor the simulator. With the
//!    incremental layer on, a fingerprint's schedule evicted and
//!    produced again may differ (a cold compile where a patch was), so
//!    there an entry answers only for the schedule it priced, which it
//!    holds by identity.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

use commcache::{CacheConfig, CacheStats, Fingerprint, InstanceKey, SchedCache};
use commrt::{BackendReport, Scheme};
use commsched::{registry, Schedule, Scheduler};
use hypercube::Topology;
use simnet::{LinkCostModel, MachineParams};
use topo::{KindError, TopologyKind};

use crate::dedup::{FlightStats, SingleFlight};
use crate::protocol::{
    put_schedule_reply, Envelope, ErrorCode, ProtocolLimits, SubmitDeltaRequest, SubmitReply,
    SubmitRequest, SubmitView,
};

/// Tunables for a daemon instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Schedule-cache configuration (in-memory or persistent).
    pub cache: CacheConfig,
    /// Machine model priced by the simulation backends.
    pub params: MachineParams,
    /// Compile-queue capacity; a full queue rejects with `Overloaded`.
    pub queue_capacity: usize,
    /// Worker threads draining the compile queue.
    pub workers: usize,
    /// Per-connection in-flight cap; beyond it, `QuotaExceeded`.
    pub max_inflight_per_client: usize,
    /// Estimate-cache entry cap (clears wholesale when exceeded).
    pub estimate_cache_capacity: usize,
    /// Decode-time size limits (`--max-nodes` raises the node cap).
    pub limits: ProtocolLimits,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache: CacheConfig::in_memory(),
            params: MachineParams::ipsc860(),
            queue_capacity: 1024,
            workers: 2,
            max_inflight_per_client: 256,
            estimate_cache_capacity: 65_536,
            limits: ProtocolLimits::default(),
        }
    }
}

/// Typed pipeline failure. `Clone` so a coalesced flight can hand every
/// waiter the same error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// No registry entry under this name.
    UnknownScheduler(String),
    /// The entry declines the requested topology.
    UnsupportedTopology {
        /// The entry that declined.
        scheduler: String,
        /// The topology it declined.
        topology: String,
    },
    /// Decoded fine but semantically unservable.
    BadRequest(String),
    /// The simulation backend failed (stringified [`simnet::SimError`]).
    Sim(String),
    /// A delta submit named a base instance the daemon does not retain.
    /// Recoverable: the client resubmits the full matrix.
    UnknownBase(String),
}

impl ServiceError {
    /// The wire error code this failure maps to.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServiceError::UnknownScheduler(_) => ErrorCode::UnknownScheduler,
            ServiceError::UnsupportedTopology { .. } => ErrorCode::UnsupportedTopology,
            ServiceError::BadRequest(_) => ErrorCode::BadRequest,
            ServiceError::Sim(_) => ErrorCode::SimFailed,
            ServiceError::UnknownBase(_) => ErrorCode::UnknownBase,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownScheduler(name) => {
                write!(f, "no scheduler named `{name}` in the registry")
            }
            ServiceError::UnsupportedTopology {
                scheduler,
                topology,
            } => write!(f, "scheduler {scheduler} does not support {topology}"),
            ServiceError::BadRequest(what) => write!(f, "bad request: {what}"),
            ServiceError::Sim(what) => write!(f, "simulation failed: {what}"),
            ServiceError::UnknownBase(what) => write!(f, "unknown base: {what}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One memo entry: a report, and the schedule it priced when its key
/// alone does not name that schedule.
#[derive(Clone)]
struct Priced {
    report: Arc<BackendReport>,
    /// By identity: a `Weak` keeps the allocation's address from being
    /// reused without keeping the schedule alive. `None` when any
    /// schedule served under the key is the one priced.
    schedule: Option<Weak<Schedule>>,
}

impl Priced {
    /// Whether this is the report of `schedule`.
    fn prices(&self, schedule: &Arc<Schedule>) -> bool {
        (self.schedule.as_ref())
            .is_none_or(|priced| std::ptr::eq(priced.as_ptr(), Arc::as_ptr(schedule)))
    }
}

/// Cache of backend estimates keyed (fingerprint, scheme, backend).
///
/// Without the incremental layer a fingerprint names one schedule: a
/// compile is a pure function of the fingerprinted inputs, and a store
/// artifact round-trips it exactly. With the layer on it does not: a
/// fingerprint whose schedule was evicted and produced again may name a
/// different schedule (a cold compile where a patch was). So an
/// incremental daemon's entries answer only for the schedule they priced
/// ([`Priced`]), and an entry that priced another is a counted miss.
///
/// Eviction is wholesale: a new key inserted at the cap swaps the table
/// for an empty one, freed outside the lock.
/// Crude, but the table is small (a few hundred bytes per entry), the
/// cap is large, and clearing costs one rebuild of a working set the
/// schedule cache still remembers — LRU bookkeeping on the daemon's
/// hottest path would cost more than it saves.
struct EstimateCache {
    entries: Mutex<HashMap<(u128, u8, u8), Priced>>,
    capacity: usize,
    /// Whether entries record the schedule they priced (the incremental
    /// layer is on).
    by_identity: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EstimateCache {
    fn new(capacity: usize, by_identity: bool) -> EstimateCache {
        EstimateCache {
            entries: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            by_identity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look `key` up without counting.
    fn peek(&self, key: (u128, u8, u8)) -> Option<Priced> {
        self.entries
            .lock()
            .expect("estimate lock")
            .get(&key)
            .cloned()
    }

    /// The report of `schedule` under `key`, counted as a hit or a miss.
    fn get(&self, key: (u128, u8, u8), schedule: &Arc<Schedule>) -> Option<Arc<BackendReport>> {
        let hit = self
            .peek(key)
            .filter(|memo| memo.prices(schedule))
            .map(|memo| memo.report);
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn insert(&self, key: (u128, u8, u8), report: Arc<BackendReport>, schedule: &Arc<Schedule>) {
        let memo = Priced {
            report,
            schedule: self.by_identity.then(|| Arc::downgrade(schedule)),
        };
        let mut entries = self.entries.lock().expect("estimate lock");
        // A new key at capacity takes the whole table with it, freed
        // outside the lock: other workers' `get`s should not wait for
        // that. Replacing a key's entry does not grow the table.
        let full = entries.len() >= self.capacity && !entries.contains_key(&key);
        let evicted = full.then(|| std::mem::take(&mut *entries));
        entries.insert(key, memo);
        drop(entries);
        drop(evicted);
    }
}

/// Fabric kinds the daemon keeps built at once; a new kind beyond them
/// clears the table, as a new key at capacity clears the estimate memo.
const FABRIC_KINDS: usize = 16;

/// Everything the pipeline shares across requests and threads.
pub struct ServiceState {
    params: MachineParams,
    cache: SchedCache,
    flight: SingleFlight<u128, (Arc<Schedule>, bool), ServiceError>,
    estimates: EstimateCache,
    /// One built fabric per kind ([`TopologyKind::build_arc`]): a walked
    /// fabric's circuits are routed once per daemon, not once per request.
    /// Every request reads it and only a new kind writes it, so lookups
    /// share the lock; at most [`FABRIC_KINDS`] kinds, so a scan finds one
    /// sooner than a hash would.
    fabrics: RwLock<Vec<(TopologyKind, Arc<dyn Topology>)>>,
    /// Fabrics built, for tests that count them.
    #[cfg(test)]
    fabric_builds: AtomicU64,
}

impl ServiceState {
    /// Build the pipeline from its tunables.
    pub fn new(config: &ServiceConfig) -> ServiceState {
        ServiceState {
            params: config.params.clone(),
            cache: SchedCache::new(config.cache.clone()),
            flight: SingleFlight::new(),
            estimates: EstimateCache::new(
                config.estimate_cache_capacity,
                config.cache.incremental.is_some(),
            ),
            fabrics: RwLock::new(Vec::new()),
            #[cfg(test)]
            fabric_builds: AtomicU64::new(0),
        }
    }

    /// The machine model estimates are priced against.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Schedule-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Dedup-stage counters.
    pub fn flight_stats(&self) -> FlightStats {
        self.flight.stats()
    }

    /// Estimate-cache counters: `(hits, misses)`.
    pub fn estimate_stats(&self) -> (u64, u64) {
        (
            self.estimates.hits.load(Ordering::Relaxed),
            self.estimates.misses.load(Ordering::Relaxed),
        )
    }

    /// Compiles actually executed (true misses through every layer):
    /// a leading flight patches or compiles exactly when the schedule
    /// cache counts a miss, so this is [`CacheStats::misses`].
    pub fn compiles(&self) -> u64 {
        self.cache.stats().misses
    }

    /// Incremental-layer counters, when the cache has the layer enabled.
    pub fn incremental_stats(&self) -> Option<commcache::IncrementalStats> {
        self.cache.incremental_stats()
    }

    /// Resolve a delta submit into the full request it denotes: fetch
    /// the retained base matrix, apply the edits, and hand back a
    /// [`SubmitRequest`] indistinguishable from a full submit of the
    /// perturbed matrix — which is what makes delta replies
    /// byte-identical to full-submit replies by construction.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownBase`] when the incremental layer is off
    /// or the named base is not resident; [`ServiceError::BadRequest`]
    /// when the delta does not apply to its base.
    pub fn resolve_delta(&self, req: &SubmitDeltaRequest) -> Result<SubmitRequest, ServiceError> {
        let inc = self.cache.incremental().ok_or_else(|| {
            ServiceError::UnknownBase(
                "incremental compilation is disabled on this daemon (start it with --incremental)"
                    .into(),
            )
        })?;
        let base = inc.base_matrix(req.base).ok_or_else(|| {
            ServiceError::UnknownBase(format!(
                "base instance {} is not retained (evicted or never submitted)",
                req.base.to_hex()
            ))
        })?;
        let matrix = req
            .delta
            .apply(&base)
            .map_err(|e| ServiceError::BadRequest(format!("delta does not apply to base: {e}")))?;
        Ok(req.to_submit(matrix))
    }

    /// The daemon's fabric of `kind`, built the first time a request
    /// names it and kept while at most [`FABRIC_KINDS`] kinds are. The
    /// kind is validated before it is built: a hand-built request can
    /// name one no builder accepts.
    fn fabric(&self, kind: &TopologyKind) -> Result<Arc<dyn Topology>, KindError> {
        let held = |fabrics: &[(TopologyKind, Arc<dyn Topology>)]| {
            let (_, fabric) = fabrics.iter().find(|(held, _)| held == kind)?;
            Some(Arc::clone(fabric))
        };
        if let Some(fabric) = held(&self.fabrics.read().expect("fabric lock")) {
            return Ok(fabric);
        }
        // Built outside the lock, so no lookup waits for a table to fill;
        // of two racing builds of one kind, the first inserted is kept.
        kind.validate()?;
        let built = kind.build_arc();
        #[cfg(test)]
        self.fabric_builds.fetch_add(1, Ordering::Relaxed);
        let mut fabrics = self.fabrics.write().expect("fabric lock");
        if let Some(fabric) = held(&fabrics) {
            return Ok(fabric);
        }
        let evicted = (fabrics.len() >= FABRIC_KINDS).then(|| std::mem::take(&mut *fabrics));
        fabrics.push((kind.clone(), Arc::clone(&built)));
        drop(fabrics);
        drop(evicted);
        Ok(built)
    }

    /// Fabrics built so far, and the kinds the table holds now.
    #[cfg(test)]
    pub(crate) fn fabric_counts(&self) -> (u64, usize) {
        let kinds = self.fabrics.read().expect("fabric lock").len();
        (self.fabric_builds.load(Ordering::Relaxed), kinds)
    }

    /// The one copy of admission: find the registry entry, check the
    /// matrix's `n` against the topology's size, read the daemon's fabric
    /// of that kind and ask the entry whether it schedules on it.
    fn admitted(
        &self,
        scheduler: &str,
        topology: &TopologyKind,
        n: usize,
    ) -> Result<(&'static dyn Scheduler, Arc<dyn Topology>), ServiceError> {
        let entry = registry::find(scheduler)
            .ok_or_else(|| ServiceError::UnknownScheduler(scheduler.to_string()))?;
        if n != topology.num_nodes() {
            return Err(ServiceError::BadRequest(format!(
                "matrix spans {n} nodes but topology {topology} has {}",
                topology.num_nodes()
            )));
        }
        let topo = self
            .fabric(topology)
            .map_err(|e| ServiceError::BadRequest(format!("topology {topology}: {e}")))?;
        if !entry.supports_topology(topo.as_ref()) {
            return Err(ServiceError::UnsupportedTopology {
                scheduler: entry.name().to_string(),
                topology: topology.to_string(),
            });
        }
        Ok((entry, topo))
    }

    /// Cheap pre-queue validation: the failures worth rejecting before
    /// spending a queue slot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownScheduler`], [`ServiceError::UnsupportedTopology`],
    /// or [`ServiceError::BadRequest`] on a size mismatch.
    pub fn admit(&self, req: &SubmitRequest) -> Result<(), ServiceError> {
        self.admitted(&req.scheduler, &req.topology, req.matrix.n())
            .map(|_| ())
    }

    /// The full pipeline for one request: admit it into a `Pending`,
    /// answer it from memory when `resident` can, and `finish` it
    /// otherwise (see the module docs).
    ///
    /// # Errors
    ///
    /// Everything [`admit`](Self::admit) can raise (so unadmitted
    /// callers still get typed errors), plus [`ServiceError::Sim`].
    pub fn process(&self, req: &SubmitRequest) -> Result<SubmitReply, ServiceError> {
        let pending = Pending::of_request(self, req)?;
        let answer = match self.resident(&pending) {
            Some(answer) => answer,
            None => self.finish(req, pending)?,
        };
        Ok(SubmitReply {
            request_id: req.request_id,
            fingerprint: answer.fingerprint,
            freshly_compiled: answer.freshly_compiled,
            estimate: (*answer.estimate).clone(),
            schedule: req.want_schedule.then_some(answer.schedule),
        })
    }

    /// Answer an admitted request from memory: its schedule and the
    /// memo's estimate of that schedule, when both are resident. Never
    /// compiles, patches, prices or reads the artifact store, so the
    /// thread that read the request can run it.
    ///
    /// An answer counts one cache request, one memory hit and one
    /// estimate hit, and (incremental layer on) records the schedule on
    /// its retained patch base — all exactly as `finish` would. `None`
    /// has counted and changed nothing: the request is not resident, the
    /// memo priced another schedule, or (incremental layer on) its patch
    /// base is no longer retained, which only `finish`, holding the
    /// matrix, can retain again.
    pub(crate) fn resident(&self, pending: &Pending) -> Option<Answer> {
        // The estimate is peeked first, uncounted: only a resident
        // schedule the memo priced makes either lookup count.
        let memo = self.estimates.peek(pending.estimate)?;
        let schedule = self.cache.get_resident(
            pending.fp,
            |s| memo.prices(s),
            pending.entry,
            pending.key,
            pending.seed,
        )?;
        self.estimates.hits.fetch_add(1, Ordering::Relaxed);
        Some(Answer {
            fingerprint: pending.fp,
            freshly_compiled: false,
            estimate: memo.report,
            schedule,
        })
    }

    /// Append the `Schedule` reply body answering `request_id` with
    /// `answer`: every such frame the daemon writes, a reader's or a
    /// worker's. When the request asked for the schedule, its artifact is
    /// the bytes the schedule cache keeps beside it
    /// ([`SchedCache::artifact`]), encoded once while it stays resident.
    pub(crate) fn put_reply(
        &self,
        out: &mut Vec<u8>,
        request_id: u64,
        want_schedule: bool,
        answer: &Answer,
    ) {
        let artifact =
            want_schedule.then(|| self.cache.artifact(answer.fingerprint, &answer.schedule));
        put_schedule_reply(
            out,
            request_id,
            answer.fingerprint,
            answer.freshly_compiled,
            &answer.estimate,
            artifact.as_deref().map(Vec::as_slice),
        );
    }

    /// The rest of the pipeline for a request [`resident`](Self::resident)
    /// could not answer: single-flight, then the cache's store, compile
    /// or patch, then register, then price (or the estimate memo).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Sim`] when the backend cannot price the schedule.
    pub(crate) fn finish(
        &self,
        req: &SubmitRequest,
        pending: Pending,
    ) -> Result<Answer, ServiceError> {
        let Pending {
            entry,
            key,
            fp,
            scheme,
            estimate: estimate_key,
            ..
        } = pending;
        let topo = pending.topo.as_ref();

        // Dedup stage: concurrent identical fingerprints ride one pass
        // of the cache's reuse step (memory, store, patch or compile,
        // register); the step's flag tells a produced schedule from a
        // cache hit inside the led flight. A validated patch counts as
        // freshly compiled (this request produced the schedule rather
        // than being served one). Each flight registers its schedule
        // once, in the leader's step: followers share the same key,
        // matrix and seed, so a second registration would only refresh
        // recency.
        let (served, led) = self.flight.run(fp.0, || {
            Ok(self
                .cache
                .get_or_schedule_keyed(entry, key, &req.matrix, topo, req.seed))
        });
        let (schedule, produced) = served?;
        let freshly_compiled = led && produced;

        let estimate = match self.estimates.get(estimate_key, &schedule) {
            Some(report) => report,
            None => {
                let report = req
                    .backend
                    .backend()
                    .estimate_costed(
                        &self.params,
                        &req.cost_model,
                        topo,
                        &req.matrix,
                        &schedule,
                        scheme,
                    )
                    .map_err(|e| ServiceError::Sim(e.to_string()))?;
                let report = Arc::new(report);
                self.estimates
                    .insert(estimate_key, Arc::clone(&report), &schedule);
                report
            }
        };
        Ok(Answer {
            fingerprint: fp,
            freshly_compiled,
            estimate,
            schedule,
        })
    }
}

/// A served request, from [`ServiceState::resident`] or
/// [`ServiceState::finish`]: what its reply is made of, besides the
/// request's id and whether it asked for the schedule.
pub(crate) struct Answer {
    fingerprint: Fingerprint,
    /// Whether this request's flight produced the schedule.
    freshly_compiled: bool,
    estimate: Arc<BackendReport>,
    schedule: Arc<Schedule>,
}

/// An admitted request: the registry entry, the daemon's fabric, the
/// instance key and the keys it is served under. Made once per request,
/// from a canonical body's bytes or from the decoded request, and handed
/// from [`ServiceState::resident`] to [`ServiceState::finish`] on a miss.
pub(crate) struct Pending {
    entry: &'static dyn Scheduler,
    topo: Arc<dyn Topology>,
    key: InstanceKey,
    seed: u64,
    /// The schedule fingerprint: the cache and single-flight key.
    fp: Fingerprint,
    scheme: Scheme,
    /// The estimate-memo key.
    estimate: (u128, u8, u8),
}

impl Pending {
    /// Admit a canonical `Submit` body, keying the instance from its
    /// message block ([`InstanceKey::of_block`]). Counts nothing.
    pub(crate) fn of_view(
        state: &ServiceState,
        view: &SubmitView<'_>,
    ) -> Result<Pending, ServiceError> {
        Pending::new(
            state,
            &view.head,
            view.block.n(),
            &LinkCostModel::Uniform,
            |topo| InstanceKey::of_block(view.block, topo),
        )
    }

    /// Admit a decoded request, keying the instance from its matrix
    /// ([`InstanceKey::compute`]). Counts nothing.
    pub(crate) fn of_request(
        state: &ServiceState,
        req: &SubmitRequest,
    ) -> Result<Pending, ServiceError> {
        Pending::new(
            state,
            &req.envelope(),
            req.matrix.n(),
            &req.cost_model,
            |topo| InstanceKey::compute(&req.matrix, topo),
        )
    }

    /// Admit the request `head` opens, whose matrix spans `n` nodes and
    /// whose estimate is priced under `cost_model`, into `state`; `key`
    /// keys its instance on the daemon's fabric.
    fn new(
        state: &ServiceState,
        head: &Envelope<'_>,
        n: usize,
        cost_model: &LinkCostModel,
        key: impl FnOnce(&dyn Topology) -> InstanceKey,
    ) -> Result<Pending, ServiceError> {
        let (entry, topo) = state.admitted(&head.scheduler, &head.topology, n)?;
        let key = key(topo.as_ref());
        let fp = key.schedule_key(entry.name(), head.seed);
        // Schedules are cost-model agnostic (the scheduler never sees
        // link prices), so `fp` stays the cache/dedup key. The
        // *estimate* is not: fold the canonical cost string into the
        // memo key via the fingerprint extension — the identity for
        // uniform, whose string is therefore never formatted.
        let est_fp = if cost_model.is_uniform() {
            fp
        } else {
            fp.with_cost_model(&cost_model.to_string())
        };
        let scheme = head.scheme.resolve(entry);
        Ok(Pending {
            entry,
            topo,
            key,
            seed: head.seed,
            fp,
            scheme,
            estimate: (est_fp.0, scheme as u8, head.backend as u8),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SchemeChoice;
    use crate::TopologySpec;
    use commcache::IncrementalConfig;
    use commrt::{BackendKind, Scheme};
    use commsched::CommMatrix;
    use simnet::LinkCostModel;

    fn request(seed: u64, backend: BackendKind) -> SubmitRequest {
        let mut matrix = CommMatrix::new(8);
        matrix.set(0, 3, 512);
        matrix.set(3, 0, 512);
        matrix.set(1, 6, 256);
        SubmitRequest {
            request_id: 1,
            want_schedule: true,
            topology: TopologySpec::Hypercube { dims: 3 },
            scheduler: "RS_NL".into(),
            scheme: SchemeChoice::Default,
            backend,
            seed,
            matrix,
            cost_model: LinkCostModel::Uniform,
        }
    }

    #[test]
    fn an_insert_at_capacity_leaves_only_the_new_entry() {
        let cache = EstimateCache::new(4, true);
        let report = |makespan_ns| {
            Arc::new(BackendReport {
                makespan_ns,
                ..BackendReport::default()
            })
        };
        let s = Arc::new(commsched::ac(&CommMatrix::new(4)));
        for k in 0..4u128 {
            cache.insert((k, 0, 0), report(k as u64), &s);
        }
        assert_eq!(cache.get((2, 0, 0), &s).unwrap().makespan_ns, 2);
        assert!(cache.get((9, 0, 0), &s).is_none());
        let counters = |c: &EstimateCache| {
            (
                c.hits.load(Ordering::Relaxed),
                c.misses.load(Ordering::Relaxed),
            )
        };
        assert_eq!(counters(&cache), (1, 1));
        // Replacing a key at capacity does not grow the table: nothing goes.
        cache.insert((1, 0, 0), report(10), &s);
        {
            let entries = cache.entries.lock().unwrap();
            assert_eq!(entries.len(), 4, "a replace clears nothing");
            assert_eq!(entries[&(1, 0, 0)].report.makespan_ns, 10);
        }
        // A report a caller still holds outlives the table it sat in.
        let held = cache.get((3, 0, 0), &s).unwrap();
        cache.insert((4, 0, 0), report(4), &s);
        assert_eq!(counters(&cache), (2, 1), "inserting moves neither counter");
        {
            let entries = cache.entries.lock().unwrap();
            assert_eq!(entries.len(), 1, "exactly the new entry is resident");
            assert_eq!(entries[&(4, 0, 0)].report.makespan_ns, 4);
        }
        assert_eq!((Arc::strong_count(&held), held.makespan_ns), (1, 3));
        // Below capacity again, inserts accumulate as before.
        cache.insert((5, 0, 0), report(5), &s);
        assert_eq!(cache.entries.lock().unwrap().len(), 2);
        assert!(cache.get((0, 0, 0), &s).is_none() && cache.get((5, 0, 0), &s).is_some());
        assert_eq!(counters(&cache), (3, 2));
    }

    #[test]
    fn a_memo_entry_answers_only_for_the_schedule_it_priced() {
        // Without the incremental layer a key names one schedule, so
        // an entry answers for any schedule served under it.
        let cache = EstimateCache::new(4, false);
        let priced = Arc::new(commsched::ac(&CommMatrix::new(4)));
        let twin = Arc::new((*priced).clone());
        cache.insert((1, 0, 0), Arc::new(BackendReport::default()), &priced);
        assert!(cache.get((1, 0, 0), &twin).is_some());
        let cache = EstimateCache::new(4, true);
        cache.insert((1, 0, 0), Arc::new(BackendReport::default()), &priced);
        // An equal schedule is another schedule: a counted miss.
        assert!(cache.get((1, 0, 0), &twin).is_none());
        assert!(cache.get((1, 0, 0), &priced).is_some());
        // Nor does the entry keep the schedule alive, and once it is
        // gone nothing new can take its address while the entry stands.
        drop(priced);
        let again = Arc::new((*twin).clone());
        assert!(cache.get((1, 0, 0), &again).is_none());
        let counters = (
            cache.hits.load(Ordering::Relaxed),
            cache.misses.load(Ordering::Relaxed),
        );
        assert_eq!(counters, (1, 2));
    }

    #[test]
    fn a_resident_answer_replies_and_counts_as_the_worker_path_does() {
        // The daemon answers with `resident`, then `finish` when memory
        // cannot, and lays either answer out with `put_reply`. The
        // reference sends every request down the worker path alone (admit,
        // then `finish`), as the daemon did before resident answers: reply
        // frames and every daemon-visible counter must agree after every
        // step.
        let counters = |s: &ServiceState| {
            (
                s.cache_stats(),
                s.estimate_stats(),
                s.compiles(),
                s.incremental_stats(),
                s.flight_stats().coalesced,
            )
        };

        let base = request(5, BackendKind::Analytic);
        let mut drifted = base.clone();
        drifted.matrix.set(2, 5, 128);
        let mut priced = base.clone();
        priced.cost_model = "loggp:o=5000,g=1000,G=2.0".parse().unwrap();
        let mut quiet = base.clone();
        quiet.want_schedule = false;
        let mut unbuildable = base.clone();
        unbuildable.topology = TopologySpec::FatTree { k: 3 };
        unbuildable.matrix = CommMatrix::new(6);
        let mut other = base.clone();
        other.matrix = CommMatrix::new(8);
        other.matrix.set(4, 7, 64);
        let mut script = vec![
            base.clone(),
            base.clone(),
            request(5, BackendKind::Des),
            request(5, BackendKind::Des),
            priced.clone(),
            priced,
            request(6, BackendKind::Analytic),
            drifted.clone(),
            drifted.clone(),
            quiet,
            unbuildable,
            base,
        ];
        // The bases' budget holds the two the script so far retains (one
        // per matrix), so `other`'s evicts the least recent, `drifted`'s:
        // its repeat then has a resident schedule and estimate but no
        // base, and takes the worker path.
        let probe = ServiceState::new(&ServiceConfig {
            cache: CacheConfig::in_memory().incremental_default(),
            ..ServiceConfig::default()
        });
        for req in &script {
            let _ = probe.process(req);
        }
        let bases = IncrementalConfig::default()
            .with_byte_budget(probe.incremental_stats().unwrap().bytes_in_use);
        let config = ServiceConfig {
            cache: CacheConfig::in_memory().with_incremental(bases),
            ..ServiceConfig::default()
        };
        let split = ServiceState::new(&config);
        let reference = ServiceState::new(&config);
        script.extend([other, drifted]);
        for (step, req) in script.iter().enumerate() {
            let frame = |state: &ServiceState, answer: Result<Answer, ServiceError>| {
                answer.map(|answer| {
                    let mut out = Vec::new();
                    state.put_reply(&mut out, req.request_id, req.want_schedule, &answer);
                    out
                })
            };
            let got = Pending::of_request(&split, req).and_then(|pending| {
                match split.resident(&pending) {
                    Some(answer) => Ok(answer),
                    None => split.finish(req, pending),
                }
            });
            let want = Pending::of_request(&reference, req)
                .and_then(|pending| reference.finish(req, pending));
            assert_eq!(
                frame(&split, got),
                frame(&reference, want),
                "step {step}: reply"
            );
            assert_eq!(
                counters(&split),
                counters(&reference),
                "step {step}: counters"
            );
        }
        // Not vacuous: six repeats were answered without a flight, and
        // the last step's base was evicted.
        let leads = |s: &ServiceState| s.flight_stats().leads;
        assert_eq!((leads(&split), leads(&reference)), (7, 13));
        assert!(split.incremental_stats().unwrap().evictions > 0);
    }

    #[test]
    fn a_repeat_is_answered_from_bytes_only_with_its_own_schedules_estimate() {
        use crate::protocol::{Request, Response};
        let config = ServiceConfig {
            cache: CacheConfig::in_memory().incremental_default(),
            ..ServiceConfig::default()
        };
        let state = ServiceState::new(&config);
        let req = request(5, BackendKind::Analytic);
        let body = Request::Submit(req.clone()).encode();
        let view = SubmitView::parse(&body, &ProtocolLimits::default()).expect("canonical");
        let instance = InstanceKey::compute(&req.matrix, req.topology.build().as_ref());
        let admitted = || Pending::of_view(&state, &view).unwrap();
        assert_eq!(admitted().key, instance);
        let first = state.process(&req).unwrap();
        let counters = |s: &ServiceState| {
            let cache = s.cache_stats();
            (cache.requests, cache.mem_hits, s.estimate_stats())
        };
        let before = counters(&state);

        // Resident: the reply laid out from the bytes is the reply the
        // decoded path gives, and counts as it does. The kept artifact
        // is metered beside the schedule.
        let hit = state.resident(&admitted()).expect("resident");
        let mut from_bytes = Vec::new();
        state.put_reply(&mut from_bytes, req.request_id, req.want_schedule, &hit);
        let reference = ServiceState::new(&config);
        reference.process(&req).unwrap();
        let decoded = reference.process(&req).unwrap();
        assert_eq!(from_bytes, Response::Schedule(decoded).encode());
        assert_eq!(counters(&state), counters(&reference));
        assert_ne!(counters(&state), before);
        let artifact =
            commcache::encode_artifact(first.fingerprint, first.schedule.as_ref().unwrap());
        let kept = state.cache_stats().bytes_in_use - reference.cache_stats().bytes_in_use;
        assert_eq!(kept, artifact.len());

        // On an incremental daemon a memo entry that priced another
        // schedule, even an equal one, does not answer for the resident
        // one: nothing is counted.
        let decoded = Pending::of_request(&state, &req).unwrap();
        let twin = Arc::new((**first.schedule.as_ref().unwrap()).clone());
        state
            .estimates
            .insert(decoded.estimate, Arc::new(BackendReport::default()), &twin);
        let before = counters(&state);
        assert!(state.resident(&admitted()).is_none());
        assert!(state.resident(&decoded).is_none());
        assert_eq!(counters(&state), before);
    }

    #[test]
    fn a_worker_answer_and_its_repeats_share_one_kept_artifact() {
        for cache in [
            CacheConfig::in_memory(),
            CacheConfig::in_memory().incremental_default(),
        ] {
            let state = ServiceState::new(&ServiceConfig {
                cache,
                ..ServiceConfig::default()
            });
            let req = request(5, BackendKind::Analytic);
            let pending = Pending::of_request(&state, &req).unwrap();
            assert!(state.resident(&pending).is_none());
            let answer = state.finish(&req, pending).unwrap();
            let reply = |answer: &Answer| {
                let mut out = Vec::new();
                state.put_reply(&mut out, req.request_id, true, answer);
                out
            };
            let first = reply(&answer);
            // The worker's reply kept its artifact beside the schedule.
            let in_use = state.cache_stats().bytes_in_use;
            let kept = state.cache.artifact(answer.fingerprint, &answer.schedule);
            let weight = commcache::schedule_weight_bytes(&answer.schedule);
            assert_eq!(in_use, weight + kept.len());
            // A resident repeat is laid out from those very bytes: nothing
            // is encoded or kept again.
            let again = state
                .resident(&Pending::of_request(&state, &req).unwrap())
                .unwrap();
            let repeat = reply(&again);
            assert_eq!(state.cache_stats().bytes_in_use, in_use);
            let still = state.cache.artifact(again.fingerprint, &again.schedule);
            assert!(Arc::ptr_eq(&kept, &still), "the artifact was encoded again");
            // Only the freshly-compiled flag tells the two replies apart.
            let flag = 1 + 8 + 16;
            assert_eq!((first[flag], repeat[flag]), (1, 0));
            assert_eq!(
                (&first[..flag], &first[flag + 1..]),
                (&repeat[..flag], &repeat[flag + 1..])
            );
        }
    }

    #[test]
    fn process_matches_direct_library_calls() {
        let state = ServiceState::new(&ServiceConfig::default());
        let req = request(11, BackendKind::Des);
        let reply = state.process(&req).unwrap();
        assert!(reply.freshly_compiled);

        let entry = registry::find("RS_NL").unwrap();
        let topo = req.topology.build();
        let direct = entry.schedule(&req.matrix, topo.as_ref(), req.seed);
        assert_eq!(**reply.schedule.as_ref().unwrap(), direct);
        let direct_report = BackendKind::Des
            .backend()
            .estimate(
                state.params(),
                topo.as_ref(),
                &req.matrix,
                &direct,
                Scheme::S1,
            )
            .unwrap();
        assert_eq!(reply.estimate, direct_report);
    }

    #[test]
    fn repeats_hit_every_cache_layer() {
        let state = ServiceState::new(&ServiceConfig::default());
        let req = request(5, BackendKind::Analytic);
        let first = state.process(&req).unwrap();
        let second = state.process(&req).unwrap();
        assert!(first.freshly_compiled);
        assert!(!second.freshly_compiled);
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(first.estimate, second.estimate);
        assert_eq!(state.compiles(), 1);
        assert_eq!(state.cache_stats().misses, 1);
        let (est_hits, est_misses) = state.estimate_stats();
        assert_eq!((est_hits, est_misses), (1, 1));
    }

    #[test]
    fn distinct_backends_share_the_compile_not_the_estimate() {
        let state = ServiceState::new(&ServiceConfig::default());
        let des = state.process(&request(5, BackendKind::Des)).unwrap();
        let analytic = state.process(&request(5, BackendKind::Analytic)).unwrap();
        assert_eq!(des.fingerprint, analytic.fingerprint);
        assert_eq!(state.compiles(), 1);
        let (_, est_misses) = state.estimate_stats();
        assert_eq!(est_misses, 2);
    }

    #[test]
    fn cost_models_share_the_compile_not_the_estimate() {
        let state = ServiceState::new(&ServiceConfig::default());
        let uniform = state.process(&request(5, BackendKind::Analytic)).unwrap();
        let mut priced = request(5, BackendKind::Analytic);
        priced.cost_model = "loggp:o=5000,g=1000,G=2.0".parse().unwrap();
        let costed = state.process(&priced).unwrap();
        // One compile: the schedule is cost-model agnostic.
        assert_eq!(state.compiles(), 1);
        assert_eq!(uniform.fingerprint, costed.fingerprint);
        // Two estimate-cache entries: pricing is not.
        let (_, est_misses) = state.estimate_stats();
        assert_eq!(est_misses, 2);
        assert!(costed.estimate.makespan_ns > uniform.estimate.makespan_ns);
        // Repeats of the priced request hit the costed memo entry.
        let again = state.process(&priced).unwrap();
        assert_eq!(again.estimate, costed.estimate);
        assert_eq!(state.estimate_stats().0, 1);
    }

    #[test]
    fn admission_rejects_with_typed_errors() {
        let state = ServiceState::new(&ServiceConfig::default());
        let mut unknown = request(1, BackendKind::Des);
        unknown.scheduler = "FASTER_THAN_LIGHT".into();
        assert!(matches!(
            state.admit(&unknown),
            Err(ServiceError::UnknownScheduler(_))
        ));
        // LP is pinned to e-cube hypercubes; a mesh must be declined.
        let mut mesh = request(1, BackendKind::Des);
        mesh.scheduler = "LP".into();
        mesh.topology = TopologySpec::Mesh2d { rows: 2, cols: 4 };
        assert!(matches!(
            state.admit(&mesh),
            Err(ServiceError::UnsupportedTopology { .. })
        ));
        let mut mismatched = request(1, BackendKind::Des);
        mismatched.topology = TopologySpec::Hypercube { dims: 4 };
        assert!(matches!(
            state.admit(&mismatched),
            Err(ServiceError::BadRequest(_))
        ));
        // A hand-built request can name a fabric no builder accepts and
        // still pass the size check (27 / 4 = 6 hosts; the empty product
        // is 1): a typed rejection naming the bound, not a panic.
        for (topology, n, bound) in [
            (TopologySpec::FatTree { k: 3 }, 6, "arity must be even"),
            (
                TopologySpec::Torus { extents: vec![] },
                1,
                "1..=8 dimensions",
            ),
        ] {
            let mut unbuildable = request(1, BackendKind::Des);
            unbuildable.topology = topology;
            unbuildable.matrix = CommMatrix::new(n);
            for outcome in [
                state.admit(&unbuildable),
                state.process(&unbuildable).map(|_| ()),
            ] {
                match outcome {
                    Err(ServiceError::BadRequest(what)) => assert!(what.contains(bound), "{what}"),
                    other => panic!("{} was answered {other:?}", unbuildable.topology),
                }
            }
        }
        // Errors map to distinct wire codes.
        assert_eq!(
            state.admit(&unknown).unwrap_err().code(),
            ErrorCode::UnknownScheduler
        );
    }
}
