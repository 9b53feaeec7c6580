//! The serve path replayed in-process, one span per layer call.
//!
//! `ServiceState` keeps its cache, single-flight table and estimate memo
//! private, so the per-layer view cannot be had by wrapping its fields.
//! [`Mirror`] instead owns the same public parts — `SchedCache`,
//! `SingleFlight`, a memo — and calls them in the order
//! `ServiceState::process` does, with the wire and queue stages the
//! server shell adds around it. A test holds the mirror's replies
//! byte-identical to `ServiceState::process`'s, so it cannot drift from
//! the program unnoticed.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use ipsc_sched::commcache::{InstanceKey, SchedCache};
use ipsc_sched::commrt::{BackendKind, BackendReport};
use ipsc_sched::commsched::{registry, Schedule};
use ipsc_sched::schedd::{
    read_frame, write_frame, BoundedQueue, ErrorReply, Request, Response, ServiceConfig,
    ServiceError, ServiceState, SingleFlight, SubmitDeltaRequest, SubmitReply, SubmitRequest,
};

use crate::spec::ENTRIES;
use crate::trace::Tracer;

/// Span names of `Scheduler::schedule`, one per registry entry, in
/// [`ENTRIES`] order.
pub const COMPILE_SPANS: [&str; 8] = [
    "commsched.compile.AC",
    "commsched.compile.LP",
    "commsched.compile.RS_N",
    "commsched.compile.RS_NL",
    "commsched.compile.GREEDY",
    "commsched.compile.RS_N_DET",
    "commsched.compile.RS_NL_NOPAIR",
    "commsched.compile.RS_NL_DET",
];

/// The span name of compiling with `entry`.
pub fn compile_span(entry: &str) -> &'static str {
    ENTRIES
        .iter()
        .position(|e| *e == entry)
        .map_or("commsched.compile.other", |i| COMPILE_SPANS[i])
}

/// The span name of pricing with `backend`.
pub fn estimate_span(backend: BackendKind) -> &'static str {
    match backend {
        BackendKind::Des => "commrt.estimate.des",
        BackendKind::Analytic => "commrt.estimate.analytic",
    }
}

/// What the mirror counted, named as `DaemonStats` names them.
#[derive(Clone, Copy, Debug, Default)]
pub struct MirrorCounts {
    pub compiles: u64,
    pub estimate_hits: u64,
    pub estimate_misses: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub ops: u64,
}

/// The daemon's pipeline, rebuilt from its public parts.
pub struct Mirror {
    config: ServiceConfig,
    /// Only for `ServiceState::admit`, which is public and pure.
    admission: ServiceState,
    cache: SchedCache,
    flight: SingleFlight<u128, Arc<Schedule>, ServiceError>,
    estimates: HashMap<(u128, u8, u8), Arc<BackendReport>>,
    queue: BoundedQueue<SubmitRequest>,
    pub counts: MirrorCounts,
}

impl Mirror {
    pub fn new(config: &ServiceConfig) -> Mirror {
        Mirror {
            admission: ServiceState::new(config),
            cache: SchedCache::new(config.cache.clone()),
            flight: SingleFlight::new(),
            estimates: HashMap::new(),
            queue: BoundedQueue::new(config.queue_capacity),
            counts: MirrorCounts::default(),
            config: config.clone(),
        }
    }

    pub fn cache(&self) -> &SchedCache {
        &self.cache
    }

    /// `ServiceState::resolve_delta`, stage by stage.
    fn resolve_delta(
        &self,
        req: &SubmitDeltaRequest,
        tracer: &Tracer,
    ) -> Result<SubmitRequest, ServiceError> {
        let inc = self.cache.incremental().ok_or_else(|| {
            ServiceError::UnknownBase("incremental compilation is disabled".into())
        })?;
        let base = inc
            .base_matrix(req.base)
            .ok_or_else(|| ServiceError::UnknownBase(req.base.to_hex()))?;
        let matrix = {
            let _span = tracer.enter("commsched.delta.apply");
            req.delta.apply(&base)
        }
        .map_err(|e| ServiceError::BadRequest(format!("delta does not apply to base: {e}")))?;
        Ok(SubmitRequest {
            request_id: req.request_id,
            want_schedule: req.want_schedule,
            topology: req.topology.clone(),
            scheduler: req.scheduler.clone(),
            scheme: req.scheme,
            backend: req.backend,
            seed: req.seed,
            matrix,
            cost_model: req.cost_model,
        })
    }

    /// `ServiceState::process`, stage by stage.
    pub fn process(
        &mut self,
        req: &SubmitRequest,
        tracer: &Tracer,
    ) -> Result<SubmitReply, ServiceError> {
        let entry = registry::find(&req.scheduler)
            .ok_or_else(|| ServiceError::UnknownScheduler(req.scheduler.clone()))?;
        if req.matrix.n() != req.topology.num_nodes() {
            return Err(ServiceError::BadRequest(
                "matrix and topology sizes differ".into(),
            ));
        }
        let topo = {
            let _span = tracer.enter("topo.build");
            req.topology.build()
        };
        if !entry.supports_topology(topo.as_ref()) {
            return Err(ServiceError::UnsupportedTopology {
                scheduler: entry.name().to_string(),
                topology: req.topology.to_string(),
            });
        }
        let (key, fp) = {
            let _span = tracer.enter("commcache.fingerprint");
            let key = InstanceKey::compute(&req.matrix, topo.as_ref());
            (key, key.schedule_key(entry.name(), req.seed))
        };

        let incremental = self.cache.incremental();
        let compiled_here = Cell::new(false);
        let (schedule, led) = {
            let _span = tracer.enter("schedd.dedup.run");
            self.flight.run(fp.0, || {
                let _span = tracer.enter("commcache.lookup");
                Ok(self.cache.get_or_compute_on(fp, topo.as_ref(), || {
                    compiled_here.set(true);
                    let patched = incremental.and_then(|inc| {
                        let _span = tracer.enter("commcache.incremental.patch");
                        inc.get_patched(entry, key, &req.matrix, topo.as_ref(), req.seed)
                    });
                    match patched {
                        Some(schedule) => {
                            Arc::try_unwrap(schedule).unwrap_or_else(|arc| (*arc).clone())
                        }
                        None => {
                            let _span = tracer.enter(compile_span(entry.name()));
                            entry.schedule(&req.matrix, topo.as_ref(), req.seed)
                        }
                    }
                }))
            })
        };
        let schedule = schedule?;
        if let Some(inc) = incremental {
            let _span = tracer.enter("commcache.incremental.register");
            inc.register(
                key,
                &req.matrix,
                topo.as_ref(),
                entry.name(),
                req.seed,
                Arc::clone(&schedule),
            );
        }
        let freshly_compiled = led && compiled_here.get();
        if freshly_compiled {
            self.counts.compiles += 1;
        }

        let scheme = req.scheme.resolve(entry);
        let est_fp = fp.with_cost_model(&req.cost_model.to_string());
        let estimate_key = (est_fp.0, scheme as u8, req.backend as u8);
        let estimate = {
            let _span = tracer.enter("schedd.service.estimate_memo");
            match self.estimates.get(&estimate_key) {
                Some(report) => {
                    self.counts.estimate_hits += 1;
                    Arc::clone(report)
                }
                None => {
                    self.counts.estimate_misses += 1;
                    let report = {
                        let _span = tracer.enter(estimate_span(req.backend));
                        req.backend.backend().estimate_costed(
                            self.admission.params(),
                            &req.cost_model,
                            topo.as_ref(),
                            &req.matrix,
                            &schedule,
                            scheme,
                        )
                    }
                    .map_err(|e| ServiceError::Sim(e.to_string()))?;
                    let report = Arc::new(report);
                    if self.estimates.len() >= self.config.estimate_cache_capacity.max(1) {
                        self.estimates.clear();
                    }
                    self.estimates.insert(estimate_key, Arc::clone(&report));
                    report
                }
            }
        };

        Ok(SubmitReply {
            request_id: req.request_id,
            fingerprint: fp,
            freshly_compiled,
            estimate: (*estimate).clone(),
            schedule: req.want_schedule.then(|| Arc::clone(&schedule)),
        })
    }

    /// Everything the daemon does between a request frame arriving and
    /// the response frame leaving, without the socket and the thread hop:
    /// decode → (resolve delta) → admit → queue → process → encode.
    /// Returns the encoded response body.
    pub fn serve(&mut self, body: &[u8], tracer: &Tracer) -> Vec<u8> {
        let decoded = {
            let _span = tracer.enter("schedd.protocol.decode_request");
            Request::decode_with(body, &self.config.limits)
        };
        let outcome = match decoded {
            Ok(Request::Submit(req)) => self.admit_and_process(req, tracer),
            Ok(Request::SubmitDelta(delta)) => {
                let id = delta.request_id;
                let resolved = {
                    let _span = tracer.enter("schedd.service.resolve_delta");
                    self.resolve_delta(&delta, tracer)
                };
                match resolved {
                    Ok(req) => self.admit_and_process(req, tracer),
                    Err(e) => Err((id, e)),
                }
            }
            Ok(other) => Err((
                other_id(&other),
                ServiceError::BadRequest("the mirror serves submits only".into()),
            )),
            Err(e) => Err((0, ServiceError::BadRequest(e.to_string()))),
        };
        let response = match outcome {
            Ok(reply) => Response::Schedule(reply),
            Err((request_id, e)) => Response::Error(ErrorReply {
                request_id,
                code: e.code(),
                detail: e.to_string(),
            }),
        };
        let _span = tracer.enter("schedd.protocol.encode_response");
        response.encode()
    }

    fn admit_and_process(
        &mut self,
        req: SubmitRequest,
        tracer: &Tracer,
    ) -> Result<SubmitReply, (u64, ServiceError)> {
        let id = req.request_id;
        let admitted = {
            let _span = tracer.enter("schedd.service.admit");
            self.admission.admit(&req)
        };
        admitted.map_err(|e| (id, e))?;
        let req = {
            let _span = tracer.enter("schedd.queue.push_pop");
            self.queue
                .try_push(req)
                .map_err(|(_, e)| (id, ServiceError::BadRequest(e.to_string())))?;
            self.queue
                .pop()
                .expect("the queue holds the job just pushed")
        };
        let _span = tracer.enter("schedd.service.process");
        self.process(&req, tracer).map_err(|e| (id, e))
    }

    /// One whole op as a client sees it, minus the socket: encode the
    /// request, frame it both ways, serve it, decode the response.
    pub fn round_trip(&mut self, request: &Request, tracer: &Tracer) -> Result<Response, String> {
        let _op = tracer.enter("op");
        let body = {
            let _span = tracer.enter("schedd.protocol.encode_request");
            request.encode()
        };
        self.counts.request_bytes += body.len() as u64;
        let body = frame_round_trip(&body, tracer)?;
        let response = self.serve(&body, tracer);
        self.counts.response_bytes += response.len() as u64;
        self.counts.ops += 1;
        let response = frame_round_trip(&response, tracer)?;
        let _span = tracer.enter("schedd.protocol.decode_response");
        Response::decode(&response).map_err(|e| e.to_string())
    }
}

fn other_id(request: &Request) -> u64 {
    match request {
        Request::Submit(r) => r.request_id,
        Request::SubmitDelta(r) => r.request_id,
        Request::Stats { request_id } | Request::Shutdown { request_id } => *request_id,
    }
}

/// `write_frame` then `read_frame` on a memory buffer: checksum and copy
/// costs of one direction of the wire.
pub fn frame_round_trip(body: &[u8], tracer: &Tracer) -> Result<Vec<u8>, String> {
    let _span = tracer.enter("schedd.protocol.frame");
    let mut wire = Vec::with_capacity(body.len() + 16);
    write_frame(&mut wire, body).map_err(|e| e.to_string())?;
    read_frame(&mut wire.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty frame buffer".to_string())
}
