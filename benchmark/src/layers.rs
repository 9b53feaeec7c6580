//! The per-layer battery: every layer's public function timed on the
//! workload's own inputs, outside the replayed pipeline.
//!
//! The traced replay only reaches the stages its workload exercises —
//! `serve_hot` never compiles, nothing in memory touches the artifact
//! store. The battery calls each remaining function directly on the first
//! few cases of the workload, so every workload reports every layer
//! metric and a layer's cost can be compared across input shapes. Where
//! the replay did reach a stage, its in-situ spans win (see `run.rs`).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ipsc_sched::commcache::{
    decode_artifact, encode_artifact, ArtifactStore, CacheConfig, IncrementalCache,
    IncrementalConfig, InstanceKey, SchedCache,
};
use ipsc_sched::commrt::grid::ExecOptions;
use ipsc_sched::commrt::{
    self, BackendKind, DesBackend, ExperimentGrid, SimBackend, WorkloadPoint,
};
use ipsc_sched::commsched::{registry, validate_schedule, CommMatrix, Scheduler};
use ipsc_sched::hypercube::Hypercube;
use ipsc_sched::schedd::{
    BoundedQueue, LinkCostModel, Request, Response, SchemeChoice, ServiceConfig, ServiceState,
    SubmitDeltaRequest, SubmitReply, SubmitRequest, TopologySpec,
};
use ipsc_sched::simnet::{self, ExecMode, LoadModel, MachineParams, TransferSpec};
use ipsc_sched::workloads::Generator;

use crate::mirror::{compile_span, estimate_span, frame_round_trip};
use crate::ops::drift;
use crate::trace::Tracer;
use crate::util::SplitMix64;

/// One input of the workload, with how it was made.
pub struct Case {
    pub generator: Generator,
    pub gen_seed: u64,
    pub matrix: CommMatrix,
    pub topology: TopologySpec,
    pub entry: &'static dyn Scheduler,
    pub seed: u64,
}

/// Counts and ratios the battery measures beside its spans.
#[derive(Default)]
pub struct BatteryCounts {
    /// Exact mean phase count per registry entry.
    pub phases: BTreeMap<&'static str, f64>,
    pub des_events: f64,
    pub des_peak_transfers_live: f64,
    pub des_state_bytes: f64,
    pub des_ns_per_event: f64,
    pub des_parallel_speedup: f64,
    pub executor_efficiency: f64,
    pub request_bytes: f64,
    pub response_bytes: f64,
    /// Real `ServiceState` calls, µs per case.
    pub admit_us: Vec<f64>,
    pub process_us: Vec<f64>,
    pub resolve_delta_us: Vec<f64>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let begun = Instant::now();
    let out = f();
    (out, begun.elapsed().as_secs_f64() * 1e6)
}

/// Run the battery over `cases`, recording spans into `tracer` under op
/// ids from `first_op` up. `store_dir` holds the artifact-store files.
pub fn run(
    cases: &[Case],
    params: &MachineParams,
    store_dir: &Path,
    threads: usize,
    tracer: &Tracer,
    first_op: u32,
) -> Result<BatteryCounts, String> {
    let mut counts = BatteryCounts::default();
    let mut phase_sums: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    let mut des_ns = 0.0;
    let store = ArtifactStore::new(store_dir);
    let queue: BoundedQueue<SubmitRequest> = BoundedQueue::new(16);
    let mut rng = SplitMix64::new(0xBA77E27);
    let analytic = BackendKind::Analytic.backend();
    let des = BackendKind::Des.backend();

    for (i, case) in cases.iter().enumerate() {
        tracer.set_op(first_op + i as u32);
        let _case = tracer.enter("battery");
        let matrix = &case.matrix;
        let entry = case.entry;
        let scheme = SchemeChoice::Default.resolve(entry);

        {
            let _span = tracer.enter("workloads.generate");
            std::hint::black_box(case.generator.generate(case.gen_seed));
        }
        let topo = {
            let _span = tracer.enter("topo.build");
            case.topology.build()
        };
        let topo = topo.as_ref();
        {
            let _span = tracer.enter("topo.route");
            for (src, dst, _) in matrix.messages() {
                std::hint::black_box(topo.route(src, dst));
            }
        }
        let (key, fp) = {
            let _span = tracer.enter("commcache.fingerprint");
            let key = InstanceKey::compute(matrix, topo);
            (key, key.schedule_key(entry.name(), case.seed))
        };

        // commsched: every registry entry that accepts the fabric.
        let mut schedule = None;
        for &candidate in registry::all() {
            if !candidate.supports_topology(topo) {
                continue;
            }
            let compiled = {
                let _span = tracer.enter(compile_span(candidate.name()));
                candidate.schedule(matrix, topo, case.seed)
            };
            let sums = phase_sums
                .entry(compile_span(candidate.name()))
                .or_default();
            sums.0 += compiled.num_phases() as f64;
            sums.1 += 1.0;
            if candidate.name() == entry.name() {
                schedule = Some(compiled);
            }
        }
        let schedule = Arc::new(schedule.ok_or("the case's entry declines its own fabric")?);
        {
            let _span = tracer.enter("commsched.validate");
            validate_schedule(matrix, &schedule).map_err(|e| e.to_string())?;
        }

        // commcache: LRU insert path, artifact codec, store.
        {
            let cache = SchedCache::new(CacheConfig::in_memory());
            let _span = tracer.enter("commcache.lookup");
            cache.get_or_compute_on(fp, topo, || {
                let _span = tracer.enter("commcache.lookup.compile");
                (*schedule).clone()
            });
        }
        let artifact = {
            let _span = tracer.enter("commcache.artifact.encode");
            encode_artifact(fp, &schedule)
        };
        {
            let _span = tracer.enter("commcache.artifact.decode");
            decode_artifact(&artifact).map_err(|e| e.to_string())?;
        }
        {
            let _span = tracer.enter("commcache.store.write");
            store.store(fp, &schedule).map_err(|e| e.to_string())?;
        }
        {
            let _span = tracer.enter("commcache.store.read");
            store
                .load(fp)
                .map_err(|e| e.to_string())?
                .ok_or("stored artifact not found")?;
        }

        // commrt and simnet: both backends, program compile, raw engines.
        let estimate = {
            let _span = tracer.enter(estimate_span(BackendKind::Analytic));
            analytic.estimate_costed(
                params,
                &LinkCostModel::Uniform,
                topo,
                matrix,
                &schedule,
                scheme,
            )
        }
        .map_err(|e| e.to_string())?;
        let exact = {
            let _span = tracer.enter(estimate_span(BackendKind::Des));
            des.estimate_costed(
                params,
                &LinkCostModel::Uniform,
                topo,
                matrix,
                &schedule,
                scheme,
            )
        };
        exact.map_err(|e| e.to_string())?;
        let programs = {
            let _span = tracer.enter("commrt.compile_programs");
            commrt::compile(matrix, &schedule, scheme)
        };
        let (report, simulate_us) = timed(|| {
            let _span = tracer.enter("simnet.des.simulate");
            simnet::simulate(topo, params, programs)
        });
        let report = report.map_err(|e| e.to_string())?;
        des_ns += simulate_us * 1e3;
        counts.des_events += report.stats.events as f64;
        counts.des_peak_transfers_live = counts
            .des_peak_transfers_live
            .max(report.stats.peak_transfers_live as f64);
        counts.des_state_bytes = counts.des_state_bytes.max(report.stats.state_bytes as f64);
        {
            let _span = tracer.enter("simnet.analytic.price");
            let mut pool = LoadModel::new(topo, params.ports);
            for (src, dst, bytes) in matrix.messages() {
                pool.add(
                    topo,
                    TransferSpec {
                        src,
                        dst,
                        busy_ns: params.transfer_ns(bytes, topo.hops(src, dst)),
                        lead_ns: 0,
                        fused: false,
                    },
                );
            }
            std::hint::black_box(pool.makespan_ns());
        }

        // schedd: wire codec, framing, queue, and the real service calls
        // on a fresh (cold) state.
        let request = SubmitRequest {
            request_id: i as u64 + 1,
            want_schedule: true,
            topology: case.topology.clone(),
            scheduler: entry.name().to_string(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Analytic,
            seed: case.seed,
            matrix: matrix.clone(),
            cost_model: LinkCostModel::Uniform,
        };
        let wire_request = Request::Submit(request.clone());
        let body = {
            let _span = tracer.enter("schedd.protocol.encode_request");
            wire_request.encode()
        };
        counts.request_bytes += body.len() as f64;
        let body = frame_round_trip(&body, tracer)?;
        {
            let _span = tracer.enter("schedd.protocol.decode_request");
            Request::decode(&body).map_err(|e| e.to_string())?;
        }
        let request = {
            let _span = tracer.enter("schedd.queue.push_pop");
            queue.try_push(request).map_err(|(_, e)| e.to_string())?;
            queue.pop().expect("the queue holds the job just pushed")
        };
        let response = Response::Schedule(SubmitReply {
            request_id: request.request_id,
            fingerprint: fp,
            freshly_compiled: true,
            estimate,
            schedule: Some(Arc::clone(&schedule)),
        });
        let body = {
            let _span = tracer.enter("schedd.protocol.encode_response");
            response.encode()
        };
        counts.response_bytes += body.len() as f64;
        let body = frame_round_trip(&body, tracer)?;
        {
            let _span = tracer.enter("schedd.protocol.decode_response");
            Response::decode(&body).map_err(|e| e.to_string())?;
        }
        let config = ServiceConfig {
            cache: CacheConfig::in_memory().incremental_default(),
            ..ServiceConfig::default()
        };
        let state = ServiceState::new(&config);
        let (admitted, admit_us) = timed(|| state.admit(&request));
        admitted.map_err(|e| e.to_string())?;
        counts.admit_us.push(admit_us);
        let (processed, process_us) = timed(|| state.process(&request));
        processed.map_err(|e| e.to_string())?;
        counts.process_us.push(process_us);

        // The delta path: one drifted variant of the case's matrix.
        let (delta, target) = drift(matrix, &mut rng);
        {
            let _span = tracer.enter("commsched.delta.apply");
            delta.apply(matrix).map_err(|e| e.to_string())?;
        }
        let incremental = IncrementalCache::new(IncrementalConfig::default());
        incremental.register(
            key,
            matrix,
            topo,
            entry.name(),
            case.seed,
            Arc::clone(&schedule),
        );
        let target_key = InstanceKey::compute(&target, topo);
        let patched = {
            let _span = tracer.enter("commcache.incremental.patch");
            incremental.get_patched(entry, target_key, &target, topo, case.seed)
        };
        let patched = patched.unwrap_or_else(|| Arc::new(entry.schedule(&target, topo, case.seed)));
        {
            let _span = tracer.enter("commcache.incremental.register");
            incremental.register(target_key, &target, topo, entry.name(), case.seed, patched);
        }
        let delta_request = SubmitDeltaRequest {
            request_id: request.request_id,
            want_schedule: true,
            topology: case.topology.clone(),
            scheduler: entry.name().to_string(),
            scheme: SchemeChoice::Default,
            backend: BackendKind::Analytic,
            seed: case.seed,
            base: key,
            delta,
            cost_model: LinkCostModel::Uniform,
        };
        let (resolved, resolve_us) = timed(|| state.resolve_delta(&delta_request));
        resolved.map_err(|e| e.to_string())?;
        counts.resolve_delta_us.push(resolve_us);
    }

    let n = cases.len().max(1) as f64;
    counts.des_ns_per_event = des_ns / counts.des_events.max(1.0);
    counts.des_events /= n;
    counts.request_bytes /= n;
    counts.response_bytes /= n;
    for (span, (sum, count)) in phase_sums {
        counts.phases.insert(span, sum / count);
    }
    counts.executor_efficiency = executor_efficiency(cases, threads)?;
    counts.des_parallel_speedup = des_parallel_speedup(params, threads)?;
    Ok(counts)
}

/// Σ single-thread task time ÷ (threads × wall): a grid of the cases'
/// matrices × the primary entries on the DES backend, executed on one
/// worker and on `threads`.
fn executor_efficiency(cases: &[Case], threads: usize) -> Result<f64, String> {
    let Some(first) = cases.first() else {
        return Ok(0.0);
    };
    let topo: Arc<dyn ipsc_sched::hypercube::Topology> = Arc::from(first.topology.build());
    let mut grid = ExperimentGrid::new()
        .shared_topology(first.topology.to_string(), Arc::clone(&topo))
        .schedulers(registry::primary().filter(|e| e.supports_topology(topo.as_ref())))
        .samples(1);
    for (i, case) in cases.iter().enumerate() {
        grid = grid.point(WorkloadPoint::shared(
            Generator::fixed(format!("case{i}"), case.matrix.clone()),
            case.matrix.density(),
            0,
            i as u64,
        ));
    }
    let wall = |workers: usize| -> Result<f64, String> {
        let opts = ExecOptions {
            threads: Some(workers),
            ..ExecOptions::default()
        };
        let (result, us) = timed(|| grid.execute_opts(opts));
        result.map_err(|e| e.to_string())?;
        Ok(us)
    };
    let single = wall(1)?;
    let parallel = wall(threads)?;
    Ok(single / (threads as f64 * parallel))
}

/// One dense `cube:d=10` case priced by the DES backend, `Sequential` over
/// `Parallel { threads }`.
fn des_parallel_speedup(params: &MachineParams, threads: usize) -> Result<f64, String> {
    let cube = Hypercube::new(10);
    let matrix = Generator::dregular(1024, 16, 1024).generate(10);
    let entry = registry::find("AC").expect("AC is registered");
    let schedule = entry.schedule(&matrix, &cube, 10);
    let scheme = SchemeChoice::Default.resolve(entry);
    let price = |exec: ExecMode| -> Result<f64, String> {
        let (report, us) = timed(|| {
            DesBackend::with_exec(exec).estimate(params, &cube, &matrix, &schedule, scheme)
        });
        report.map_err(|e| e.to_string())?;
        Ok(us)
    };
    let sequential = price(ExecMode::Sequential)?;
    let parallel = price(ExecMode::Parallel { threads })?;
    Ok(sequential / parallel)
}
