//! `grid_paper`: the paper's Table 1 grid on `commrt::ExperimentGrid`,
//! DES backend, no daemon and no cache. An op is one (cell, sample)
//! simulation.

use std::sync::Arc;
use std::time::Instant;

use ipsc_sched::commrt::grid::{CellSpec, ExecOptions};
use ipsc_sched::commrt::{self, ExperimentGrid, ExperimentRunner, GridResult, WorkloadPoint};
use ipsc_sched::commsched::{registry, validate_schedule};
use ipsc_sched::hypercube::{Hypercube, Topology};
use ipsc_sched::simnet;
use ipsc_sched::workloads::{Generator, SampleSet};

use crate::affinity::OneCpu;
use crate::mirror::compile_span;
use crate::ops::NODES;
use crate::trace::Tracer;
use crate::util::{mix, process_cpu_seconds, Fnv64, Slice};

const DENSITIES: [usize; 5] = [4, 8, 16, 32, 48];
const SIZES: [u32; 3] = [256, 1024, 131_072];

/// Samples per cell of one phase-2 grid execution: 150 ops, about a
/// second on two cores, so a run holds enough executions for a median.
const PHASE2_SAMPLES: usize = 2;

/// The seeded grid. A *pass* is one sample of every cell; pass `p` of
/// seed `s` always names the same matrices, whether its cells run singly
/// (phase 1), through the executor (phase 2) or in the traced replay.
pub struct GridInputs {
    pub seed: u64,
    pub topo: Arc<dyn Topology>,
    pub runner: ExperimentRunner,
}

/// One (cell, sample) result: what Table 1 prints for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellOutcome {
    pub comm_ms: f64,
    pub phases: f64,
}

impl GridInputs {
    pub fn build(seed: u64) -> GridInputs {
        let mut runner = ExperimentRunner::ipsc860();
        runner.threads = 1;
        GridInputs {
            seed,
            topo: Arc::new(Hypercube::new(6)),
            runner,
        }
    }

    /// The grid of pass `pass` with `samples` samples per cell.
    pub fn grid(&self, pass: u64, samples: usize) -> ExperimentGrid {
        let mut grid = ExperimentGrid::new()
            .with_runner(self.runner.clone())
            .shared_topology("cube:d=6", Arc::clone(&self.topo))
            .schedulers(registry::primary())
            .samples(samples);
        for (p, &d) in DENSITIES.iter().enumerate() {
            for (q, &bytes) in SIZES.iter().enumerate() {
                let point = (p * SIZES.len() + q) as u64;
                // Kept small so `base * 1000 + k` (SampleSet) cannot wrap.
                let base = mix(self.seed ^ (pass << 20) ^ point) >> 16;
                grid = grid.point(WorkloadPoint::shared(
                    Generator::dregular(NODES, d, bytes),
                    d,
                    bytes,
                    base,
                ));
            }
        }
        grid
    }

    /// Run one cell's first sample singly, the way phase 1 does:
    /// `run_scheduler_cell` over a one-sample set on one thread.
    pub fn run_cell(&self, spec: &CellSpec) -> Result<CellOutcome, String> {
        let generator = spec.point.generator();
        let cell = self
            .runner
            .run_scheduler_cell(
                spec.topology.as_ref(),
                &SampleSet::new(spec.base_seed, 1),
                &|seed| generator.generate(seed),
                spec.column.scheduler(),
                spec.column.scheme(),
            )
            .map_err(|e| format!("cell {:?}: {e}", spec.id))?;
        Ok(CellOutcome {
            comm_ms: cell.comm_ms,
            phases: cell.phases,
        })
    }

    /// The same cell through each layer's public function, in the order
    /// `ExperimentRunner` calls them, one span per call.
    pub fn mirror_cell(&self, spec: &CellSpec, tracer: &Tracer) -> Result<CellOutcome, String> {
        let _op = tracer.enter("op");
        let seed = spec.sample_seed(0);
        let entry = spec.column.scheduler();
        let topo = spec.topology.as_ref();
        let com = {
            let _span = tracer.enter("workloads.generate");
            spec.point.generator().generate(seed)
        };
        let schedule = {
            let _span = tracer.enter(compile_span(entry.name()));
            entry.schedule(&com, topo, seed)
        };
        let programs = {
            let _span = tracer.enter("commrt.compile_programs");
            commrt::compile(&com, &schedule, spec.column.scheme())
        };
        let report = {
            let _span = tracer.enter("simnet.des.simulate");
            simnet::simulate(topo, &self.runner.params, programs)
        }
        .map_err(|e| format!("cell {:?}: {e}", spec.id))?;
        // The runner also prices the schedule under the i860 cost model.
        std::hint::black_box(self.runner.cost_model.schedule_ms(&schedule));
        Ok(CellOutcome {
            comm_ms: report.makespan_ms(),
            phases: schedule.num_phases() as f64,
        })
    }

    /// Output check of one cell: its schedule validates against its matrix.
    pub fn validate_cell(&self, spec: &CellSpec) -> Result<(), String> {
        let seed = spec.sample_seed(0);
        let com = spec.point.generator().generate(seed);
        let schedule = spec
            .column
            .scheduler()
            .schedule(&com, spec.topology.as_ref(), seed);
        validate_schedule(&com, &schedule).map_err(|e| format!("cell {:?}: {e}", spec.id))
    }
}

/// FNV digest over `(CellId, makespan, phases)` of every cell, in cell
/// order. Printed, not pinned: a correctness PR may move it, and then the
/// reviewer sees that it moved.
pub fn digest(cells: impl Iterator<Item = (CellSpecId, CellOutcome)>) -> u64 {
    let mut h = Fnv64::default();
    for ((col, point, topo), outcome) in cells {
        for v in [col, point, topo] {
            h.write_u64(v as u64);
        }
        h.write_u64(outcome.comm_ms.to_bits());
        h.write_u64(outcome.phases.to_bits());
    }
    h.finish()
}

/// `(col, point, topo)` of a cell.
pub type CellSpecId = (usize, usize, usize);

pub fn spec_id(spec: &CellSpec) -> CellSpecId {
    (spec.id.col, spec.id.point, spec.id.topo)
}

pub fn result_digest(result: &GridResult) -> u64 {
    digest(result.cells().map(|c| {
        (
            (c.id.col, c.id.point, c.id.topo),
            CellOutcome {
                comm_ms: c.result.comm_ms,
                phases: c.result.phases,
            },
        )
    }))
}

/// Phase 1 result: per-op latencies in µs, one slice per pass, every
/// pass in cell order.
pub struct LatencyPhase {
    pub passes: Vec<Vec<f64>>,
    /// Whether the phase ran on one CPU.
    pub pinned: bool,
    pub ops: u64,
    /// Digest of each pass, run singly on one thread.
    pub digests: Vec<u64>,
}

/// Phase 1 of round `round`: every (cell, sample) singly, one thread on
/// one CPU (as on the serve path, see [`OneCpu`]), in whole passes from
/// pass `first_pass` on until `seconds` are up.
pub fn latency_phase(
    inputs: &GridInputs,
    seconds: f64,
    first_pass: u64,
    round: usize,
) -> Result<LatencyPhase, String> {
    let pinned = OneCpu::pin_nth(round);
    let start = Instant::now();
    let mut phase = LatencyPhase {
        passes: Vec::new(),
        pinned: pinned.is_some(),
        ops: 0,
        digests: Vec::new(),
    };
    while phase.passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let specs = inputs.grid(first_pass + phase.passes.len() as u64, 1).compile();
        let mut latencies = Vec::with_capacity(specs.len());
        let mut outcomes = Vec::with_capacity(specs.len());
        for spec in &specs {
            let begun = Instant::now();
            let outcome = inputs.run_cell(spec)?;
            latencies.push(begun.elapsed().as_secs_f64() * 1e6);
            outcomes.push((spec_id(spec), outcome));
        }
        phase.ops += latencies.len() as u64;
        phase.digests.push(digest(outcomes.into_iter()));
        phase.passes.push(latencies);
    }
    Ok(phase)
}

/// Phase 2 result.
pub struct ThroughputPhase {
    /// One slice per grid execution.
    pub slices: Vec<Slice>,
    pub ops: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub threads: usize,
}

/// First pass of phase 2: far from phase 1's, so no matrix is simulated
/// twice.
pub const PHASE2_FIRST_PASS: u64 = 1_000;

/// Phase 2: `ExperimentGrid::execute_opts` on `threads` workers, repeated
/// on fresh passes from `first_pass` on until `seconds` are up.
pub fn throughput_phase(
    inputs: &GridInputs,
    seconds: f64,
    threads: usize,
    first_pass: u64,
) -> Result<ThroughputPhase, String> {
    let opts = ExecOptions {
        threads: Some(threads),
        ..ExecOptions::default()
    };
    let cpu_before = process_cpu_seconds();
    let start = Instant::now();
    let mut slices = Vec::new();
    while slices.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let grid = inputs.grid(first_pass + slices.len() as u64, PHASE2_SAMPLES);
        let (begun, cpu_begun) = (Instant::now(), process_cpu_seconds());
        let result = grid.execute_opts(opts).map_err(|e| e.to_string())?;
        slices.push(Slice {
            ops: result.stats().tasks as u64,
            wall_s: begun.elapsed().as_secs_f64(),
            cpu_s: process_cpu_seconds() - cpu_begun,
        });
    }
    Ok(ThroughputPhase {
        ops: slices.iter().map(|s| s.ops).sum(),
        slices,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: process_cpu_seconds() - cpu_before,
        threads,
    })
}

/// Output checks: every cell of pass 0 validates, and its digest is the
/// same run singly, through the executor on one thread, and on `threads`.
pub fn output_checks(
    inputs: &GridInputs,
    pass0_digest: u64,
    threads: usize,
) -> Result<Vec<String>, String> {
    let grid = inputs.grid(0, 1);
    let mut broken = Vec::new();
    for spec in grid.compile() {
        if let Err(e) = inputs.validate_cell(&spec) {
            broken.push(e);
        }
    }
    for workers in [1, threads] {
        let opts = ExecOptions {
            threads: Some(workers),
            ..ExecOptions::default()
        };
        let result = grid.execute_opts(opts).map_err(|e| e.to_string())?;
        let got = result_digest(&result);
        if got != pass0_digest {
            broken.push(format!(
                "digest {got:016x} on {workers} executor threads differs from {pass0_digest:016x} run singly"
            ));
        }
    }
    Ok(broken)
}
