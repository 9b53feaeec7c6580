use commcache::{CacheConfig, SchedCache};
use commsched::{CommMatrix, I860CostModel, Schedule, Scheduler};
use hypercube::Topology;
use simnet::{LinkCostModel, MachineParams, SimError};
use std::sync::Arc;
use workloads::SampleSet;

use crate::backend::{check_shapes, AnalyticBackend, BackendKind, SimBackend};
use crate::grid::executor;
use crate::{compile, Scheme};

/// Aggregated measurements of one experiment cell (one algorithm at one
/// `(density, message size)` point), averaged over a [`SampleSet`] exactly
/// the way the paper aggregates: per sample, the cost is the *maximum* time
/// spent by any processor; the cell reports the mean over samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellResult {
    /// Mean communication cost over samples (ms).
    pub comm_ms: f64,
    /// Fastest sample (ms).
    pub comm_ms_min: f64,
    /// Slowest sample (ms).
    pub comm_ms_max: f64,
    /// Mean number of communication phases (the paper's "# iters";
    /// 0 for AC).
    pub phases: f64,
    /// Mean simulated scheduling cost under the i860 model (ms).
    pub comp_ms: f64,
    /// Mean reciprocal pairs fused into exchanges per schedule.
    pub exchange_pairs: f64,
    /// Samples aggregated.
    pub samples: usize,
}

impl CellResult {
    /// Aggregate per-sample outcomes exactly the way the paper aggregates
    /// (mean over samples, min/max of the per-sample maxima). Every cell
    /// producer — [`ExperimentRunner::run_cell`] and the grid executor —
    /// funnels through this one function so their numbers are
    /// bit-identical. `None` for an empty outcome list.
    pub(crate) fn aggregate(outcomes: &[SampleOutcome]) -> Option<CellResult> {
        if outcomes.is_empty() {
            return None;
        }
        let mut comm_sum = 0.0;
        let mut comm_min = f64::INFINITY;
        let mut comm_max = 0.0f64;
        let mut phase_sum = 0.0;
        let mut comp_sum = 0.0;
        let mut pair_sum = 0.0;
        for o in outcomes {
            comm_sum += o.comm_ms;
            comm_min = comm_min.min(o.comm_ms);
            comm_max = comm_max.max(o.comm_ms);
            phase_sum += o.phases as f64;
            comp_sum += o.comp_ms;
            pair_sum += o.exchange_pairs as f64;
        }
        let kf = outcomes.len() as f64;
        Some(CellResult {
            comm_ms: comm_sum / kf,
            comm_ms_min: comm_min,
            comm_ms_max: comm_max,
            phases: phase_sum / kf,
            comp_ms: comp_sum / kf,
            exchange_pairs: pair_sum / kf,
            samples: outcomes.len(),
        })
    }
}

/// Runs experiment cells sample-parallel across host threads.
///
/// The simulator is deterministic, so unlike the paper we do not repeat
/// each measurement `k` times — variance comes only from the sampled
/// matrices (and scheduler seeds), which is exactly what the sample mean
/// captures.
#[derive(Clone, Debug)]
pub struct ExperimentRunner {
    /// Machine model used for every simulation.
    pub params: MachineParams,
    /// Cost model converting scheduler op counts to i860 milliseconds.
    pub cost_model: I860CostModel,
    /// Per-link cost model pricing the fabric itself
    /// ([`simnet::LinkCostModel`]): `uniform` (the default) reproduces
    /// the historical numbers byte-for-byte; other presets add latency,
    /// throttle bandwidth, or take links down per directed link.
    pub link_costs: LinkCostModel,
    /// Simulation backend pricing every sample: the exact discrete-event
    /// engine (default) or the fast analytic model
    /// ([`crate::backend::BackendKind`]).
    pub backend: BackendKind,
    /// Worker threads (defaults to available parallelism).
    pub threads: usize,
    /// Opt-in schedule cache ([`ExperimentRunner::with_cache`]); `None`
    /// compiles every schedule from scratch. Clones share the cache.
    schedule_cache: Option<Arc<SchedCache>>,
}

impl ExperimentRunner {
    /// Runner with the paper's machine calibration, on the host's
    /// available parallelism.
    pub fn ipsc860() -> Self {
        ExperimentRunner {
            params: MachineParams::ipsc860(),
            cost_model: I860CostModel::default(),
            link_costs: LinkCostModel::Uniform,
            backend: BackendKind::Des,
            threads: std::thread::available_parallelism().map_or(4, usize::from),
            schedule_cache: None,
        }
    }

    /// Select the per-link cost model for every subsequent measurement.
    /// [`LinkCostModel::Uniform`] (the default) is byte-identical to the
    /// historical pricing; see [`LinkCostModel::parse`] for the preset
    /// grammar (`loggp:...`, `hetero:...`, `faulty:...`).
    pub fn with_link_costs(mut self, link_costs: LinkCostModel) -> Self {
        self.link_costs = link_costs;
        self
    }

    /// Select the simulation backend for every subsequent measurement.
    /// [`BackendKind::Des`] is exact; [`BackendKind::Analytic`] trades
    /// documented tolerance (see `tests/backend_conformance.rs`) for
    /// orders of magnitude more cells per second.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Attach a schedule cache built from `config`. Registry-driven paths
    /// ([`ExperimentRunner::run_scheduler_cell`], the grid executor) then
    /// serve repeated *(matrix, topology, scheduler, seed)* requests from
    /// the cache instead of recompiling. Caching changes scheduling
    /// *cost*, never *results* — schedules are deterministic functions of
    /// the fingerprinted inputs (tested in the grid suite).
    pub fn with_cache(self, config: CacheConfig) -> Self {
        self.with_shared_cache(Arc::new(SchedCache::new(config)))
    }

    /// Attach an existing (possibly shared) schedule cache — e.g. one
    /// cache warmed by `schedctl` and reused across several runners.
    pub fn with_shared_cache(mut self, cache: Arc<SchedCache>) -> Self {
        self.schedule_cache = Some(cache);
        self
    }

    /// The attached schedule cache, if any (its
    /// [`commcache::SchedCache::stats`] snapshot reports hit rates).
    pub fn schedule_cache(&self) -> Option<&SchedCache> {
        self.schedule_cache.as_deref()
    }

    /// Measure one cell: generate each sample with `gen(seed)`, schedule it
    /// with `sched(&com, seed)`, execute under `scheme`, and aggregate.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParams`] for an empty sample set or a schedule that
    /// does not span the matrix's nodes, otherwise the first [`SimError`]
    /// of any sample (by sample index).
    pub fn run_cell(
        &self,
        topo: &dyn Topology,
        set: &SampleSet,
        gen: &(dyn Fn(u64) -> CommMatrix + Sync),
        sched: &(dyn Fn(&CommMatrix, u64) -> Schedule + Sync),
        scheme: Scheme,
    ) -> Result<CellResult, SimError> {
        self.cell(set, |seed| {
            let com = gen(seed);
            self.price(topo, &com, &sched(&com, seed), scheme)
        })
    }

    /// [`ExperimentRunner::run_cell`] for a registry entry: the schedule
    /// closure is the entry's [`Scheduler::schedule`] over `topo`, served
    /// from the schedule cache when one is attached.
    ///
    /// This is how the repro binaries enumerate the whole registry without
    /// naming any algorithm.
    ///
    /// # Errors
    ///
    /// As [`ExperimentRunner::run_cell`].
    pub fn run_scheduler_cell(
        &self,
        topo: &dyn Topology,
        set: &SampleSet,
        gen: &(dyn Fn(u64) -> CommMatrix + Sync),
        entry: &dyn Scheduler,
        scheme: Scheme,
    ) -> Result<CellResult, SimError> {
        self.cell(set, |seed| {
            self.sample(topo, &gen(seed), seed, entry, scheme)
        })
    }

    /// Run `sample(seed)` for every seed of `set` on the grid's worker
    /// pool and aggregate the outcomes in sample order.
    fn cell(
        &self,
        set: &SampleSet,
        sample: impl Fn(u64) -> Result<SampleOutcome, SimError> + Sync,
    ) -> Result<CellResult, SimError> {
        let order: Vec<usize> = (0..set.len()).collect();
        let outcomes = executor::run_work_stealing(self.threads, &order, |k| sample(set.seed(k)))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        CellResult::aggregate(&outcomes)
            .ok_or_else(|| SimError::BadParams("cannot run a cell over an empty sample set".into()))
    }

    /// One sample: schedule `com` with `entry` — through the schedule
    /// cache when one is attached — and price the schedule.
    pub(crate) fn sample(
        &self,
        topo: &dyn Topology,
        com: &CommMatrix,
        seed: u64,
        entry: &dyn Scheduler,
        scheme: Scheme,
    ) -> Result<SampleOutcome, SimError> {
        let schedule = match &self.schedule_cache {
            Some(cache) => cache.get_or_schedule(entry, com, topo, seed),
            None => Arc::new(entry.schedule(com, topo, seed)),
        };
        self.price(topo, com, &schedule, scheme)
    }

    /// Price one scheduled sample on the runner's backend and link costs,
    /// and under the i860 cost model.
    ///
    /// [`BackendKind::Des`] compiles under `scheme` and runs the untraced
    /// event engine; [`BackendKind::Analytic`] skips program compilation.
    fn price(
        &self,
        topo: &dyn Topology,
        com: &CommMatrix,
        schedule: &Schedule,
        scheme: Scheme,
    ) -> Result<SampleOutcome, SimError> {
        check_shapes(topo, com, schedule)?;
        let (params, cost) = (&self.params, &self.link_costs);
        let comm_ms = match self.backend {
            BackendKind::Des => {
                let programs = compile(com, schedule, scheme);
                simnet::simulate_with(topo, params, cost, programs, None)?.makespan_ms()
            }
            BackendKind::Analytic => AnalyticBackend
                .estimate_costed(params, cost, topo, com, schedule, scheme)?
                .makespan_ms(),
        };
        Ok(SampleOutcome {
            comm_ms,
            phases: schedule.num_phases(),
            comp_ms: self.cost_model.schedule_ms(schedule),
            exchange_pairs: schedule.exchange_pairs(),
        })
    }
}

/// Per-sample measurement, aggregated by [`CellResult::aggregate`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct SampleOutcome {
    pub(crate) comm_ms: f64,
    pub(crate) phases: usize,
    pub(crate) comp_ms: f64,
    pub(crate) exchange_pairs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched::{rs_n, rs_nl};
    use hypercube::Hypercube;

    #[test]
    fn cell_aggregates_samples() {
        let cube = Hypercube::new(4);
        let runner = ExperimentRunner::ipsc860();
        let set = SampleSet::new(77, 8);
        let cell = runner
            .run_cell(
                &cube,
                &set,
                &|seed| workloads::random_dense(16, 3, 1024, seed),
                &|com, seed| rs_n(com, seed),
                Scheme::S2,
            )
            .unwrap();
        assert_eq!(cell.samples, 8);
        assert!(cell.comm_ms > 0.0);
        assert!(cell.comm_ms_min <= cell.comm_ms && cell.comm_ms <= cell.comm_ms_max);
        assert!(cell.phases >= 3.0);
        assert!(cell.comp_ms > 0.0);
    }

    #[test]
    fn scheduler_cell_matches_closure_cell() {
        // The registry-driven entry point must measure exactly what the
        // closure-driven one measures for the same algorithm and seeds.
        let cube = Hypercube::new(4);
        let runner = ExperimentRunner::ipsc860();
        let set = SampleSet::new(5, 4);
        let gen = |seed| workloads::random_dense(16, 3, 2048, seed);
        let entry = commsched::registry::find("RS_NL").unwrap();
        let via_registry = runner
            .run_scheduler_cell(
                &cube,
                &set,
                &gen,
                entry,
                crate::Scheme::for_scheduler(entry),
            )
            .unwrap();
        let via_closure = runner
            .run_cell(
                &cube,
                &set,
                &gen,
                &|com, seed| rs_nl(com, &Hypercube::new(4), seed),
                Scheme::S1,
            )
            .unwrap();
        assert_eq!(via_registry, via_closure);
    }

    #[test]
    fn every_registry_entry_runs_end_to_end() {
        // GREEDY and the ablation variants are first-class runtime citizens,
        // not just schedule factories.
        let cube = Hypercube::new(4);
        let runner = ExperimentRunner::ipsc860();
        let set = SampleSet::new(9, 2);
        let gen = |seed| workloads::random_dense(16, 3, 1024, seed);
        for &entry in commsched::registry::all() {
            let cell = runner
                .run_scheduler_cell(
                    &cube,
                    &set,
                    &gen,
                    entry,
                    crate::Scheme::for_scheduler(entry),
                )
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name()));
            assert!(cell.comm_ms > 0.0, "{}", entry.name());
        }
    }

    #[test]
    fn cached_scheduler_cells_match_uncached_bit_for_bit() {
        // Caching must change cost only: every registry entry's cell is
        // identical with and without the schedule cache, and re-running
        // the cached cell hits instead of recompiling.
        let cube = Hypercube::new(4);
        let plain = ExperimentRunner::ipsc860();
        let cached = ExperimentRunner::ipsc860().with_cache(commcache::CacheConfig::in_memory());
        let set = SampleSet::new(13, 3);
        let gen = |seed| workloads::random_dregular(16, 3, 1024, seed);
        for &entry in commsched::registry::all() {
            let scheme = crate::Scheme::for_scheduler(entry);
            let a = plain
                .run_scheduler_cell(&cube, &set, &gen, entry, scheme)
                .unwrap();
            let b = cached
                .run_scheduler_cell(&cube, &set, &gen, entry, scheme)
                .unwrap();
            assert_eq!(a, b, "{}", entry.name());
        }
        let stats = cached.schedule_cache().unwrap().stats();
        let entries = commsched::registry::all().len() as u64;
        assert_eq!(
            stats.misses,
            entries * 3,
            "each (entry, sample) compiled once"
        );
        // A second pass over the same cells is pure hits.
        for &entry in commsched::registry::all() {
            cached
                .run_scheduler_cell(
                    &cube,
                    &set,
                    &gen,
                    entry,
                    crate::Scheme::for_scheduler(entry),
                )
                .unwrap();
        }
        let stats = cached.schedule_cache().unwrap().stats();
        assert_eq!(stats.misses, entries * 3, "no recompilation");
        assert_eq!(stats.mem_hits, entries * 3);
    }

    #[test]
    fn incremental_runner_patches_drifting_cells() {
        // A grid over a drifting pattern: each cell perturbs the previous
        // matrix slightly. Under the incremental cache the later cells
        // are served by patching, and every measurement still comes from
        // a schedule that validates against its own matrix (the runner's
        // simulators would reject an invalid decomposition by producing
        // nonsense; we check the cache counters and determinism here).
        let cube = Hypercube::new(4);
        let runner = ExperimentRunner::ipsc860()
            .with_cache(commcache::CacheConfig::in_memory().incremental_default());
        let entry = commsched::registry::find("RS_NL").unwrap();
        let scheme = crate::Scheme::for_scheduler(entry);
        let set = SampleSet::new(29, 1);
        let mut base = workloads::random_dregular(16, 4, 1024, 3);
        let mut results = Vec::new();
        for step in 0..4usize {
            let com = base.clone();
            let r = runner
                .run_scheduler_cell(&cube, &set, &move |_seed| com.clone(), entry, scheme)
                .unwrap();
            results.push(r);
            let from = (step * 5) % 16;
            let old_dst = (0..16).find(|&d| base.get(from, d) > 0).unwrap();
            base.set(from, old_dst, 0);
            let new_dst = (0..16)
                .find(|&d| d != from && d != old_dst && base.get(from, d) == 0)
                .unwrap();
            base.set(from, new_dst, 1024);
        }
        let inc = runner
            .schedule_cache()
            .unwrap()
            .incremental_stats()
            .unwrap();
        assert_eq!(inc.patches, 3, "every drifted cell patched: {inc:?}");
        assert_eq!(inc.validation_rejections, 0);
        // Re-running the drifted grid from a fresh runner sharing the
        // cache reproduces the same results (patched schedules are cached
        // under the exact fingerprint like any compile).
        let shared = runner.clone();
        let com = base.clone();
        let r1 = runner
            .run_scheduler_cell(
                &cube,
                &set,
                &{
                    let com = com.clone();
                    move |_| com.clone()
                },
                entry,
                scheme,
            )
            .unwrap();
        let r2 = shared
            .run_scheduler_cell(&cube, &set, &move |_| com.clone(), entry, scheme)
            .unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn runner_clones_share_the_cache() {
        let runner = ExperimentRunner::ipsc860().with_cache(commcache::CacheConfig::in_memory());
        let clone = runner.clone();
        let cube = Hypercube::new(4);
        let com = workloads::random_dregular(16, 3, 512, 5);
        let entry = commsched::registry::find("RS_N").unwrap();
        runner
            .schedule_cache()
            .unwrap()
            .get_or_schedule(entry, &com, &cube, 5);
        clone
            .schedule_cache()
            .unwrap()
            .get_or_schedule(entry, &com, &cube, 5);
        assert_eq!(clone.schedule_cache().unwrap().stats().mem_hits, 1);
    }

    #[test]
    fn empty_sample_set_is_an_error_not_a_panic() {
        // Regression: `self.threads.clamp(1, k)` with `k = 0` violated
        // `clamp`'s `min <= max` contract and panicked before any sample
        // ran; an empty set must surface as a proper error instead.
        let cube = Hypercube::new(4);
        let runner = ExperimentRunner::ipsc860();
        let set = SampleSet::new(1, 0);
        let err = runner
            .run_cell(
                &cube,
                &set,
                &|seed| workloads::random_dense(16, 3, 1024, seed),
                &|com, seed| rs_n(com, seed),
                Scheme::S2,
            )
            .unwrap_err();
        assert!(
            matches!(err, simnet::SimError::BadParams(_)),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("empty sample set"), "{err}");
    }

    /// `rs_n`, except that the schedules of `set`'s samples 1 and 3 span 8
    /// and 4 nodes.
    fn planted(set: &SampleSet) -> impl Fn(&CommMatrix, u64) -> Schedule + Send + Sync {
        let (one, three) = (set.seed(1), set.seed(3));
        move |com, seed| match seed {
            s if s == one => commsched::ac(&CommMatrix::new(8)),
            s if s == three => commsched::ac(&CommMatrix::new(4)),
            _ => rs_n(com, seed),
        }
    }

    fn bad_params(result: Result<CellResult, SimError>) -> String {
        match result {
            Err(SimError::BadParams(msg)) => msg,
            other => panic!("expected BadParams, got {other:?}"),
        }
    }

    #[test]
    fn a_schedule_for_another_node_count_is_a_typed_error_on_both_backends() {
        let cube = Hypercube::new(4);
        let set = SampleSet::new(41, 1);
        let gen = |seed| workloads::random_dregular(16, 3, 1024, seed);
        let eight = |_: &CommMatrix, _| commsched::ac(&workloads::random_dregular(8, 3, 1024, 1));
        for backend in BackendKind::all() {
            let runner = ExperimentRunner::ipsc860().with_backend(backend);
            assert_eq!(
                bad_params(runner.run_cell(&cube, &set, &gen, &eight, Scheme::S2)),
                "schedule spans 8 nodes but the matrix spans 16",
                "{backend}"
            );
        }
    }

    #[test]
    fn cells_agree_across_thread_counts_and_fail_at_the_first_bad_sample() {
        use commsched::registry::AdHoc;
        let cube = Hypercube::new(4);
        let set = SampleSet::new(43, 6);
        let gen = |seed| workloads::random_dregular(16, 3, 1024, seed);
        let entry = commsched::registry::find("RS_N").unwrap();
        let scheme = Scheme::for_scheduler(entry);
        let closure = planted(&set);
        let adhoc = AdHoc::new("PLANTED", commsched::SchedulerKind::RsN, {
            let planted = planted(&set);
            move |com, _topo, seed| planted(com, seed)
        });
        let mut runner = ExperimentRunner::ipsc860();
        let mut cells = Vec::new();
        for threads in [1, 2, 8] {
            runner.threads = threads;
            let by_closure = runner
                .run_cell(&cube, &set, &gen, &|com, seed| rs_n(com, seed), scheme)
                .unwrap();
            let by_entry = runner
                .run_scheduler_cell(&cube, &set, &gen, entry, scheme)
                .unwrap();
            assert_eq!(by_closure, by_entry, "{threads} threads");
            cells.push(by_closure);
            let first = "schedule spans 8 nodes but the matrix spans 16";
            let planted_cell = runner.run_cell(&cube, &set, &gen, &closure, scheme);
            assert_eq!(bad_params(planted_cell), first, "{threads} threads");
            let planted_entry = runner.run_scheduler_cell(&cube, &set, &gen, &adhoc, scheme);
            assert_eq!(bad_params(planted_entry), first, "{threads} threads");
        }
        assert!(cells.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cell_results_are_deterministic_across_thread_counts() {
        let cube = Hypercube::new(4);
        let mut runner = ExperimentRunner::ipsc860();
        let set = SampleSet::new(3, 6);
        let gen = |seed| workloads::random_dense(16, 4, 512, seed);
        let run = |r: &ExperimentRunner| {
            r.run_cell(
                &cube,
                &set,
                &gen,
                &|com, seed| rs_nl(com, &Hypercube::new(4), seed),
                Scheme::S1,
            )
            .unwrap()
        };
        runner.threads = 1;
        let a = run(&runner);
        runner.threads = 8;
        let b = run(&runner);
        assert_eq!(a, b);
    }
}
