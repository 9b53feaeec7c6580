//! One run of one workload in this process: phases 0–2, the output checks,
//! and either the six end-to-end metrics (`--trace 0`) or every per-layer
//! metric (`--trace 1`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ipsc_sched::commsched::registry;
use ipsc_sched::schedd::TopologySpec;
use ipsc_sched::simnet::MachineParams;

use crate::affinity::OneCpu;
use crate::grid::{self, GridInputs};
use crate::layers::{self, BatteryCounts, Case};
use crate::ops::ServeKind;
use crate::replay::{self, Replay, PROCESS_SPAN};
use crate::serve::{self, Inputs, StatsDelta, Tally};
use crate::spec;
use crate::trace::{self, Tracer};
use crate::util::{self, median, percentile, percentile_of, Metric, Slice};

/// Timed set-ups on each side of the phases; `setup_s` is the good-side
/// quantile of them all. A cheap set-up (milliseconds on `serve_hot`) is
/// mostly noise, so each side repeats it up to `SETUPS_MAX` times while
/// all of them together stay under `CHEAP_SETUPS_S`.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 50;
const CHEAP_SETUPS_S: f64 = 0.5;

/// Rounds of a run: each is a stretch of phase 1 and then one of phase 2,
/// so both phases sample the whole run and not one end of it each.
const ROUNDS: usize = 6;

/// Ops of the traced replay, frozen per workload so its counts repeat
/// exactly for a given seed.
fn replay_ops(workload: &str) -> usize {
    match workload {
        "serve_hot" => 4000,
        "serve_cold" => 1024,
        "serve_drift" => 2048,
        _ => 150,
    }
}

/// Cases the per-layer battery runs.
const BATTERY_CASES: usize = 16;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines: op counts, digests, broken checks.
    pub notes: Vec<String>,
}

fn serve_kind(workload: &str) -> Option<ServeKind> {
    match workload {
        "serve_hot" => Some(ServeKind::Hot),
        "serve_cold" => Some(ServeKind::Cold),
        "serve_drift" => Some(ServeKind::Drift),
        _ => None,
    }
}

/// Seconds of phase 1 and of phase 2, all rounds together. A traced run
/// keeps both phases short (they only feed ungated context and the
/// daemon's counters) and spends the rest on the replay.
fn phase_seconds(seconds: f64, trace: bool) -> (f64, f64) {
    if trace {
        (0.2 * seconds, 0.2 * seconds)
    } else {
        (0.4 * seconds, 0.6 * seconds)
    }
}

/// Hands each round its seconds of phase 1 and of phase 2. A phase ends
/// on a whole pass or slice, a little late; the rounds still to come make
/// up for it, so the run as a whole measures for `--seconds`.
struct Clock {
    start: Instant,
    phase1_s: f64,
    phase2_s: f64,
    rounds_left: usize,
}

impl Clock {
    fn new(seconds: f64, trace: bool) -> Clock {
        let (phase1_s, phase2_s) = phase_seconds(seconds, trace);
        Clock {
            start: Instant::now(),
            phase1_s,
            phase2_s,
            rounds_left: ROUNDS,
        }
    }

    fn next_round(&mut self) -> (f64, f64) {
        let whole = self.phase1_s + self.phase2_s;
        let left = (whole - self.start.elapsed().as_secs_f64()).max(0.0);
        let share = left / self.rounds_left.max(1) as f64 / whole;
        self.rounds_left = self.rounds_left.saturating_sub(1);
        (share * self.phase1_s, share * self.phase2_s)
    }
}

/// What phases 0–2 yield, whatever the workload.
struct Phases {
    /// Seconds each timed set-up took.
    setups: Vec<f64>,
    /// Phase-1 latencies in µs, one slice per pass, all rounds.
    passes: Vec<Vec<f64>>,
    /// Whether the i-th op of every pass is the same kind of op
    /// (`grid_paper`: the same cell on another matrix).
    aligned: bool,
    /// Whether every round of phase 1 ran on one CPU.
    pinned: bool,
    /// Phase-2 slices (serve: half seconds; grid: executions), all rounds.
    slices: Vec<Slice>,
    peak_rss_mb: f64,
    tally: Tally,
}

/// How far up its phase's slices, counted from the good side, a reported
/// timing sits. Other tenants of the machine only ever slow a run down,
/// for a fraction of a second or for a minute, so the quietest part of a
/// run says what the code costs and a real regression moves every slice,
/// that part included: every timing below is the value this far up from
/// the low end for latency, CPU per op and set-up, and from the high end
/// for throughput.
const GOOD_SIDE: f64 = 0.1;

fn good_low(mut values: Vec<f64>) -> f64 {
    percentile_of(&mut values, GOOD_SIDE)
}

fn good_high(mut values: Vec<f64>) -> f64 {
    percentile_of(&mut values, 1.0 - GOOD_SIDE)
}

/// Percentile `p` of every non-empty pass.
fn pass_percentiles(passes: &[Vec<f64>], p: f64) -> Vec<f64> {
    passes
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile_of(&mut s.clone(), p))
        .collect()
}

impl Phases {
    fn new(aligned: bool) -> Phases {
        Phases {
            setups: Vec::new(),
            passes: Vec::new(),
            aligned,
            pinned: true,
            slices: Vec::new(),
            peak_rss_mb: 0.0,
            tally: Tally::default(),
        }
    }

    fn setup_s(&self) -> f64 {
        good_low(self.setups.clone())
    }

    /// Percentile `p` of the per-op latency. Serve passes are one mix of
    /// short ops each: the good-side quantile over passes of the pass
    /// percentile. Grid passes are 75 ops from half a millisecond to a
    /// tenth of a second, one per cell: a pass percentile would be the
    /// time of whichever matrix the cell on the boundary drew in that
    /// pass, so each cell first gets its good-side quantile over the
    /// passes, and the percentile is taken over the cells.
    fn latency_us(&self, p: f64) -> f64 {
        if !self.aligned {
            return good_low(pass_percentiles(&self.passes, p));
        }
        let cells = self.passes.iter().map(Vec::len).min().unwrap_or(0);
        let mut per_cell: Vec<f64> = (0..cells)
            .map(|cell| good_low(self.passes.iter().map(|pass| pass[cell]).collect()))
            .collect();
        percentile_of(&mut per_cell, p)
    }

    fn rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.ops as f64 / s.wall_s)
            .collect()
    }

    fn throughput_ops_s(&self) -> f64 {
        good_high(self.rates())
    }

    fn cpu_us_per_op(&self) -> f64 {
        let busy = self.slices.iter().filter(|s| s.ops > 0);
        good_low(busy.map(|s| s.cpu_s * 1e6 / s.ops as f64).collect())
    }

    fn note(&self) -> String {
        let join = |values: &[f64]| -> String {
            let values: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
            values.join(" ")
        };
        let setups_ms: Vec<f64> = self.setups.iter().map(|s| s * 1e3).collect();
        format!(
            "phase 1 ran on {}\nset-ups (ms): {}\nphase 1 pass p50 (us): {}\nphase 1 pass p90 (us): {}\nphase 2 slice rates (1/s): {}\nphase 2 slice CPU per op (us): {}",
            if self.pinned { "one CPU, the rounds taking turns over the CPUs" } else { "every CPU: pinning is not available here" },
            join(&setups_ms),
            join(&pass_percentiles(&self.passes, 0.5)),
            join(&pass_percentiles(&self.passes, 0.9)),
            join(&self.rates()),
            join(&self.slices.iter().map(|s| s.cpu_s * 1e6 / s.ops.max(1) as f64).collect::<Vec<_>>()),
        )
    }
}

fn end_to_end_metrics(phases: &Phases) -> Vec<Metric> {
    let value = |name: &str| match name {
        "setup_s" => phases.setup_s(),
        "throughput_ops_s" => phases.throughput_ops_s(),
        "latency_p50_us" => phases.latency_us(0.5),
        "latency_p90_us" => phases.latency_us(0.9),
        "cpu_us_per_op" => phases.cpu_us_per_op(),
        "peak_rss_mb" => phases.peak_rss_mb,
        other => unreachable!("no such end-to-end metric: {other}"),
    };
    spec::END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name.to_string(),
            value: value(m.name),
            unit: m.unit,
        })
        .collect()
}

/// The per-layer values of one traced run, by metric name.
struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Fill in everything the replay and the battery measured. A stage
    /// metric is the median self time per op of the spans of that name:
    /// the replay's spans where it reached the stage, the battery's
    /// otherwise.
    fn from_trace(
        replay: &Replay,
        battery_spans: &[trace::Span],
        counts: &BatteryCounts,
    ) -> Layers {
        let mut layers = Layers {
            values: BTreeMap::new(),
        };
        let mut in_situ = trace::self_time_by_stage(&replay.spans);
        let mut direct = trace::self_time_by_stage(battery_spans);
        for layer in spec::per_layer() {
            let Some(stage) = layer.name.strip_suffix("_us") else {
                continue;
            };
            // The LRU's own time is its span minus the compile below it.
            let stage = stage.replace("lookup_self", "lookup");
            let value = trace::stage_median(&mut in_situ, &stage)
                .or_else(|| trace::stage_median(&mut direct, &stage));
            if let Some(value) = value {
                layers.set(&layer.name, value);
            }
        }
        for (span, phases) in &counts.phases {
            layers.set(&span.replace("compile", "phases"), *phases);
        }
        layers.set("simnet.des.events", counts.des_events);
        layers.set("simnet.des.ns_per_event", counts.des_ns_per_event);
        layers.set(
            "simnet.des.peak_transfers_live",
            counts.des_peak_transfers_live,
        );
        layers.set("simnet.des.state_bytes", counts.des_state_bytes);
        layers.set("simnet.des_parallel.speedup", counts.des_parallel_speedup);
        layers.set(
            "commrt.grid.executor_efficiency",
            counts.executor_efficiency,
        );
        layers.set("trace.overhead_share", replay::overhead_share(replay));

        // The real service calls: the replay's where it made them.
        let mut real = |name: &str, replayed: &[f64], direct: &[f64]| {
            let mut v = if replayed.is_empty() {
                direct
            } else {
                replayed
            }
            .to_vec();
            layers.set(name, median(&mut v));
        };
        real(
            "schedd.service.admit_us",
            &replay.admit_us,
            &counts.admit_us,
        );
        real(
            "schedd.service.resolve_delta_us",
            &replay.resolve_delta_us,
            &counts.resolve_delta_us,
        );
        real(
            "schedd.service.process_us",
            &replay.process_us,
            &counts.process_us,
        );

        let ops = replay.counts.ops;
        let per_op = |total: u64, fallback: f64| {
            if ops == 0 {
                fallback
            } else {
                total as f64 / ops as f64
            }
        };
        layers.set(
            "schedd.protocol.request_bytes",
            per_op(replay.counts.request_bytes, counts.request_bytes),
        );
        layers.set(
            "schedd.protocol.response_bytes",
            per_op(replay.counts.response_bytes, counts.response_bytes),
        );
        layers.set(
            "commcache.lru.evictions",
            replay.cache.map_or(0.0, |c| c.evictions as f64),
        );
        layers
    }

    /// Phase 1's whole-run percentiles and what the socket and the thread
    /// hop add over the in-process op.
    fn set_client(&mut self, phases: &Phases, replay: &Replay) {
        let mut all: Vec<f64> = phases.passes.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        self.set("schedd.client.latency_p99_us", percentile(&all, 0.99));
        self.set(
            "schedd.client.latency_max_us",
            all.last().copied().unwrap_or(0.0),
        );
        self.set("schedd.client.latency_samples", all.len() as f64);
        let mut in_process = replay.op_us_off.clone();
        self.set(
            "schedd.server.transport_us",
            phases.latency_us(0.5) - median(&mut in_process),
        );
    }

    /// The daemon's own counters over phases 1–2.
    fn set_daemon_shares(&mut self, stats: &StatsDelta) {
        self.set(
            "schedd.service.estimate_memo_hit_share",
            stats.share(|s| s.estimate_hits, |s| s.estimate_hits + s.estimate_misses),
        );
        self.set(
            "schedd.queue.rejected_share",
            stats.share(|s| s.rejected_overload + s.rejected_quota, |s| s.submits),
        );
        self.set(
            "schedd.dedup.coalesced_share",
            stats.share(|s| s.coalesced, |s| s.submits),
        );
        self.set(
            "schedd.server.write_failures",
            stats.of(|s| s.write_failures) as f64,
        );
        self.set(
            "commcache.lru.hit_share",
            stats.share(|s| s.cache_mem_hits, |s| s.cache_requests),
        );
        self.set(
            "commcache.incremental.patch_share",
            stats.share(|s| s.incr_patches, |s| s.delta_submits),
        );
        self.set(
            "commcache.incremental.fallback_share",
            stats.share(|s| s.incr_fallbacks, |s| s.delta_submits),
        );
    }

    /// Every per-layer metric in report order; one nothing measured reads
    /// 0 and is named in `notes`.
    fn into_metrics(self, notes: &mut Vec<String>) -> Vec<Metric> {
        spec::per_layer()
            .into_iter()
            .map(|layer| {
                let value = self.values.get(&layer.name).copied().unwrap_or_else(|| {
                    notes.push(format!("layer metric {} was not measured", layer.name));
                    0.0
                });
                Metric {
                    name: layer.name,
                    value,
                    unit: layer.unit,
                }
            })
            .collect()
    }
}

/// The battery's cases: the first inputs of the workload.
fn serve_cases(inputs: &Inputs) -> Vec<Case> {
    match inputs {
        Inputs::Pool(pool) => pool
            .instances
            .iter()
            .take(BATTERY_CASES)
            .enumerate()
            .map(|(i, inst)| {
                let topo = pool.fabrics.topo(inst.topo);
                let entry = (0..pool.entries.len())
                    .map(|k| pool.entries[(i + k) % pool.entries.len()])
                    .find(|e| e.supports_topology(topo))
                    .expect("some entry accepts every fabric");
                Case {
                    generator: inst.generator.clone(),
                    gen_seed: inst.gen_seed,
                    matrix: inst.matrix.clone(),
                    topology: pool.fabrics.specs[inst.topo].clone(),
                    entry,
                    seed: i as u64,
                }
            })
            .collect(),
        Inputs::Drift { fabrics, slots } => slots
            .iter()
            .take(BATTERY_CASES)
            .map(|slot| Case {
                generator: slot.generator.clone(),
                gen_seed: slot.gen_seed,
                matrix: slot.matrix().clone(),
                topology: fabrics.specs[0].clone(),
                entry: slot.entry,
                seed: slot.index as u64,
            })
            .collect(),
    }
}

fn grid_cases(inputs: &GridInputs) -> Vec<Case> {
    let entries: Vec<_> = registry::primary().collect();
    // One case per workload point of pass 0, the entries round-robin.
    let specs = inputs.grid(0, 1).compile();
    let points = specs.iter().map(|s| s.id.point).max().map_or(0, |p| p + 1);
    (0..points)
        .filter_map(|p| {
            let entry = entries[p % entries.len()];
            specs
                .iter()
                .find(|s| s.id.point == p && s.column.scheduler().name() == entry.name())
        })
        .map(|spec| {
            let seed = spec.sample_seed(0);
            Case {
                generator: spec.point.generator().clone(),
                gen_seed: seed,
                matrix: spec.point.generator().generate(seed),
                topology: TopologySpec::Hypercube { dims: 6 },
                entry: registry::find(spec.column.scheduler().name()).expect("a registry entry"),
                seed,
            }
        })
        .collect()
}

/// Replay spans plus battery spans into `trace-<workload>.jsonl`, then the
/// battery's counts.
fn traced_layers(
    args: &RunArgs,
    replay: Replay,
    cases: &[Case],
    params: &MachineParams,
    coverage_under: Option<&str>,
) -> Result<(Layers, Replay), String> {
    let coverage = replay::coverage_share(&replay, coverage_under);
    let tracer = Tracer::new(true);
    let store_dir = args.out_dir.join(format!("store-{}", std::process::id()));
    let counts = layers::run(cases, params, &store_dir, util::nproc(), &tracer, 1_000_000);
    let _ = std::fs::remove_dir_all(&store_dir);
    let counts = counts?;
    let battery_spans = tracer.into_spans();
    let mut layers = Layers::from_trace(&replay, &battery_spans, &counts);
    layers.set("trace.coverage_share", coverage);

    // One file, battery ids shifted past the replay's.
    let offset = replay.spans.len() as i32;
    let mut all = replay.spans.clone();
    all.extend(battery_spans.into_iter().map(|mut s| {
        if s.parent >= 0 {
            s.parent += offset;
        }
        s
    }));
    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    trace::write_jsonl(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((layers, replay))
}

/// Set up with `once` and throw the result away with `discard`, timed,
/// [`SETUPS_MIN`] times or more (see there); the last result stays.
/// Set-up is as sequential as phase 1 (one warm-up request at a time), so
/// it runs on one CPU for the same reason.
fn timed_set_ups<T>(
    cpu: usize,
    times: &mut Vec<f64>,
    once: &mut impl FnMut() -> Result<T, String>,
    discard: &mut impl FnMut(T),
) -> Result<T, String> {
    let _one_cpu = OneCpu::pin_nth(cpu);
    let (mut count, mut spent) = (0, 0.0);
    loop {
        let begun = Instant::now();
        let ready = once()?;
        let took = begun.elapsed().as_secs_f64();
        times.push(took);
        count += 1;
        spent += took;
        let cheap = spent + took <= CHEAP_SETUPS_S && count < SETUPS_MAX;
        if count >= SETUPS_MIN && !cheap {
            return Ok(ready);
        }
        discard(ready);
    }
}

/// Phase 0, several times over: once untimed — it faults in the heap and
/// the code, which is the process starting, not the set-up — then timed;
/// the last set-up stays for the phases. A traced run does not report
/// `setup_s` and sets up once.
fn set_up<T>(
    trace: bool,
    times: &mut Vec<f64>,
    mut once: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<T, String> {
    let first = {
        let _one_cpu = OneCpu::pin_nth(0);
        once()?
    };
    if trace {
        return Ok(first);
    }
    discard(first);
    timed_set_ups(0, times, &mut once, &mut discard)
}

/// As many timed set-ups again once the phases are over, on the next CPU,
/// so `setup_s` has seen both ends of the run like every other timing.
fn set_up_again<T>(
    times: &mut Vec<f64>,
    mut once: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(), String> {
    let last = timed_set_ups(1, times, &mut once, &mut discard)?;
    discard(last);
    Ok(())
}

fn run_serve(kind: ServeKind, args: &RunArgs) -> Result<RunOutput, String> {
    let mut notes = Vec::new();
    let threads = util::nproc();
    let mut phases = Phases::new(false);

    let mut running = set_up(
        args.trace,
        &mut phases.setups,
        || serve::setup(kind, args.seed, &args.out_dir),
        serve::teardown,
    )?;

    let before = running.server.stats();
    let mut clock = Clock::new(args.seconds, args.trace);
    let mut phase2 = Slice {
        ops: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
    };
    let mut reply_weight = 0;
    let mut deltas_sent = 0;
    let mut checked = 0;
    let mut broken = Vec::new();
    for round in 0..ROUNDS {
        let (phase1_s, phase2_s) = clock.next_round();
        let latency = serve::latency_phase(&mut running, phase1_s, round)?;
        let throughput = serve::throughput_phase(&mut running, phase2_s, threads, round)?;
        phases.passes.extend(latency.slices);
        phases.pinned &= latency.pinned;
        phases.slices.extend(throughput.slices);
        phases.tally.add(&latency.tally);
        phases.tally.add(&throughput.tally);
        phase2.ops += throughput.tally.succeeded;
        phase2.wall_s += throughput.wall_s;
        phase2.cpu_s += throughput.cpu_s;

        // Output checks on the round's sampled replies, between the timed
        // stretches; the samples go once they are checked.
        for report in std::iter::once(&latency.report).chain(&throughput.reports) {
            reply_weight += report.reply_weight_bytes;
            deltas_sent += report.deltas_sent;
            for sample in &report.samples {
                checked += 1;
                if let Err(e) =
                    serve::check_sample(running.inputs.fabrics(), &running.params, sample)
                {
                    broken.push(e);
                }
            }
            notes.extend(
                report
                    .failures
                    .iter()
                    .map(|why| format!("op failed: {why}")),
            );
        }
    }
    let stats = StatsDelta {
        before,
        after: running.server.stats(),
    };
    phases.peak_rss_mb = util::peak_rss_mb();
    let invariants =
        serve::shape_invariants(kind, &stats, &phases.tally, reply_weight, deltas_sent);

    let (lanes, window) = serve::lanes_and_window(kind, threads);
    notes.push(format!(
        "ops: attempted {} succeeded {} failed {} retried {}; {checked} replies checked in full; {ROUNDS} rounds, {lanes} generator threads, window {window}",
        phases.tally.attempted,
        phases.tally.succeeded,
        phases.tally.failed,
        phases.tally.retried,
    ));
    notes.push(format!(
        "phase 2: {} ops in {:.2} s wall, {:.2} s CPU (load generator included)",
        phase2.ops, phase2.wall_s, phase2.cpu_s
    ));
    notes.push(format!(
        "daemon: {} compiles, {} delta submits, {} patches, {} coalesced",
        stats.of(|s| s.compiles),
        stats.of(|s| s.delta_submits),
        stats.of(|s| s.incr_patches),
        stats.of(|s| s.coalesced),
    ));

    let metrics = if args.trace {
        // Fresh inputs: the phases have drifted the ones the daemon saw.
        let cases = serve_cases(&Inputs::build(kind, args.seed));
        let params = running.params.clone();
        serve::teardown(running);
        let replay = replay::serve(kind, args.seed, replay_ops(&args.workload), false)?;
        let (mut layers, replay) =
            traced_layers(args, replay, &cases, &params, Some(PROCESS_SPAN))?;
        layers.set_client(&phases, &replay);
        layers.set_daemon_shares(&stats);
        layers.into_metrics(&mut notes)
    } else {
        serve::teardown(running);
        set_up_again(
            &mut phases.setups,
            || serve::setup(kind, args.seed, &args.out_dir),
            serve::teardown,
        )?;
        end_to_end_metrics(&phases)
    };
    notes.push(phases.note());

    let failed = phases.tally.failed + broken.len() as u64;
    notes.extend(broken.iter().map(|e| format!("output check failed: {e}")));
    notes.extend(
        invariants
            .iter()
            .map(|e| format!("shape invariant broken: {e}")),
    );
    Ok(RunOutput {
        correct: failed == 0 && invariants.is_empty(),
        attempted: phases.tally.attempted,
        failed,
        metrics,
        notes,
    })
}

/// Phase 0 of `grid_paper`: the seeded grid, and one cell per column run
/// once so the first timed op does not pay for cold code.
fn grid_setup(seed: u64) -> Result<GridInputs, String> {
    let built = GridInputs::build(seed);
    for spec in built.grid(u64::MAX >> 24, 1).compile().iter().take(5) {
        built.run_cell(spec)?;
    }
    Ok(built)
}

fn run_grid(args: &RunArgs) -> Result<RunOutput, String> {
    let mut notes = Vec::new();
    let threads = util::nproc();
    let mut phases = Phases::new(true);

    let inputs = set_up(
        args.trace,
        &mut phases.setups,
        || grid_setup(args.seed),
        drop,
    )?;

    let mut clock = Clock::new(args.seconds, args.trace);
    let mut pass0_digest = 0;
    let mut phase1_ops = 0;
    let mut phase2 = Slice {
        ops: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
    };
    for round in 0..ROUNDS {
        let (phase1_s, phase2_s) = clock.next_round();
        let latency =
            grid::latency_phase(&inputs, phase1_s, phases.passes.len() as u64, round)?;
        let throughput = grid::throughput_phase(
            &inputs,
            phase2_s,
            threads,
            grid::PHASE2_FIRST_PASS + phases.slices.len() as u64,
        )?;
        if round == 0 {
            pass0_digest = latency.digests[0];
        }
        phase1_ops += latency.ops;
        phases.passes.extend(latency.passes);
        phases.pinned &= latency.pinned;
        phases.slices.extend(throughput.slices);
        phase2.ops += throughput.ops;
        phase2.wall_s += throughput.wall_s;
        phase2.cpu_s += throughput.cpu_s;
    }
    phases.peak_rss_mb = util::peak_rss_mb();
    let broken = grid::output_checks(&inputs, pass0_digest, threads)?;

    let ops = phase1_ops + phase2.ops;
    phases.tally = Tally {
        attempted: ops,
        succeeded: ops,
        failed: 0,
        retried: 0,
    };
    notes.push(format!(
        "ops: attempted {ops} succeeded {ops} failed 0 retried 0; {ROUNDS} rounds, {} passes singly, {} grid executions on {threads} threads",
        phases.passes.len(),
        phases.slices.len(),
    ));
    notes.push(format!(
        "phase 2: {} ops in {:.2} s wall, {:.2} s CPU",
        phase2.ops, phase2.wall_s, phase2.cpu_s
    ));
    notes.push(format!(
        "result digest of pass 0 (printed, not pinned): {pass0_digest:016x}"
    ));

    let metrics = if args.trace {
        let replay = replay::grid(&inputs, replay_ops(&args.workload))?;
        let cases = grid_cases(&inputs);
        let (mut layers, replay) =
            traced_layers(args, replay, &cases, &inputs.runner.params, None)?;
        layers.set_client(&phases, &replay);
        // Phase 2 against phase 1: Σ single-thread op time ÷ (threads × wall).
        let single_rate =
            phase1_ops as f64 / phases.passes.iter().flatten().sum::<f64>().max(1.0) * 1e6;
        layers.set(
            "commrt.grid.executor_efficiency",
            phases.throughput_ops_s() / (threads as f64 * single_rate),
        );
        // No daemon runs here: its counters read zero by construction.
        for name in [
            "schedd.service.estimate_memo_hit_share",
            "schedd.queue.rejected_share",
            "schedd.dedup.coalesced_share",
            "schedd.server.write_failures",
            "commcache.lru.hit_share",
            "commcache.incremental.patch_share",
            "commcache.incremental.fallback_share",
        ] {
            layers.set(name, 0.0);
        }
        layers.into_metrics(&mut notes)
    } else {
        set_up_again(&mut phases.setups, || grid_setup(args.seed), drop)?;
        end_to_end_metrics(&phases)
    };
    notes.push(phases.note());

    notes.extend(broken.iter().map(|e| format!("output check failed: {e}")));
    Ok(RunOutput {
        correct: broken.is_empty(),
        attempted: ops,
        failed: broken.len() as u64,
        metrics,
        notes,
    })
}

/// Run `args.workload` once in this process.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    match serve_kind(&args.workload) {
        Some(kind) => run_serve(kind, args),
        None if args.workload == "grid_paper" => run_grid(args),
        None => Err(format!("unknown workload `{}`", args.workload)),
    }
}

/// The requests of a serve workload's traced replay, for tests.
pub fn replay_for_test(workload: &str, seed: u64, ops: usize) -> Result<Replay, String> {
    let kind = serve_kind(workload).ok_or("not a serve workload")?;
    replay::serve(kind, seed, ops, true)
}

/// Where results go: `benchmark/out` under the current directory.
pub fn default_out_dir() -> PathBuf {
    Path::new("benchmark").join("out")
}
