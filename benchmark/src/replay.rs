//! The traced phase: the first N ops of the phase-1 stream replayed
//! single-threaded and in-process through three identically warmed
//! pipelines — the mirror with spans off, the mirror with spans on, and
//! the real whole call (`ServiceState::process` / `run_scheduler_cell`).

use std::time::Instant;

use ipsc_sched::commcache::CacheStats;
use ipsc_sched::schedd::{Request, Response, ServiceState};

use crate::grid::{CellOutcome, GridInputs};
use crate::mirror::{Mirror, MirrorCounts};
use crate::ops::{Lane, Outcome, ServeKind};
use crate::serve::{service_config, Inputs};
use crate::trace::{Span, Tracer};

/// Span name of the mirrored whole call on the serve path.
pub const PROCESS_SPAN: &str = "schedd.service.process";

/// What the three passes measured.
#[derive(Default)]
pub struct Replay {
    pub spans: Vec<Span>,
    /// Whole-op time per op in µs, spans off and spans on.
    pub op_us_off: Vec<f64>,
    pub op_us_on: Vec<f64>,
    /// The real whole call per op in µs.
    pub whole_us: Vec<f64>,
    /// Real `ServiceState::process` / `admit` / `resolve_delta` per op in
    /// µs; empty where the workload has no daemon.
    pub process_us: Vec<f64>,
    pub admit_us: Vec<f64>,
    pub resolve_delta_us: Vec<f64>,
    pub counts: MirrorCounts,
    pub cache: Option<CacheStats>,
    /// Encoded response bodies, when asked for (the fidelity test).
    pub mirror_bodies: Vec<Vec<u8>>,
    pub real_bodies: Vec<Vec<u8>>,
}

/// One of the three pipelines of a serve replay: its own seeded inputs
/// and its own phase-1 lane, so the three see the same requests.
struct Driver {
    lane: Box<dyn Lane>,
}

impl Driver {
    /// Build the inputs and warm `serve` the way set-up warms the daemon.
    fn warmed(
        kind: ServeKind,
        seed: u64,
        mut serve: impl FnMut(&Request) -> Result<Response, String>,
    ) -> Result<Driver, String> {
        let mut inputs = Inputs::build(kind, seed);
        inputs.warm_up(&mut serve)?;
        Ok(Driver {
            lane: inputs.lane(1, 0, 1),
        })
    }

    /// Op `op` of the stream through `serve`; the time covers `serve` alone.
    fn step(
        &mut self,
        op: usize,
        serve: impl FnOnce(&Request) -> Result<Response, String>,
    ) -> Result<f64, String> {
        let request = self
            .lane
            .next(op as u64 + 1)
            .ok_or("lane has no request with nothing in flight")?;
        let begun = Instant::now();
        let response = serve(request)?;
        let us = begun.elapsed().as_secs_f64() * 1e6;
        if self.lane.complete(response) != Outcome::Done {
            return Err(format!("replayed op {op} did not succeed in-process"));
        }
        Ok(us)
    }
}

/// The real `ServiceState` calls for one request, each timed on its own:
/// `(response, resolve_delta µs, admit µs, process µs)`.
fn real_calls(
    state: &ServiceState,
    request: &Request,
) -> Result<(Response, Option<f64>, f64, f64), String> {
    let resolved;
    let mut resolve_us = None;
    let full = match request {
        Request::Submit(req) => req,
        Request::SubmitDelta(delta) => {
            let begun = Instant::now();
            resolved = state.resolve_delta(delta).map_err(|e| e.to_string())?;
            resolve_us = Some(begun.elapsed().as_secs_f64() * 1e6);
            &resolved
        }
        _ => return Err("the replay serves submits only".into()),
    };
    let begun = Instant::now();
    state.admit(full).map_err(|e| e.to_string())?;
    let admit_us = begun.elapsed().as_secs_f64() * 1e6;
    let begun = Instant::now();
    let reply = state.process(full).map_err(|e| e.to_string())?;
    let process_us = begun.elapsed().as_secs_f64() * 1e6;
    Ok((Response::Schedule(reply), resolve_us, admit_us, process_us))
}

/// The three passes of a serve workload over `ops` ops, in lockstep: each
/// op goes through the untraced mirror, the traced mirror and the real
/// calls back to back, so machine noise lands on all three alike.
pub fn serve(kind: ServeKind, seed: u64, ops: usize, keep_bodies: bool) -> Result<Replay, String> {
    let config = service_config(kind);
    let quiet = Tracer::new(false);
    let tracer = Tracer::new(true);
    let mut plain = Mirror::new(&config);
    let mut traced = Mirror::new(&config);
    let state = ServiceState::new(&config);
    let mut plain_driver = Driver::warmed(kind, seed, |r| plain.round_trip(r, &quiet))?;
    let mut traced_driver = Driver::warmed(kind, seed, |r| traced.round_trip(r, &quiet))?;
    let mut real_driver = Driver::warmed(kind, seed, |r| Ok(real_calls(&state, r)?.0))?;

    let mut replay = Replay::default();
    for op in 0..ops {
        tracer.set_op(op as u32);
        // Whichever mirror goes first pays for the caches the real calls
        // just evicted, so the two take turns.
        for traced_turn in [op % 2 == 1, op % 2 == 0] {
            if traced_turn {
                let mirror_bodies = &mut replay.mirror_bodies;
                replay.op_us_on.push(traced_driver.step(op, |r| {
                    let response = traced.round_trip(r, &tracer)?;
                    if keep_bodies {
                        mirror_bodies.push(response.encode());
                    }
                    Ok(response)
                })?);
            } else {
                replay
                    .op_us_off
                    .push(plain_driver.step(op, |r| plain.round_trip(r, &quiet))?);
            }
        }

        let mut times = (None, 0.0, 0.0);
        let real_bodies = &mut replay.real_bodies;
        real_driver.step(op, |r| {
            let (response, resolve_us, admit_us, process_us) = real_calls(&state, r)?;
            times = (resolve_us, admit_us, process_us);
            if keep_bodies {
                real_bodies.push(response.encode());
            }
            Ok(response)
        })?;
        replay.resolve_delta_us.extend(times.0);
        replay.admit_us.push(times.1);
        replay.process_us.push(times.2);
    }
    replay.whole_us = replay.process_us.clone();
    replay.counts = traced.counts;
    replay.cache = Some(traced.cache().stats());
    replay.spans = tracer.into_spans();
    Ok(replay)
}

/// The three passes of `grid_paper` over its first `ops` (cell, sample)s,
/// in lockstep like [`serve`].
pub fn grid(inputs: &GridInputs, ops: usize) -> Result<Replay, String> {
    let mut specs = Vec::with_capacity(ops);
    for pass in 0.. {
        specs.extend(inputs.grid(pass, 1).compile());
        if specs.len() >= ops {
            break;
        }
    }
    specs.truncate(ops);

    let mut replay = Replay::default();
    let quiet = Tracer::new(false);
    let tracer = Tracer::new(true);
    let timed = |f: &dyn Fn() -> Result<CellOutcome, String>| {
        let begun = Instant::now();
        let outcome = f()?;
        Ok::<_, String>((outcome, begun.elapsed().as_secs_f64() * 1e6))
    };
    for (op, spec) in specs.iter().enumerate() {
        tracer.set_op(op as u32);
        // The two mirrors take turns going first, as on the serve path.
        let run_plain = || timed(&|| inputs.mirror_cell(spec, &quiet));
        let run_traced = || timed(&|| inputs.mirror_cell(spec, &tracer));
        let ((plain, plain_us), (traced, traced_us)) = if op % 2 == 0 {
            let first = run_plain()?;
            (first, run_traced()?)
        } else {
            let first = run_traced()?;
            (run_plain()?, first)
        };
        let (real, real_us) = timed(&|| inputs.run_cell(spec))?;
        // Fidelity: the mirror must reproduce the runner's numbers.
        if plain != real || traced != real {
            return Err(format!(
                "mirror of cell {:?} differs from run_scheduler_cell",
                spec.id
            ));
        }
        replay.op_us_off.push(plain_us);
        replay.op_us_on.push(traced_us);
        replay.whole_us.push(real_us);
    }
    replay.spans = tracer.into_spans();
    Ok(replay)
}

/// Σ self time of the stages under the whole call ÷ Σ real whole-call
/// time. On the serve path the stages are the spans below
/// [`PROCESS_SPAN`]; on the grid they are the children of each op's root.
pub fn coverage_share(replay: &Replay, under: Option<&str>) -> f64 {
    let spans = &replay.spans;
    let mut inside = vec![false; spans.len()];
    let mut stage_ns = 0u64;
    for (i, span) in spans.iter().enumerate() {
        inside[i] = match (under, usize::try_from(span.parent)) {
            (Some(root), Ok(parent)) => inside[parent] || spans[parent].name == root,
            (None, Ok(_)) => true,
            (_, Err(_)) => false,
        };
        if inside[i] {
            stage_ns += span.self_ns;
        }
    }
    let whole_us: f64 = replay.whole_us.iter().sum();
    if whole_us == 0.0 {
        0.0
    } else {
        stage_ns as f64 / 1e3 / whole_us
    }
}

/// (Σ spans-on op time − Σ spans-off op time) ÷ Σ spans-off op time.
pub fn overhead_share(replay: &Replay) -> f64 {
    let off: f64 = replay.op_us_off.iter().sum();
    let on: f64 = replay.op_us_on.iter().sum();
    if off == 0.0 {
        0.0
    } else {
        (on - off) / off
    }
}
