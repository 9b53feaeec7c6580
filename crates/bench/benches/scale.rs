//! Scaling curves for the two simulation substrates — the numbers behind
//! the "cost scales with traffic, not topology" claim.
//!
//! Two sweeps land in `BENCH_scale_sim.json`:
//!
//! * `analytic/d{dim}` — pricing a fixed pool of 2048 random transfers
//!   on hypercubes from d=6 (the paper's machine) to d=20 (a
//!   million-node fabric), plus `analytic_resident_bytes/d{dim}` with
//!   the pool's table footprint. Above the sparse crossover the cost
//!   per pool may grow only with the route lengths (~d), never with
//!   the 2^d node count — the `--expect-analytic-growth` gate pins the
//!   d=14 → d=20 ratio.
//! * `des-seq/d{dim}` — the exact engine on dense AC-scheduled traffic
//!   (`dregular(d=16, M=4096)`, the deep-pending-set regime) at
//!   d ∈ {6, 8, 10}, plus `des_claim_checks_per_transfer/d{dim}`: how
//!   many pending transfers the engine examined per transfer it ran. The
//!   `--expect-claim-checks-per-transfer` gate pins that count — it is a
//!   function of the run, not of the host, so the guard on the rescan's
//!   complexity is deterministic.
//!
//! Gates (all optional, for CI exit-code enforcement):
//!
//! ```text
//! cargo bench --bench scale -- --expect-analytic-growth 2.0 \
//!     --expect-claim-checks-per-transfer 12 --expect-analytic-wall-ms 50
//! ```
//!
//! `REPRO_SAMPLES` overrides the repetition count (default 3).

use commrt::{DesBackend, Scheme, SimBackend};
use commsched::registry;
use criterion::black_box;
use hypercube::{Hypercube, NodeId, Topology};
use repro_bench::{time_case, write_bench_json};
use simnet::{LoadModel, PortModel, TransferSpec};

/// Analytic sweep: d=6 (the paper) through d=20 (a million nodes).
const ANALYTIC_DIMS: [u32; 8] = [6, 8, 10, 12, 14, 16, 18, 20];
/// Fixed traffic per pool — the independent variable is the fabric.
const POOL_TRANSFERS: usize = 2048;
/// DES curve: dense traffic on growing fabrics.
const DES_DIMS: [u32; 3] = [6, 8, 10];

struct Gates {
    analytic_growth: Option<f64>,
    claim_checks_per_transfer: Option<f64>,
    analytic_wall_ms: Option<f64>,
}

fn parse_gates() -> Gates {
    let mut gates = Gates {
        analytic_growth: None,
        claim_checks_per_transfer: None,
        analytic_wall_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut expect = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("scale: {name} expects a number");
                    std::process::exit(2);
                })
        };
        match arg.as_str() {
            "--expect-analytic-growth" => {
                gates.analytic_growth = Some(expect("--expect-analytic-growth"));
            }
            "--expect-claim-checks-per-transfer" => {
                gates.claim_checks_per_transfer =
                    Some(expect("--expect-claim-checks-per-transfer"));
            }
            "--expect-analytic-wall-ms" => {
                gates.analytic_wall_ms = Some(expect("--expect-analytic-wall-ms"));
            }
            // Tolerate harness-style flags (e.g. `--bench`) so `cargo
            // bench` invocations without gates keep working.
            _ => {}
        }
    }
    gates
}

/// Deterministic random transfers on an `n`-node fabric (xorshift LCG —
/// the bench must price the same pool on every run).
fn random_specs(n: usize, count: usize, mut state: u64) -> Vec<TransferSpec> {
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut specs = Vec::with_capacity(count);
    while specs.len() < count {
        let (src, dst) = (rand() as usize % n, rand() as usize % n);
        if src == dst {
            continue;
        }
        specs.push(TransferSpec {
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            busy_ns: 1 + rand() % 100_000,
            lead_ns: rand() % 10_000,
            fused: false,
        });
    }
    specs
}

fn main() {
    let gates = parse_gates();
    let reps = repro_bench::sample_count_or(3);
    let mut cases = Vec::new();

    // -- analytic: fixed traffic, growing fabric ---------------------------
    let mut analytic_mean = std::collections::HashMap::new();
    println!("analytic pool pricing: {POOL_TRANSFERS} transfers, {reps} reps");
    for dim in ANALYTIC_DIMS {
        let cube = Hypercube::new(dim);
        let n = cube.num_nodes();
        let specs = random_specs(n, POOL_TRANSFERS, 0x5ca1_ab1e ^ u64::from(dim));
        let mut pool = LoadModel::new(&cube, PortModel::Unified);
        let case = time_case(format!("analytic/d{dim}"), reps, || {
            pool.reset();
            for &spec in &specs {
                pool.add(&cube, spec);
            }
            black_box(pool.makespan_ns());
        });
        println!(
            "  d={dim:<2} ({n:>9} nodes, {}): {:>9.3} ms/pool, {:>8} resident bytes",
            if pool.is_dense() { "dense " } else { "sparse" },
            case.mean_ns / 1e6,
            pool.resident_bytes(),
        );
        analytic_mean.insert(dim, case.mean_ns);
        cases.push(criterion::CaseResult {
            name: format!("analytic_resident_bytes/d{dim}"),
            mean_ns: pool.resident_bytes() as f64,
            min_ns: pool.resident_bytes() as f64,
            max_ns: pool.resident_bytes() as f64,
        });
        cases.push(case);
    }

    // -- DES: dense AC traffic ----------------------------------------------
    let params = simnet::MachineParams::ipsc860();
    let entry = registry::find("AC").expect("AC is registered");
    let scheme = Scheme::for_scheduler(entry);
    let (density, bytes) = (16usize, 4096u32);
    println!("exact engine: AC on dregular(d={density}, M={bytes}), {reps} reps");
    let backend = DesBackend::default();
    let mut worst_checks = 0.0f64;
    for dim in DES_DIMS {
        let cube = Hypercube::new(dim);
        let com = workloads::random_dregular(cube.num_nodes(), density, bytes, 7);
        let schedule = entry.schedule(&com, &cube, 7);
        let case = time_case(format!("des-seq/d{dim}"), reps, || {
            backend
                .estimate(&params, &cube, &com, &schedule, scheme)
                .unwrap_or_else(|e| panic!("des-seq d={dim}: {e}"));
        });
        let stats = simnet::simulate(&cube, &params, commrt::compile(&com, &schedule, scheme))
            .unwrap_or_else(|e| panic!("des-seq d={dim}: {e}"))
            .stats;
        let checks = stats.claim_checks as f64 / stats.transfers as f64;
        println!(
            "  des-seq/d{dim}: {:>9.3} ms/run, {checks:.2} claim checks per transfer",
            case.mean_ns / 1e6
        );
        worst_checks = worst_checks.max(checks);
        cases.push(criterion::CaseResult {
            name: format!("des_claim_checks_per_transfer/d{dim}"),
            mean_ns: checks,
            min_ns: checks,
            max_ns: checks,
        });
        cases.push(case);
    }

    let path = write_bench_json("scale_sim", &cases).expect("write bench json");
    println!("wrote {}", path.display());

    // -- gates -------------------------------------------------------------
    let mut failed = false;
    let growth = analytic_mean[&20] / analytic_mean[&14];
    println!("analytic growth d14 -> d20 (64x the nodes): {growth:.2}x the cost");
    if let Some(bound) = gates.analytic_growth {
        if growth > bound {
            eprintln!("scale: FAIL analytic growth {growth:.2}x > {bound:.2}x");
            failed = true;
        }
    }
    if let Some(bound) = gates.claim_checks_per_transfer {
        if worst_checks > bound {
            eprintln!("scale: FAIL {worst_checks:.2} claim checks per transfer > {bound:.2}");
            failed = true;
        }
    }
    if let Some(bound) = gates.analytic_wall_ms {
        let wall_ms = analytic_mean[&14] / 1e6;
        println!("analytic d=14 wall: {wall_ms:.3} ms (bound {bound:.1} ms)");
        if wall_ms > bound {
            eprintln!("scale: FAIL analytic d=14 wall {wall_ms:.3} ms > {bound:.1} ms");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
