//! `schedctl` — operate the schedule cache from the command line.
//!
//! The paper's economics are amortization: schedule once, execute many
//! times. `schedctl` makes that operational for whole workload specs:
//! `warm` precompiles every *(matrix sample, scheduler)* pair of a spec
//! into a persistent [`commcache::ArtifactStore`], `stats` summarizes a
//! store directory, and `inspect` decodes individual artifacts. A warmed
//! store is picked up by any later run pointed at the same directory
//! (`IPSC_CACHE=<dir>` for the repro binaries, or
//! `CacheConfig::persistent` in code).
//!
//! ```text
//! schedctl warm --dir results/cache --n 64 --d 4,8 --bytes 1024 --samples 3
//! schedctl warm --dir results/cache --n 64 --d 4,8 --bytes 1024 --samples 3 --expect-hits
//! schedctl stats --dir results/cache
//! schedctl inspect --dir results/cache --fingerprint <32-hex>
//! ```
//!
//! The second `warm` over an unchanged spec compiles nothing: every
//! request is answered by the store (`--expect-hits` turns that into an
//! exit-code assertion, which is how CI smoke-tests the cache).
//!
//! By default `warm` uses the **paper seed discipline** — per-scheduler
//! base seeds `paper_base_seed(d, M, ordinal)`, the streams the repro
//! binaries request — so warming `--n 64 --d 4,8,16,32,48
//! --bytes 256,1024,131072 --samples 50` precompiles exactly the
//! schedules `table1` will ask for under `IPSC_CACHE=<same dir>`.
//! Passing `--base-seed` switches to one *shared* sample stream instead
//! (the `WorkloadPoint::shared` discipline of ablation-style grids).
//!
//! With `--addr`, `schedctl` is also the client of a live `schedd`
//! daemon: `submit` sends one schedule request, `bench` replays one
//! request repeatedly and reports latency plus the daemon's dedup hit
//! rate, `stats --addr` snapshots the daemon's counters, and `shutdown`
//! drains it:
//!
//! ```text
//! schedctl submit --addr unix:/tmp/schedd.sock --scheduler RS_NL --n 16
//! schedctl bench --addr unix:/tmp/schedd.sock --requests 500
//! schedctl stats --addr unix:/tmp/schedd.sock
//! schedctl shutdown --addr unix:/tmp/schedd.sock
//! ```

use std::process::ExitCode;
use std::time::Instant;

use commcache::{
    decode_artifact_full, ArtifactStore, CacheConfig, Fingerprint, SchedCache, StoreError,
    TopologyMeta,
};
use commrt::grid::paper_base_seed;
use commrt::BackendKind;
use commsched::{registry, Scheduler};
use hypercube::Hypercube;
use repro_bench::EnvConfig;
use schedd::{Client, Endpoint, SchemeChoice, SubmitRequest};
use topo::TopologyKind;
use workloads::{Generator, SampleSet};

const USAGE: &str = "\
schedctl — inspect and warm the ipsc-sched schedule cache

USAGE:
  schedctl warm [OPTIONS]      precompile a workload spec into the cache
  schedctl stats [OPTIONS]     summarize a cache directory, or a live
                               daemon's counters with --addr
  schedctl inspect [OPTIONS]   decode artifacts
  schedctl submit [OPTIONS]    submit one request to a live schedd
  schedctl bench [OPTIONS]     replay requests against a live schedd
  schedctl shutdown --addr <e> drain and stop a live schedd
  schedctl help                print this text

OPTIONS:
  --dir <path>         artifact-store directory   [default: results/cache]
  --addr <endpoint>    live daemon: unix:<path> or tcp:<host:port>
  --n <nodes>          hypercube size (power of two)        [default: 64]
  --d <list>           densities, comma-separated          [default: 4,8]
  --bytes <list>       message sizes (bytes), comma-sep   [default: 1024]
  --schedulers <spec>  comma-separated names, or primary|all
                                                       [default: primary]
  --samples <k>        samples per workload point            [default: 3]
  --base-seed <s>      warm ONE shared sample stream from this base seed
                       (sample k = base*1000+k) instead of the default
                       paper discipline — per-scheduler base seeds
                       paper_base_seed(d, M, ordinal), i.e. exactly the
                       schedules the repro binaries request under
                       IPSC_CACHE=<dir>
  --budget-mb <mb>     in-memory byte budget                [default: 64]
  --expect-hits        (warm) exit 1 unless ≥ 1 request was answered by
                       the store — asserts a previous warm is being reused
  --fingerprint <hex>  (inspect) only this artifact
  --scheduler <name>   (submit/bench) registry entry      [default: RS_NL]
  --topo <kind>        (submit/bench) schedule on this fabric instead of
                       the --n hypercube: cube:d=N, mesh:RxC,
                       torus:AxBx..., or fattree:k=N (node count follows
                       the kind; traffic stays --d-regular)
  --seed <s>           (submit/bench) scheduler seed           [default: 0]
  --scheme <s>         (submit/bench) s1|s2|default      [default: default]
  --backend <b>        (submit/bench) des|analytic   [default: IPSC_BACKEND]
  --costmodel <m>      (submit/bench) link-cost model: uniform,
                       loggp:o=..,g=..,G=.., hetero:factor=..,frac=..,
                       or faulty:p=..,seed=..  [default: IPSC_COSTMODEL]
  --want-schedule      (submit) stream the compiled schedule summary too
  --requests <k>       (bench) how many requests to replay   [default: 200]
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    let opts = &args[1.min(args.len())..];
    let result = match command {
        Some("warm") => warm(opts),
        Some("stats") => stats(opts),
        Some("inspect") => inspect(opts),
        Some("submit") => submit(opts),
        Some("bench") => bench(opts),
        Some("shutdown") => shutdown(opts),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}` (try `schedctl help`)")),
    };
    result.unwrap_or_else(|message| {
        eprintln!("schedctl: {message}");
        ExitCode::from(2)
    })
}

/// Value of `--name` in `opts`, if present.
fn opt_value<'a>(opts: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let mut found = None;
    let mut it = opts.iter();
    while let Some(arg) = it.next() {
        if arg == name {
            match it.next() {
                Some(v) => found = Some(v.as_str()),
                None => return Err(format!("{name} expects a value")),
            }
        }
    }
    Ok(found)
}

fn opt_flag(opts: &[String], name: &str) -> bool {
    opts.iter().any(|a| a == name)
}

/// Reject anything that is not a known flag (or a known flag's value) —
/// a misspelled `--expect-hit` must fail loudly, not silently fall back
/// to defaults.
fn reject_unknown(
    opts: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < opts.len() {
        let arg = opts[i].as_str();
        if value_flags.contains(&arg) {
            i += 2; // flag + its value (a missing value errors in opt_value)
        } else if bool_flags.contains(&arg) {
            i += 1;
        } else {
            return Err(format!("unknown argument `{arg}` (try `schedctl help`)"));
        }
    }
    Ok(())
}

fn opt_parsed<T: std::str::FromStr>(opts: &[String], name: &str, default: T) -> Result<T, String> {
    match opt_value(opts, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")),
    }
}

fn opt_list<T: std::str::FromStr + Clone>(
    opts: &[String],
    name: &str,
    default: &[T],
) -> Result<Vec<T>, String> {
    match opt_value(opts, name)? {
        None => Ok(default.to_vec()),
        Some(v) => v
            .split(',')
            .map(|part| {
                part.trim()
                    .parse()
                    .map_err(|_| format!("{name}: cannot parse `{part}`"))
            })
            .collect(),
    }
}

fn store_dir(opts: &[String]) -> Result<std::path::PathBuf, String> {
    Ok(opt_value(opts, "--dir")?
        .map(Into::into)
        .unwrap_or_else(ArtifactStore::default_dir))
}

fn resolve_schedulers(spec: &str) -> Result<Vec<&'static dyn Scheduler>, String> {
    match spec {
        "primary" => Ok(registry::primary().collect()),
        "all" => Ok(registry::all().to_vec()),
        names => names
            .split(',')
            .map(|name| {
                registry::find(name.trim())
                    .ok_or_else(|| format!("unknown scheduler `{}`", name.trim()))
            })
            .collect(),
    }
}

fn warm(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(
        opts,
        &[
            "--dir",
            "--n",
            "--d",
            "--bytes",
            "--schedulers",
            "--samples",
            "--base-seed",
            "--budget-mb",
        ],
        &["--expect-hits"],
    )?;
    let dir = store_dir(opts)?;
    let n: usize = opt_parsed(opts, "--n", 64)?;
    if !n.is_power_of_two() {
        return Err(format!("--n {n} is not a power of two (hypercube size)"));
    }
    let densities: Vec<usize> = opt_list(opts, "--d", &[4, 8])?;
    let sizes: Vec<u32> = opt_list(opts, "--bytes", &[1024])?;
    let samples: usize = opt_parsed(opts, "--samples", 3)?;
    let shared_base: Option<u64> = match opt_value(opts, "--base-seed")? {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--base-seed: cannot parse `{v}`"))?,
        ),
        None => None,
    };
    let budget_mb: usize = opt_parsed(opts, "--budget-mb", 64)?;
    let entries = resolve_schedulers(opt_value(opts, "--schedulers")?.unwrap_or("primary"))?;

    let cube = Hypercube::new(n.trailing_zeros());
    let cache = SchedCache::new(CacheConfig::persistent(&dir).with_byte_budget(budget_mb << 20));
    let t0 = Instant::now();
    let mut requested = 0u64;
    for &d in &densities {
        for &bytes in &sizes {
            let generator = Generator::dregular(n, d, bytes);
            match shared_base {
                // Shared discipline: one sample stream, every scheduler
                // sees the same matrices (WorkloadPoint::shared grids).
                Some(base) => {
                    for seed in SampleSet::new(base, samples).seeds() {
                        let com = generator.generate(seed);
                        for entry in &entries {
                            if !entry.supports_topology(&cube) {
                                continue;
                            }
                            cache.get_or_schedule(*entry, &com, &cube, seed);
                            requested += 1;
                        }
                    }
                }
                // Paper discipline (default): the per-scheduler streams
                // the repro binaries request — warming here means table1
                // et al. under IPSC_CACHE=<dir> recompile nothing.
                None => {
                    for entry in &entries {
                        if !entry.supports_topology(&cube) {
                            continue;
                        }
                        let set =
                            SampleSet::new(paper_base_seed(d, bytes, entry.ordinal()), samples);
                        for seed in set.seeds() {
                            let com = generator.generate(seed);
                            cache.get_or_schedule(*entry, &com, &cube, seed);
                            requested += 1;
                        }
                    }
                }
            }
        }
    }
    let elapsed = t0.elapsed();
    let stats = cache.stats();
    println!(
        "warmed {} schedule(s) over {} workload point(s) ({} sample(s) each, {} scheduler(s), {} seeds) in {:.2} ms",
        requested,
        densities.len() * sizes.len(),
        samples,
        entries.len(),
        if shared_base.is_some() {
            "shared"
        } else {
            "paper per-scheduler"
        },
        elapsed.as_secs_f64() * 1e3,
    );
    println!("cache dir: {}", dir.display());
    println!(
        "compiled: {}  store_hits: {}  mem_hits: {}  store_writes: {}  store_skips: {}  store_errors: {}",
        stats.misses,
        stats.store_hits,
        stats.mem_hits,
        stats.store_writes,
        stats.store_skips,
        stats.store_errors,
    );
    println!("hit rate: {:.1}%", stats.hit_rate() * 100.0);
    if opt_flag(opts, "--expect-hits") && stats.store_hits == 0 {
        eprintln!("schedctl: --expect-hits: no request was answered by the store");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Decode every artifact under `dir`, returning per-entry details plus
/// skip/error tallies.
struct Scan {
    /// `(fingerprint, file bytes, schedule, fabric)` of each trusted
    /// artifact; the fabric is `None` for artifacts written without
    /// topology metadata.
    decoded: Vec<(Fingerprint, u64, commsched::Schedule, Option<TopologyMeta>)>,
    version_skips: usize,
    errors: Vec<(Fingerprint, StoreError)>,
}

fn scan(store: &ArtifactStore) -> Result<Scan, String> {
    let mut result = Scan {
        decoded: Vec::new(),
        version_skips: 0,
        errors: Vec::new(),
    };
    for fp in store
        .entries()
        .map_err(|e| format!("{}: {e}", store.dir().display()))?
    {
        let path = store.path_for(fp);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                result.errors.push((fp, StoreError::Io(e)));
                continue;
            }
        };
        match decode_artifact_full(&bytes) {
            Ok((_, schedule, topology)) => {
                result
                    .decoded
                    .push((fp, bytes.len() as u64, schedule, topology))
            }
            Err(StoreError::UnsupportedVersion(_)) => result.version_skips += 1,
            Err(e) => result.errors.push((fp, e)),
        }
    }
    Ok(result)
}

fn stats(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, &["--dir", "--addr"], &[])?;
    if let Some(addr) = opt_value(opts, "--addr")? {
        return daemon_stats(addr);
    }
    let dir = store_dir(opts)?;
    let store = ArtifactStore::new(&dir);
    let scan = scan(&store)?;
    println!("cache dir: {}", dir.display());
    println!(
        "artifacts: {} trusted, {} foreign-version (skipped), {} unreadable",
        scan.decoded.len(),
        scan.version_skips,
        scan.errors.len()
    );
    let total_bytes: u64 = scan.decoded.iter().map(|(_, b, _, _)| b).sum();
    println!("store size: {total_bytes} bytes");
    // Per-family tallies, in the paper's column order.
    let mut families: Vec<(&str, usize, usize)> = Vec::new();
    for (_, _, schedule, _) in &scan.decoded {
        let label = schedule.algorithm().label();
        match families.iter_mut().find(|(l, _, _)| *l == label) {
            Some((_, count, phases)) => {
                *count += 1;
                *phases += schedule.num_phases();
            }
            None => families.push((label, 1, schedule.num_phases())),
        }
    }
    for (label, count, phases) in &families {
        println!(
            "  {label:<6} {count:>5} schedule(s), {:.1} phase(s) mean",
            *phases as f64 / *count as f64
        );
    }
    for (fp, err) in &scan.errors {
        println!("  ! {fp}: {err}");
    }
    Ok(ExitCode::SUCCESS)
}

fn inspect(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, &["--dir", "--fingerprint"], &[])?;
    let dir = store_dir(opts)?;
    let store = ArtifactStore::new(&dir);
    let filter = match opt_value(opts, "--fingerprint")? {
        Some(hex) => Some(
            Fingerprint::from_hex(hex)
                .ok_or_else(|| format!("--fingerprint: `{hex}` is not 32 hex digits"))?,
        ),
        None => None,
    };
    let scan = scan(&store)?;
    let mut shown = 0;
    for (fp, file_bytes, schedule, topology) in &scan.decoded {
        if filter.is_some_and(|f| f != *fp) {
            continue;
        }
        shown += 1;
        let fabric = topology.as_ref().map_or_else(
            || "-".to_string(),
            |t| format!("{} nodes={} links={}", t.kind, t.nodes, t.links),
        );
        println!(
            "{fp}  {:<6} n={:<4} phases={:<4} messages={:<5} ops={:<8} file={file_bytes}B  topo: {fabric}",
            schedule.algorithm().label(),
            schedule.n(),
            schedule.num_phases(),
            schedule.message_count(),
            schedule.ops(),
        );
    }
    for (fp, err) in &scan.errors {
        if filter.is_some_and(|f| f != *fp) {
            continue;
        }
        shown += 1;
        println!("{fp}  UNREADABLE: {err}");
    }
    if let Some(f) = filter {
        if shown == 0 {
            return Err(format!("no artifact {f} under {}", dir.display()));
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// Daemon-client verbs (live schedd over --addr)
// ---------------------------------------------------------------------------

fn connect(opts: &[String]) -> Result<Client, String> {
    let addr = opt_value(opts, "--addr")?.ok_or("--addr is required for daemon verbs")?;
    let endpoint = Endpoint::parse(addr)?;
    Client::connect(&endpoint).map_err(|e| format!("cannot connect to {endpoint}: {e}"))
}

/// Build one request from the shared submit/bench flags.
fn request_from(opts: &[String]) -> Result<SubmitRequest, String> {
    if let Some(spec) = opt_value(opts, "--topo")? {
        let kind = TopologyKind::parse(spec).map_err(|e| format!("--topo: {e}"))?;
        return request_on(opts, kind);
    }
    let n: usize = opt_parsed(opts, "--n", 16)?;
    if !n.is_power_of_two() {
        return Err(format!("--n {n} is not a power of two (hypercube size)"));
    }
    request_on(
        opts,
        TopologyKind::Hypercube {
            dims: n.trailing_zeros(),
        },
    )
}

fn request_on(opts: &[String], topology: TopologyKind) -> Result<SubmitRequest, String> {
    let n = topology.num_nodes();
    let d: usize = opt_parsed(opts, "--d", 4.min(n - 1))?;
    let bytes: u32 = opt_parsed(opts, "--bytes", 1024)?;
    let seed: u64 = opt_parsed(opts, "--seed", 0)?;
    let scheduler = opt_value(opts, "--scheduler")?
        .unwrap_or("RS_NL")
        .to_string();
    registry::find(&scheduler).ok_or_else(|| format!("unknown scheduler `{scheduler}`"))?;
    let scheme = match opt_value(opts, "--scheme")?.unwrap_or("default") {
        "s1" | "S1" => SchemeChoice::S1,
        "s2" | "S2" => SchemeChoice::S2,
        "default" => SchemeChoice::Default,
        other => return Err(format!("--scheme: `{other}` is not s1|s2|default")),
    };
    // The flags override IPSC_BACKEND and IPSC_COSTMODEL.
    let env = EnvConfig::parse(|key| std::env::var_os(key))?;
    let backend = match opt_value(opts, "--backend")? {
        Some(v) => BackendKind::parse(v).ok_or_else(|| format!("unknown backend `{v}`"))?,
        None => env.backend,
    };
    let cost_model = match opt_value(opts, "--costmodel")? {
        Some(v) => v.parse().map_err(|e| format!("--costmodel: {e}"))?,
        None => env.cost_model,
    };
    Ok(SubmitRequest {
        request_id: 0,
        want_schedule: opt_flag(opts, "--want-schedule"),
        topology,
        scheduler,
        scheme,
        backend,
        seed,
        matrix: Generator::dregular(n, d.min(n - 1), bytes).generate(seed),
        cost_model,
    })
}

const DAEMON_FLAGS: &[&str] = &[
    "--addr",
    "--n",
    "--d",
    "--bytes",
    "--seed",
    "--scheduler",
    "--topo",
    "--scheme",
    "--backend",
    "--costmodel",
    "--requests",
];

fn submit(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, DAEMON_FLAGS, &["--want-schedule"])?;
    let req = request_from(opts)?;
    let mut client = connect(opts)?;
    let t0 = Instant::now();
    let reply = client.submit(req.clone()).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    println!(
        "{}  {} on {} seed={} backend={}{}",
        reply.fingerprint,
        req.scheduler,
        req.topology,
        req.seed,
        req.backend.label(),
        if req.cost_model.is_uniform() {
            String::new()
        } else {
            format!(" cost={}", req.cost_model)
        }
    );
    println!(
        "makespan: {:.3} ms over {} phase(s)  ({})",
        reply.estimate.makespan_ns as f64 / 1e6,
        reply.estimate.phase_end_ns.len(),
        if reply.freshly_compiled {
            "freshly compiled"
        } else {
            "served from cache/dedup"
        },
    );
    if let Some(schedule) = &reply.schedule {
        println!(
            "schedule: n={} phases={} messages={} ops={}",
            schedule.n(),
            schedule.num_phases(),
            schedule.message_count(),
            schedule.ops(),
        );
    }
    println!("round trip: {:.2} ms", elapsed.as_secs_f64() * 1e3);
    Ok(ExitCode::SUCCESS)
}

fn bench(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, DAEMON_FLAGS, &["--want-schedule"])?;
    let requests: usize = opt_parsed(opts, "--requests", 200)?;
    if requests == 0 {
        return Err("--requests must be at least 1".into());
    }
    let req = request_from(opts)?;
    let mut client = connect(opts)?;
    let before = client.stats().map_err(|e| e.to_string())?;
    let mut latencies_us: Vec<u64> = Vec::with_capacity(requests);
    let t0 = Instant::now();
    for _ in 0..requests {
        let t = Instant::now();
        client.submit(req.clone()).map_err(|e| e.to_string())?;
        latencies_us.push(t.elapsed().as_micros() as u64);
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = client.stats().map_err(|e| e.to_string())?;
    latencies_us.sort_unstable();
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p).round() as usize];
    let d_completed = after.completed.saturating_sub(before.completed);
    let d_compiles = after.compiles.saturating_sub(before.compiles);
    println!(
        "{requests} request(s) in {:.2} ms -> {:.0} req/s",
        wall * 1e3,
        requests as f64 / wall.max(1e-9),
    );
    println!(
        "latency: p50 {}us p99 {}us max {}us",
        pct(0.50),
        pct(0.99),
        latencies_us.last().copied().unwrap_or(0),
    );
    println!(
        "daemon dedup: {d_compiles} compile(s) / {d_completed} completed ({:.1}% hit rate)",
        if d_completed == 0 {
            0.0
        } else {
            (1.0 - d_compiles as f64 / d_completed as f64) * 100.0
        },
    );
    Ok(ExitCode::SUCCESS)
}

fn daemon_stats(addr: &str) -> Result<ExitCode, String> {
    let endpoint = Endpoint::parse(addr)?;
    let mut client =
        Client::connect(&endpoint).map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
    let s = client.stats().map_err(|e| e.to_string())?;
    println!(
        "daemon: {endpoint}{}",
        if s.draining != 0 { "  (draining)" } else { "" }
    );
    println!(
        "connections: {} active / {} accepted, {} mid-stream disconnect(s)",
        s.connections_active, s.connections_accepted, s.disconnects_midstream
    );
    println!(
        "requests: {} submitted, {} completed, {} in flight, queue depth {}",
        s.submits, s.completed, s.inflight, s.queue_depth
    );
    println!(
        "dedup: {} compile(s), {} coalesced, hit rate {:.1}%",
        s.compiles,
        s.coalesced,
        s.dedup_hit_rate() * 100.0
    );
    println!(
        "schedule cache: {} request(s), {} mem hit(s), {} store hit(s), {} miss(es)",
        s.cache_requests, s.cache_mem_hits, s.cache_store_hits, s.cache_misses
    );
    println!(
        "estimate cache: {} hit(s), {} miss(es)",
        s.estimate_hits, s.estimate_misses
    );
    println!(
        "incremental: {} delta submit(s), {} base hit(s), {} patch(es) ({:.1}% patch rate), {} fallback(s), {} validation rejection(s)",
        s.delta_submits,
        s.incr_base_hits,
        s.incr_patches,
        s.patch_rate() * 100.0,
        s.incr_fallbacks,
        s.incr_validation_rejections
    );
    println!(
        "rejections: {} quota, {} overload, {} shutdown",
        s.rejected_quota, s.rejected_overload, s.rejected_shutdown
    );
    println!(
        "errors: {} malformed, {} other, {} write failure(s)",
        s.errors_malformed, s.errors_other, s.write_failures
    );
    Ok(ExitCode::SUCCESS)
}

fn shutdown(opts: &[String]) -> Result<ExitCode, String> {
    reject_unknown(opts, &["--addr"], &[])?;
    let mut client = connect(opts)?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("shutdown acknowledged; daemon is draining");
    Ok(ExitCode::SUCCESS)
}
