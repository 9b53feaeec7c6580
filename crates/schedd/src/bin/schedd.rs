//! `schedd` — the scheduling daemon.
//!
//! ```text
//! schedd --unix /tmp/schedd.sock [--workers 2] [--queue 1024]
//! schedd --tcp 127.0.0.1:7077 --store /var/cache/ipsc-sched
//! ```
//!
//! Serves schedule requests until a client sends a `Shutdown` frame
//! (`schedctl shutdown --addr ...`), then drains admitted work and
//! exits 0.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use commcache::CacheConfig;
use schedd::{Endpoint, ProtocolLimits, Server, ServiceConfig};

const USAGE: &str = "\
schedd - scheduling daemon serving compiled schedules + cost estimates

USAGE:
    schedd (--unix <path> | --tcp <host:port> | --addr <endpoint>) [options]

OPTIONS:
    --unix <path>        listen on a Unix domain socket (replaces only a
                         stale socket at <path>; anything else is an error)
    --tcp <host:port>    listen on TCP (port 0 picks a free port)
    --addr <endpoint>    unix:<path> or tcp:<host:port>
    --workers <n>        compile worker threads        [default: 2]
    --queue <n>          compile queue capacity        [default: 1024]
    --quota <n>          per-connection in-flight cap  [default: 256]
    --max-nodes <n>      largest request node count    [default: 1024]
                         (raises the dimension cap to ceil(log2(n));
                         the matrix-cell allocation guard stays in force)
    --store <dir>        persistent artifact store for the schedule cache
    --estimate-cache <n> estimate cache entry cap      [default: 65536]
    --incremental        retain recent base instances and serve drifted
                         matrices by patching (enables SubmitDelta)
    -h, --help           print this help
";

fn parse_args() -> Result<(ServiceConfig, Endpoint), String> {
    let mut endpoint: Option<Endpoint> = None;
    let mut config = ServiceConfig::default();
    let mut incremental = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--unix" => endpoint = Some(Endpoint::Unix(value(args, "--unix")?)),
            "--tcp" => endpoint = Some(Endpoint::Tcp(value(args, "--tcp")?)),
            "--addr" => endpoint = Some(Endpoint::parse(&value::<String>(args, "--addr")?)?),
            "--workers" => config.workers = value(args, "--workers")?,
            "--queue" => config.queue_capacity = value(args, "--queue")?,
            "--quota" => config.max_inflight_per_client = value(args, "--quota")?,
            "--max-nodes" => {
                let nodes: u64 = value(args, "--max-nodes")?;
                if nodes < 2 {
                    return Err("--max-nodes: need at least 2 nodes".into());
                }
                config.limits = ProtocolLimits::with_max_nodes(nodes);
            }
            "--store" => config.cache = CacheConfig::persistent(value::<String>(args, "--store")?),
            "--estimate-cache" => config.estimate_cache_capacity = value(args, "--estimate-cache")?,
            "--incremental" => incremental = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let endpoint = endpoint.ok_or("one of --unix/--tcp/--addr is required")?;
    // Applied last so it composes with `--store` (which replaces the
    // cache config wholesale).
    if incremental {
        config.cache = config.cache.incremental_default();
    }
    Ok((config, endpoint))
}

/// The argument after `flag`, parsed.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let value = args
        .next()
        .ok_or_else(|| format!("flag {flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    let (config, endpoint) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("schedd: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let handle = match Server::start(config, &endpoint) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("schedd: cannot listen on {endpoint}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("schedd: listening on {}", handle.endpoint());
    handle.wait_shutdown_requested();
    println!("schedd: shutdown requested, draining");
    let stats = handle.stats();
    handle.shutdown();
    println!(
        "schedd: served {} requests ({} compiles, {} coalesced, dedup hit rate {:.1}%), exiting",
        stats.completed,
        stats.compiles,
        stats.coalesced,
        stats.dedup_hit_rate() * 100.0
    );
    ExitCode::SUCCESS
}
