//! What the benchmark measures, as data: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` is
//! generated from these tables (`run.sh --emit-spec`) and a test keeps the
//! two in step; what each metric means, and which end-to-end metric each
//! layer metric should move, is in the README's tables.

use crate::util::{json_number, json_string};

/// Seconds one run measures when `--seconds` is not given; also the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

/// Seed of a run when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Registry entries the layer tables name. A test pins this list to
/// `commsched::registry::all()`.
pub const ENTRIES: [&str; 8] = [
    "AC",
    "LP",
    "RS_N",
    "RS_NL",
    "GREEDY",
    "RS_N_DET",
    "RS_NL_NOPAIR",
    "RS_NL_DET",
];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "serve_hot",
        why: "schedule once, execute many: every request repeats a fingerprint, so wire, fingerprint, topology build and cache reads do all the work",
    },
    WorkloadSpec {
        name: "serve_cold",
        why: "never-repeated seeds: every request compiles, prices and inserts into a full LRU, so the cache's write side and commsched dominate",
    },
    WorkloadSpec {
        name: "serve_drift",
        why: "32 drifting chains of repeats and 1-4 edit deltas: the patch path (resolve_delta, incremental patch, register) does the work",
    },
    WorkloadSpec {
        name: "grid_paper",
        why: "the paper's Table 1 grid on the DES backend without the daemon: simnet's event engine dominates and the wire reads zero",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    /// All six sit at the driver's cap: on the seed commit the spread over
    /// ten seeds is 2–5 % while the host is quiet, but the shared machine
    /// has episodes of a minute or more in which a whole run reads 20–40 %
    /// slow with no change of code (see README, "Noise").
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn layer(name: &str, unit: &'static str, better: &'static str) -> Layer {
    Layer {
        name: name.to_string(),
        unit,
        better,
    }
}

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<Layer> {
    let mut out = vec![
        layer("schedd.protocol.encode_request_us", "us", "lower"),
        layer("schedd.protocol.decode_request_us", "us", "lower"),
        layer("schedd.protocol.encode_response_us", "us", "lower"),
        layer("schedd.protocol.decode_response_us", "us", "lower"),
        layer("schedd.protocol.frame_us", "us", "lower"),
        layer("schedd.protocol.request_bytes", "B", "lower"),
        layer("schedd.protocol.response_bytes", "B", "lower"),
        layer("schedd.service.admit_us", "us", "lower"),
        layer("schedd.service.process_us", "us", "lower"),
        layer("schedd.service.resolve_delta_us", "us", "lower"),
        layer("schedd.service.estimate_memo_hit_share", "share", "higher"),
        layer("schedd.server.transport_us", "us", "lower"),
        layer("schedd.queue.push_pop_us", "us", "lower"),
        layer("schedd.queue.rejected_share", "share", "lower"),
        layer("schedd.dedup.coalesced_share", "share", "higher"),
        layer("schedd.server.write_failures", "count", "lower"),
        layer("schedd.client.latency_p99_us", "us", "lower"),
        layer("schedd.client.latency_max_us", "us", "lower"),
        layer("schedd.client.latency_samples", "count", "higher"),
        layer("topo.build_us", "us", "lower"),
        layer("topo.route_us", "us", "lower"),
        layer("commcache.fingerprint_us", "us", "lower"),
        layer("commcache.lookup_self_us", "us", "lower"),
        layer("commcache.lru.hit_share", "share", "higher"),
        layer("commcache.lru.evictions", "count", "lower"),
        layer("commcache.incremental.patch_us", "us", "lower"),
        layer("commcache.incremental.register_us", "us", "lower"),
        layer("commcache.incremental.patch_share", "share", "higher"),
        layer("commcache.incremental.fallback_share", "share", "lower"),
        layer("commcache.artifact.encode_us", "us", "lower"),
        layer("commcache.artifact.decode_us", "us", "lower"),
        layer("commcache.store.write_us", "us", "lower"),
        layer("commcache.store.read_us", "us", "lower"),
    ];
    for entry in ENTRIES {
        out.push(layer(
            &format!("commsched.compile.{entry}_us"),
            "us",
            "lower",
        ));
    }
    for entry in ENTRIES {
        out.push(layer(
            &format!("commsched.phases.{entry}"),
            "count",
            "lower",
        ));
    }
    out.extend([
        layer("commsched.validate_us", "us", "lower"),
        layer("commsched.delta.apply_us", "us", "lower"),
        layer("commrt.estimate.analytic_us", "us", "lower"),
        layer("commrt.estimate.des_us", "us", "lower"),
        layer("commrt.compile_programs_us", "us", "lower"),
        layer("commrt.grid.executor_efficiency", "share", "higher"),
        layer("simnet.des.simulate_us", "us", "lower"),
        layer("simnet.des.ns_per_event", "ns", "lower"),
        layer("simnet.des.events", "count", "lower"),
        layer("simnet.des.peak_transfers_live", "count", "lower"),
        layer("simnet.des.state_bytes", "B", "lower"),
        layer("simnet.analytic.price_us", "us", "lower"),
        layer("simnet.des_parallel.speedup", "ratio", "higher"),
        layer("workloads.generate_us", "us", "lower"),
        layer("trace.coverage_share", "share", "higher"),
        layer("trace.overhead_share", "share", "lower"),
    ]);
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                json_number(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(&m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipsc_sched::commsched::registry;

    #[test]
    fn entries_are_the_registry() {
        let names: Vec<&str> = registry::all().iter().map(|e| e.name()).collect();
        assert_eq!(names, ENTRIES);
    }

    #[test]
    fn names_and_limits_meet_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(benchmark_json().len() <= 64 << 10);
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "run benchmark/run.sh --emit-spec > BENCHMARK.json"
        );
    }
}
