//! Small shared pieces: the seeded generator behind every op stream,
//! order statistics, `/proc` readers and the JSON the harness prints.

use std::fmt::Write as _;

/// splitmix64 — the one source of randomness in the benchmark. Every op
/// stream is a pure function of `--seed` through this generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform-enough draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The splitmix64 finalizer: a stateless hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte stream; the grid result digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// Sort in place and return percentile `p` (0 for an empty slice).
pub fn percentile_of(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, p)
}

/// Sort in place and return the median (0 for an empty slice).
pub fn median(values: &mut [f64]) -> f64 {
    percentile_of(values, 0.5)
}

/// Process user + system CPU seconds so far, exited threads included.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100,
/// so a tick is 10 ms — phases are seconds long, so that is < 0.1 %.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after it.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace();
    let utime: f64 = fields.nth(11).and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One stretch of a throughput phase: what got done, in how long, at what
/// CPU cost.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub ops: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Generator threads and grid workers: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A JSON number for `v`: every digit Rust prints, `0` for non-finite.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Read one metric's value back out of a [`result_line`]. The harness
/// only ever parses lines it printed itself, so a scan is enough.
pub fn metric_from_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("{}: {{\"value\": ", json_string(name));
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_roundtrips_values() {
        let metrics = [
            Metric {
                name: "latency_p50_us".into(),
                value: 151.25,
                unit: "us",
            },
            Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            },
        ];
        let line = result_line(true, 10, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert_eq!(metric_from_line(&line, "latency_p50_us"), Some(151.25));
        assert_eq!(metric_from_line(&line, "setup_s"), Some(0.5));
        assert_eq!(metric_from_line(&line, "absent"), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
