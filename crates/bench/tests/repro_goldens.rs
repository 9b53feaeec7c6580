//! The reproduction binaries' stdout, pinned as committed goldens.
//!
//! Each binary runs as a child process in a fresh working directory at
//! `REPRO_SAMPLES=2 IPSC_THREADS=2` (`simcheck --dims 3,4,5,6` at
//! `REPRO_SAMPLES=2`), with every other variable the binaries read
//! removed, so the caller's shell cannot move an answer. The outputs are
//! deterministic: identical across runs, across debug and release builds,
//! and across worker-thread counts. A moved figure is therefore a golden
//! diff under `tests/goldens/`, reviewed like code; on a mismatch the
//! actual stdout is left beside the test's scratch directories for
//! inspection.
//!
//! `table1` and `fig_topo` are also pinned under `IPSC_BACKEND=analytic`,
//! and `table1` must not move under the in-memory schedule cache or an
//! explicit uniform cost model.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every variable a repro binary reads; each run starts from none of them.
const ENV_VARS: [&str; 5] = [
    "REPRO_SAMPLES",
    "IPSC_CACHE",
    "IPSC_BACKEND",
    "IPSC_COSTMODEL",
    "IPSC_THREADS",
];

/// The pinned sample and thread counts.
const BASE_ENV: [(&str, &str); 2] = [("REPRO_SAMPLES", "2"), ("IPSC_THREADS", "2")];

/// Run `exe` with `args` in a fresh working directory under `env`, and
/// return its stdout.
fn run(tag: &str, exe: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let cwd = scratch_dir().join(format!("run-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("create scratch cwd");
    let mut cmd = Command::new(exe);
    cmd.args(args).current_dir(&cwd);
    for var in ENV_VARS {
        cmd.env_remove(var);
    }
    let out = cmd
        .envs(env.iter().copied())
        .output()
        .expect("spawn binary");
    let _ = std::fs::remove_dir_all(&cwd);
    assert!(
        out.status.success(),
        "{tag}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("repro_goldens")
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"))
}

/// Compare `actual` to the golden `name`, naming the first differing
/// line; the actual output is written beside the scratch directories.
fn assert_golden(name: &str, tag: &str, actual: &str) {
    let golden = std::fs::read_to_string(golden_path(name))
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path(name).display()));
    if actual == golden {
        return;
    }
    let dump = scratch_dir().join(format!("{tag}.actual.txt"));
    let _ = std::fs::create_dir_all(scratch_dir());
    let _ = std::fs::write(&dump, actual);
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            a,
            g,
            "{tag}: line {} differs from goldens/{name}.txt (actual in {})",
            i + 1,
            dump.display()
        );
    }
    panic!(
        "{tag}: {} lines vs {} in goldens/{name}.txt (actual in {})",
        actual.lines().count(),
        golden.lines().count(),
        dump.display()
    );
}

/// Pin `exe`'s stdout at the base environment plus `extra` to the golden
/// `name`.
fn pin(name: &str, exe: &str, extra: &[(&str, &str)]) {
    let tag: String = std::iter::once(name)
        .chain(extra.iter().map(|(_, value)| *value))
        .collect::<Vec<_>>()
        .join("-");
    let mut env = BASE_ENV.to_vec();
    env.extend_from_slice(extra);
    assert_golden(name, &tag, &run(&tag, exe, &[], &env));
}

#[test]
fn table1() {
    pin("table1", env!("CARGO_BIN_EXE_table1"), &[]);
}

#[test]
fn table1_analytic() {
    let analytic = [("IPSC_BACKEND", "analytic")];
    pin("table1_analytic", env!("CARGO_BIN_EXE_table1"), &analytic);
}

#[test]
fn table1_is_unmoved_by_the_schedule_cache() {
    pin(
        "table1",
        env!("CARGO_BIN_EXE_table1"),
        &[("IPSC_CACHE", "mem")],
    );
}

#[test]
fn table1_is_unmoved_by_an_explicit_uniform_cost_model() {
    let uniform = [("IPSC_COSTMODEL", "uniform")];
    pin("table1", env!("CARGO_BIN_EXE_table1"), &uniform);
}

#[test]
fn fig5() {
    pin("fig5", env!("CARGO_BIN_EXE_fig5"), &[]);
}

#[test]
fn fig6to9() {
    pin("fig6to9", env!("CARGO_BIN_EXE_fig6to9"), &[]);
}

#[test]
fn fig10to11() {
    pin("fig10to11", env!("CARGO_BIN_EXE_fig10to11"), &[]);
}

#[test]
fn ablations() {
    pin("ablations", env!("CARGO_BIN_EXE_ablations"), &[]);
}

#[test]
fn fig_topo() {
    pin("fig_topo", env!("CARGO_BIN_EXE_fig_topo"), &[]);
}

#[test]
fn fig_topo_analytic() {
    let analytic = [("IPSC_BACKEND", "analytic")];
    pin(
        "fig_topo_analytic",
        env!("CARGO_BIN_EXE_fig_topo"),
        &analytic,
    );
}

#[test]
fn fig_faults() {
    pin("fig_faults", env!("CARGO_BIN_EXE_fig_faults"), &[]);
}

#[test]
fn simcheck() {
    let stdout = run(
        "simcheck",
        env!("CARGO_BIN_EXE_simcheck"),
        &["--dims", "3,4,5,6"],
        &[("REPRO_SAMPLES", "2")],
    );
    assert_golden("simcheck", "simcheck", &stdout);
}
