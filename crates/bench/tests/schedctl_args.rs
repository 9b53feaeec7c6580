//! `schedctl` argument errors that must be reported before any daemon is
//! contacted: each run points at an endpoint where nothing listens, so a
//! check that came after connecting would report the connection instead.

use std::process::Command;

fn schedctl(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_schedctl"))
        .args(args)
        .env_remove("IPSC_BACKEND")
        .env_remove("IPSC_COSTMODEL")
        .output()
        .expect("spawn schedctl");
    (
        out.status.code(),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn bench_rejects_zero_requests_before_connecting() {
    let nowhere = format!("unix:/nonexistent/schedctl-{}.sock", std::process::id());
    let (code, stderr) = schedctl(&["bench", "--addr", &nowhere, "--requests", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr, "schedctl: --requests must be at least 1\n");
    // Without the zero, the same run fails on the connection.
    let (code, stderr) = schedctl(&["bench", "--addr", &nowhere, "--requests", "1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("cannot connect"), "{stderr}");
}
