#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it; see --help.
# Run from anywhere: everything is relative to the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/ipsc-benchmark" "$@"
