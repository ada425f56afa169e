#!/usr/bin/env bash
# Build ftc-server (the repository's own package) and the benchmark
# (this directory's package), then run the benchmark with the given
# arguments. Run from anywhere; everything is relative to the repo root.
#
# With CARGO_TARGET_DIR set (the driver sets it) both builds land there;
# without it the server goes to target/ and the benchmark to
# benchmark/target/, cargo's defaults for the two workspaces.
set -euo pipefail
cd "$(dirname "$0")/.."

server_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"

# Build chatter goes to stderr: stdout's last line is the result object.
cargo build --release --offline --bin ftc-server >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "$bench_target/release/ftc-benchmark" --server "$server_target/release/ftc-server" "$@"
