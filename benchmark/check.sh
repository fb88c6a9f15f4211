#!/usr/bin/env bash
# The benchmark package's own gate: format, lint, unit tests, and a smoke
# run of all seven workloads (1 repetition at 1/20 size) whose result file
# is parsed back through ib_runtime::Json::parse by the binary itself.
# Offline, like everything else in the workspace.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --offline --all-targets -- -D warnings

echo "== test (offline) =="
cargo test --offline

echo "== smoke run =="
start=$(date +%s)
cargo run --release --offline --quiet -- run --smoke --out out/smoke.json
took=$(( $(date +%s) - start ))
echo "smoke run took ${took}s (build included)"
