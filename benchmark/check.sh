#!/usr/bin/env bash
# Gate for the nested benchmark workspace: format, lint, unit tests, and
# the smoke run (all six workloads at 1/20 size, same correctness checks).
# The root scripts/ci.sh does not cover this directory.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo run --release --offline -- --smoke
