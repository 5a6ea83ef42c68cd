#!/usr/bin/env bash
# Continuous-integration gate.
#
#   scripts/ci.sh          # tier-1 gate + clippy on the workspace
#   scripts/ci.sh --full   # additionally run every workspace test
#
# Tier-1 (ROADMAP.md) is the root package: release build + its tests.
# Clippy runs with -D warnings so lints cannot accumulate silently.
# The benchmark (benchmark/, a workspace of its own that clippy never
# sees) is compiled against the current crates and unit-tested.
set -euo pipefail
cd "$(dirname "$0")/.."

echo '>>> tier-1: cargo build --release'
cargo build --release

echo '>>> tier-1: cargo test -q'
cargo test -q

echo '>>> clippy (workspace, -D warnings)'
cargo clippy --workspace --all-targets -- -D warnings

echo '>>> benchmark: compile against the current crates + its unit tests'
cargo test --offline --manifest-path benchmark/Cargo.toml

echo '>>> observability smoke'
scripts/obs_smoke.sh

echo '>>> perf baseline (deterministic pinned counters)'
scripts/perf_baseline.sh

echo '>>> sweep shard smoke (3-shard merge byte identity)'
scripts/sweep_shard_smoke.sh

echo '>>> feature-cache parity smoke (cached vs uncached byte identity)'
scripts/cache_parity_smoke.sh

if [[ "${1:-}" == "--full" ]]; then
  echo '>>> full workspace tests'
  cargo test --workspace -q
fi

echo 'CI gate passed.'
