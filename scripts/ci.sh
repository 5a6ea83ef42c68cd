#!/usr/bin/env bash
# Continuous-integration gate.
#
#   scripts/ci.sh          # tier-1 gate + clippy on the workspace
#   scripts/ci.sh --full   # additionally run every workspace test
#
# Tier-1 (ROADMAP.md) is the root package: release build + its tests.
# The nn crate's unit tests (kernel parity, the imputer's bit-identity
# digests) and the trees crate's (the binner's bit-identity oracle) are
# not in the root package, so they run next.
# Clippy runs with -D warnings so lints cannot accumulate silently.
# The benchmark (benchmark/, a workspace of its own that clippy never
# sees) is compiled against the current crates and unit-tested.
set -euo pipefail
cd "$(dirname "$0")/.."

echo '>>> tier-1: cargo build --release'
cargo build --release

echo '>>> tier-1: cargo test -q'
cargo test -q

echo '>>> nn unit tests (kernel parity, imputer golden digests)'
cargo test -q -p hotspot-nn

echo '>>> trees unit tests (binner bit identity, split engines)'
cargo test -q -p hotspot-trees

echo '>>> clippy (workspace, -D warnings)'
cargo clippy --workspace --all-targets -- -D warnings

echo '>>> benchmark: compile against the current crates + its unit tests'
cargo test --offline --manifest-path benchmark/Cargo.toml

echo '>>> observability smoke'
scripts/obs_smoke.sh

echo '>>> sweep shard smoke (3-shard merge byte identity, default and 1 MiB cache)'
scripts/sweep_shard_smoke.sh

if [[ "${1:-}" == "--full" ]]; then
  echo '>>> full workspace tests'
  cargo test --workspace -q
fi

echo 'CI gate passed.'
