#!/usr/bin/env bash
# Sharded-sweep smoke: the collector's byte-identity invariant, end to
# end across real processes.
#
# Runs the same reduced Table III sweep three times — once
# single-process, then twice as a 3-shard multi-process run (driver +
# 3 workers + merge), at the default feature-plane cache budget and at
# a 1 MiB budget that forces evictions — and asserts the deterministic
# artifacts are byte-identical to the single-process reference:
#
#   <base>.merged.tsv           canonical TSV (plan order, no wall clock)
#   <base>.merged.metrics.json  deterministic metrics projection
#
# Then checks the guard rails: shard manifests of one run share a
# config fingerprint (manifest_check --compare exits 0), and a merge
# over shards journaled under a different seed is refused.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=target/sweep-shard-smoke
rm -rf "$OUT"
mkdir -p "$OUT/single" "$OUT/sharded" "$OUT/tiny-cache" "$OUT/mixed"

cargo build --release -p hotspot-bench --bin sweep_worker --bin manifest_check

# 80 sectors × 10 weeks, t-step 12 → an 18-cell grid (3 models × 1
# forecast day × 3 horizons × 2 windows) where every cell evaluates
# (hot positives exist on each eval day, so the TSV carries real
# floats): small enough for CI, sharded non-trivially 3 ways. No
# --cell-deadline-ms: byte identity is only promised for clean runs
# (timeouts are timing-dependent).
ARGS=(--sectors 80 --weeks 10 --seed 7 --trees 8 --train-days 4 --t-step 12)

echo '>>> sweep shard smoke: single-process reference'
./target/release/sweep_worker "${ARGS[@]}" --checkpoint "$OUT/single/sweep.tsv"

echo '>>> sweep shard smoke: 3-shard multi-process run'
./target/release/sweep_worker "${ARGS[@]}" --shards 3 --checkpoint "$OUT/sharded/sweep.tsv"

echo '>>> sweep shard smoke: byte identity (TSV + metrics projection)'
cmp "$OUT/single/sweep.merged.tsv" "$OUT/sharded/sweep.merged.tsv"
cmp "$OUT/single/sweep.merged.metrics.json" "$OUT/sharded/sweep.merged.metrics.json"

echo '>>> sweep shard smoke: 3-shard run with a 1 MiB plane cache'
./target/release/sweep_worker "${ARGS[@]}" --shards 3 --feature-cache-mb 1 \
  --checkpoint "$OUT/tiny-cache/sweep.tsv"
cmp "$OUT/single/sweep.merged.tsv" "$OUT/tiny-cache/sweep.merged.tsv"
cmp "$OUT/single/sweep.merged.metrics.json" "$OUT/tiny-cache/sweep.merged.metrics.json"
# The budget must really bite, or this run only repeats the one above.
grep -Eq '"features\.cache\.evict": *[1-9]' "$OUT/tiny-cache/sweep.shard-0-of-3.manifest.json" || {
  echo 'sweep shard smoke: the 1 MiB cache evicted nothing in shard 0' >&2
  exit 1
}

echo '>>> sweep shard smoke: shard manifests share the config fingerprint'
./target/release/manifest_check --compare \
  "$OUT/sharded/sweep.shard-0-of-3.manifest.json" \
  "$OUT/sharded/sweep.shard-1-of-3.manifest.json"

echo '>>> sweep shard smoke: mixed-fingerprint merge is refused'
# Shard 0 journaled under a different seed, shards 1–2 from the good
# run: the collector must refuse the set, not silently merge it.
./target/release/sweep_worker "${ARGS[@]}" --seed 8 \
  --shards 3 --shard 0 --checkpoint "$OUT/mixed/sweep.tsv" > /dev/null
cp "$OUT/sharded/sweep.shard-1-of-3.tsv" "$OUT/sharded/sweep.shard-1-of-3.manifest.json" \
   "$OUT/sharded/sweep.shard-2-of-3.tsv" "$OUT/sharded/sweep.shard-2-of-3.manifest.json" \
   "$OUT/mixed/"
if ./target/release/sweep_worker "${ARGS[@]}" --shards 3 --merge \
     --checkpoint "$OUT/mixed/sweep.tsv" 2> "$OUT/mixed/refusal.txt"; then
  echo 'sweep shard smoke: mixed-fingerprint merge was NOT refused' >&2
  exit 1
fi
grep -q fingerprint "$OUT/mixed/refusal.txt" || {
  echo 'sweep shard smoke: refusal does not mention the fingerprint' >&2
  cat "$OUT/mixed/refusal.txt" >&2
  exit 1
}

echo 'sweep shard smoke passed.'
