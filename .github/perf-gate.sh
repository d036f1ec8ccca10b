#!/usr/bin/env bash
# Perf gate: build `powifi-benchmark` at BASE and at the checked-out HEAD,
# run both on this machine, and judge HEAD against BASE with BASE's
# `compare`, so a change cannot loosen its own bounds.
#
#   .github/perf-gate.sh BASE_SHA
#
# Run it from the root of a full-history checkout. Everything it writes
# goes under ./perf-gate: BASE's worktree, the two target dirs, the
# results files (`*.json`), the run logs and the compare tables
# (`compare*.txt`). Exit 0 passes, anything else fails.
#
# A `worse` row or a rise in the failed fraction is measured once more
# with the order swapped (HEAD first), and fails the gate only if that
# second compare agrees: `run` measures one side after the other, and a
# shared VM drifts between them. One side's `run` takes about 16 minutes
# on a 2-core VM.
set -euo pipefail

base=${1:?usage: .github/perf-gate.sh BASE_SHA}
if [ -z "${base//0/}" ]; then
  echo "perf gate: no base commit (BASE is all zeros), nothing to compare against"
  exit 0
fi
if ! git cat-file -e "$base:benchmark/Cargo.toml" 2>/dev/null; then
  echo "perf gate: $base is not a commit with benchmark/Cargo.toml, nothing to compare against"
  exit 0
fi

out=$PWD/perf-gate
src_base=$out/base-src
mkdir -p "$out"
rm -f "$out"/*.json "$out"/*.txt "$out"/*.log
git worktree remove --force "$src_base" 2>/dev/null || rm -rf "$src_base"
git worktree prune
git worktree add --detach "$src_base" "$base"
trap 'git worktree remove --force "$src_base"' EXIT

echo "perf gate: base $(git rev-parse "$base"), head $(git rev-parse HEAD)"
for side in base head; do
  src=$PWD
  [ "$side" = base ] && src=$src_base
  cargo build --release --offline --quiet \
    --manifest-path "$src/benchmark/Cargo.toml" --target-dir "$out/target-$side"
done
bin_base=$out/target-base/release/powifi-benchmark
bin_head=$out/target-head/release/powifi-benchmark

# measure SIDE NAME: SIDE's `run` from its own checkout, so the results
# name its commit; a digest mismatch or a failed unit exits non-zero.
measure() {
  local src=$PWD bin=$bin_head
  if [ "$1" = base ]; then src=$src_base bin=$bin_base; fi
  echo "perf gate: measuring $1 -> $2.json"
  if ! (cd "$src" && "$bin" run --out "$out/$2.json") > "$out/$2.log"; then
    tail -n 40 "$out/$2.log"
    echo "perf gate: FAIL, $1's run exited non-zero (see $2.log)"
    exit 1
  fi
}

# judge BASE_RESULTS HEAD_RESULTS TABLE: BASE's compare, exit 0 or 1.
judge() {
  local rc=0
  "$bin_base" compare "$out/$1.json" "$out/$2.json" > "$out/$3.txt" || rc=$?
  cat "$out/$3.txt"
  if grep -q "fingerprints differ\|seeds or seconds differ" "$out/$3.txt"; then
    echo "perf gate: FAIL, the two sides are not comparable, so no row could be judged"
    exit 1
  fi
  if [ "$rc" -gt 1 ]; then
    echo "perf gate: FAIL, compare exited $rc"
    exit 1
  fi
  return "$rc"
}

measure base base
measure head head
if judge base head compare; then
  echo "perf gate: PASS"
  exit 0
fi
echo "perf gate: regression flagged; measuring again with HEAD first"
measure head head-2
measure base base-2
if judge base-2 head-2 compare-swapped; then
  echo "perf gate: PASS, the swapped re-measure did not confirm the regression"
  exit 0
fi
echo "perf gate: FAIL, the regression held with the order swapped"
exit 1
