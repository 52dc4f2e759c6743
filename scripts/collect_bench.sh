#!/usr/bin/env bash
# Runs the perf benches and collects their machine-readable BENCH_*.json
# reports (schema: src/obs/bench_report.h) into one directory, so CI can
# upload the whole set as a single artifact and the throughput trajectory
# accumulates across commits.
#
# Usage:
#   scripts/collect_bench.sh [build-dir] [dest-dir]
#
#   build-dir  cmake build tree containing bench/ (default: build)
#   dest-dir   where the BENCH_*.json files are copied (default: repo root)
#
# Environment:
#   VIRE_BENCH_FILTER  --benchmark_filter regex for the google-benchmark
#                      based benches (default ".": everything). CI sets a
#                      narrow filter to keep the job fast.
#   VIRE_ENFORCE_PERF_FLOOR  "1" => fail if bench_perf_engine_batch falls
#                      more than the tolerance below bench/perf_floor.json
#                      (scripts/check_perf_floor.py). Unset => report only.
#   VIRE_BATCH_TAGS/VIRE_BATCH_ROUNDS    workload of bench_perf_engine_batch
#                      (default 529 tags, the dense_fleet density: about a
#                      third of its locates take the union fallback, and
#                      the bench fails when none does)
#   VIRE_FAULT_TAGS/VIRE_FAULT_ROUNDS    workload of bench_fault_degradation
#   VIRE_RECOVERY_POLLS/VIRE_RECOVERY_READINGS/VIRE_RECOVERY_CHECKPOINTS
#                      workload of bench_recovery (journaled polls, synthetic
#                      WAL appends, checkpoint-write repetitions); its report
#                      also carries the checkpoint-bounded recovery time at
#                      10 and 40 checkpoint intervals and the WAL append rate
#                      with and without 64-reading group writes
#   VIRE_SERVICE_TAGS/VIRE_SERVICE_ROUNDS/VIRE_SERVICE_QUERIES
#                      workload of bench_service_scale (tags, poll rounds,
#                      latest_fix queries per round)
#   VIRE_JOURNAL_OPS/VIRE_JOURNAL_BATCH/VIRE_JOURNAL_RECOVERS
#                      workload of bench_supervisor_journal (journaled
#                      batches, readings per batch, recover repetitions)
#   VIRE_OBS_POLLS/VIRE_OBS_FLEET_POLLS   workload of bench_obs_overhead
#                      (engine polls per tracing mode, fleet polls per mode)
set -euo pipefail

BUILD_DIR="${1:-build}"
DEST_DIR="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
FILTER="${VIRE_BENCH_FILTER:-.}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "collect_bench: no bench/ under '$BUILD_DIR' — build the repo first" >&2
  exit 1
fi

# Resolve before cd: a relative dest (or script path) stays anchored at the
# caller's cwd.
mkdir -p "$DEST_DIR"
DEST_DIR="$(cd "$DEST_DIR" && pwd)"
SCRIPT_DIR="$(cd "$(dirname "$0")" && pwd)"

# The benches write bench_out/ relative to their working directory.
cd "$BUILD_DIR"

echo "== bench_perf_engine_batch =="
VIRE_TAGS="${VIRE_BATCH_TAGS:-529}" VIRE_ROUNDS="${VIRE_BATCH_ROUNDS:-10}" \
  ./bench/bench_perf_engine_batch

echo "== bench_fault_degradation =="
VIRE_TAGS="${VIRE_FAULT_TAGS:-4}" VIRE_ROUNDS="${VIRE_FAULT_ROUNDS:-4}" \
  ./bench/bench_fault_degradation

echo "== bench_recovery =="
VIRE_RECOVERY_POLLS="${VIRE_RECOVERY_POLLS:-12}" \
VIRE_RECOVERY_READINGS="${VIRE_RECOVERY_READINGS:-100000}" \
VIRE_RECOVERY_CHECKPOINTS="${VIRE_RECOVERY_CHECKPOINTS:-10}" \
  ./bench/bench_recovery

echo "== bench_service_scale =="
VIRE_TAGS="${VIRE_SERVICE_TAGS:-16}" VIRE_ROUNDS="${VIRE_SERVICE_ROUNDS:-4}" \
VIRE_QUERIES="${VIRE_SERVICE_QUERIES:-50}" \
  ./bench/bench_service_scale

echo "== bench_supervisor_journal =="
VIRE_JOURNAL_OPS="${VIRE_JOURNAL_OPS:-20000}" \
VIRE_JOURNAL_BATCH="${VIRE_JOURNAL_BATCH:-8}" \
VIRE_JOURNAL_RECOVERS="${VIRE_JOURNAL_RECOVERS:-5}" \
  ./bench/bench_supervisor_journal

echo "== bench_obs_overhead =="
VIRE_OBS_POLLS="${VIRE_OBS_POLLS:-24}" \
VIRE_OBS_FLEET_POLLS="${VIRE_OBS_FLEET_POLLS:-8}" \
  ./bench/bench_obs_overhead

echo "== bench_perf_localize =="
./bench/bench_perf_localize --benchmark_filter="$FILTER"

echo "== bench_perf_interpolation =="
./bench/bench_perf_interpolation --benchmark_filter="$FILTER"

count=0
for report in bench_out/BENCH_*.json; do
  [ -e "$report" ] || continue
  cp "$report" "$DEST_DIR/"
  count=$((count + 1))
done

if [ "$count" -eq 0 ]; then
  echo "collect_bench: no BENCH_*.json produced" >&2
  exit 1
fi
echo "collect_bench: copied $count report(s) to $DEST_DIR"

# Recovery must stay flat as the WAL's history grows; print the pair (and
# the group-write gain) so the trajectory shows it without opening the JSON.
if [ -f bench_out/BENCH_recovery.json ]; then
  python3 - bench_out/BENCH_recovery.json <<'EOF'
import json, sys
results = json.load(open(sys.argv[1]))["results"]
print("collect_bench: recovery_ms at 10 / 40 checkpoint intervals: "
      f"{results['recovery_ms_10_intervals']:.3f} / "
      f"{results['recovery_ms_40_intervals']:.3f}; WAL append fsync/64 "
      f"{results['wal_append_fsync64_per_sec']:.0f} -> grouped "
      f"{results['wal_append_grouped_fsync64_per_sec']:.0f} readings/s")
EOF
fi

# Perf-regression guard: compare the engine-batch throughput against the
# checked-in floor. Advisory by default (machines differ); CI's metrics job
# sets VIRE_ENFORCE_PERF_FLOOR=1 to make a >tolerance drop fail the build.
for guarded in BENCH_perf_engine_batch.json BENCH_service_scale.json \
               BENCH_obs_overhead.json BENCH_supervisor_journal.json; do
  [ -f "bench_out/$guarded" ] || continue
  if [ "${VIRE_ENFORCE_PERF_FLOOR:-0}" = "1" ]; then
    python3 "$SCRIPT_DIR/check_perf_floor.py" "bench_out/$guarded"
  else
    python3 "$SCRIPT_DIR/check_perf_floor.py" "bench_out/$guarded" \
      || echo "collect_bench: perf floor check failed (advisory; set VIRE_ENFORCE_PERF_FLOOR=1 to enforce)" >&2
  fi
done
