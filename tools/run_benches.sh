#!/usr/bin/env bash
# Benchmark sweep driver: runs every bench binary, collects the per-binary
# JSON records (AERIE_BENCH_JSON), and aggregates them into BENCH_<date>.json
# at the repo root — the trajectory file that bench_diff.py gates on.
#
#   tools/run_benches.sh            full sweep (~minutes; nightly CI)
#   tools/run_benches.sh --quick    reduced scales (~1 min; per-PR CI)
#
# Options:
#   --quick        reduced scales/windows for CI and smoke runs
#   --only REGEX   run only benches whose name matches REGEX (the aggregate
#                  then contains just those records; the CI direct-path
#                  lane runs ablation_direct_path alone this way)
#   --out FILE     aggregate output path (default BENCH_<YYYYMMDD>.json)
#   --build-dir D  build tree containing bench/ (default <repo>/build)
#   --skip-traces  skip the Perfetto trace passes (full mode only)
#
# Reproducibility: AERIE_BENCH_SEED (default 42) seeds every workload RNG;
# AERIE_GIT_SHA is stamped into every record. Scales are sized for a small
# host (fig5 and table3 print the usable CPU count in their headers);
# AERIE_BENCH_SCALE=1.0 with longer windows reproduces the paper's
# configurations on bigger machines.
#
# Attribution: every bench runs once, in counters mode, with the SIGPROF
# sampler (src/obs/profiler.cc) on. Its record's per-layer cpu_us and the
# hot spans are that run's samples, and the lock/rpc/other waits are that
# run's instrumented waits. Each bench also leaves <name>.folded +
# <name>.prof.json under bench_reports/profiles/ (feed the .folded file to
# flamegraph.pl or speedscope).
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="$ROOT/build"
QUICK=0
SKIP_TRACES=0
OUT=""
ONLY=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --only) ONLY="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --build-dir) BUILD="$2"; shift 2 ;;
    --skip-traces) SKIP_TRACES=1; shift ;;
    -h|--help) sed -n '2,17p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) echo "run_benches: unknown option '$1' (try --help)" >&2; exit 2 ;;
  esac
done

if [[ ! -x "$BUILD/bench/table1_microbench" ]]; then
  echo "run_benches: bench binaries missing; build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

export AERIE_BENCH_SEED="${AERIE_BENCH_SEED:-42}"
export AERIE_GIT_SHA="${AERIE_GIT_SHA:-$(git -C "$ROOT" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)}"
if [[ -z "$OUT" ]]; then
  OUT="$ROOT/BENCH_$(date -u +%Y%m%d).json"
fi

REPORTS="$BUILD/bench_reports"
# Profile artifacts live in a subdirectory so the aggregate step's
# $REPORTS/*.json glob only ever sees bench records.
PROFILES="$REPORTS/profiles"
rm -rf "$REPORTS"
mkdir -p "$REPORTS" "$PROFILES"

# run_bench <binary> <scale> <seconds> [threads] [extra args...]
# One profiled run per binary: the record, the folded stacks and the profile
# JSON all describe the run whose numbers the record reports. The profile
# pair is validated right after the run, and the record's per-layer cpu_us
# against it, so a silently-empty profile or a record that counts other
# samples than its profile fails the sweep.
run_bench() {
  local name="$1" scale="$2" seconds="$3" threads="${4:-1}"
  shift 4 || shift $#
  if [[ -n "$ONLY" && ! "$name" =~ $ONLY ]]; then
    return 0
  fi
  echo
  echo "=== $name (scale=$scale seconds=$seconds threads=$threads) ==="
  env AERIE_OBS=counters \
      AERIE_PROF=1 \
      AERIE_PROF_FOLDED="$PROFILES/$name.folded" \
      AERIE_PROF_JSON="$PROFILES/$name.prof.json" \
      AERIE_BENCH_SCALE="$scale" \
      AERIE_BENCH_SECONDS="$seconds" \
      AERIE_BENCH_THREADS="$threads" \
      AERIE_BENCH_JSON="$REPORTS/$name.json" \
    "$BUILD/bench/$name" "$@"
  python3 "$ROOT/tools/validate_profile.py" \
    --folded "$PROFILES/$name.folded" --json "$PROFILES/$name.prof.json" \
    --record "$REPORTS/$name.json" --min-samples 1
}

if [[ "$QUICK" == 1 ]]; then
  echo "# quick sweep (reduced scales) seed=$AERIE_BENCH_SEED git=$AERIE_GIT_SHA"
  run_bench fig1_vfs_breakdown     0.02 0.4
  run_bench table1_microbench      0.05 0.4
  run_bench table2_filebench       0.05 0.5
  run_bench fig5_thread_scaling    0.02 0.4 2
  run_bench table3_multiclient     0.05 0.4
  run_bench fig6_write_latency     0.02 0.4
  run_bench micro_permission_change 0.05 0.4
  run_bench ablation_batching      0.05 0.5
  run_bench ablation_name_cache    0.05 0.5
  run_bench ablation_lock_modes    0.05 0.5
  run_bench ablation_rpc_cost      0.02 0.4
  run_bench ablation_direct_path   0.05 0.4
  run_bench gbench_primitives      0.05 0.4 1 --benchmark_min_time=0.05
else
  echo "# full sweep seed=$AERIE_BENCH_SEED git=$AERIE_GIT_SHA"
  run_bench fig1_vfs_breakdown     0.1  1
  run_bench table1_microbench      0.25 1
  run_bench table2_filebench       0.2  3
  run_bench fig5_thread_scaling    0.05 1.5 4
  run_bench table3_multiclient     0.15 2
  run_bench fig6_write_latency     0.05 2
  run_bench micro_permission_change 0.25 1
  run_bench ablation_batching      0.1  2
  run_bench ablation_name_cache    0.2  2
  run_bench ablation_lock_modes    0.1  2
  run_bench ablation_rpc_cost      0.05 1
  run_bench ablation_direct_path   0.1  1
  run_bench gbench_primitives      0.1  1 1 --benchmark_min_time=0.2
fi

echo
echo "=== aggregate ==="
QUICK_FLAG=()
if [[ "$QUICK" == 1 ]]; then
  QUICK_FLAG=(--quick)
fi
python3 "$ROOT/tools/aggregate_bench.py" \
  --out "$OUT" --git-sha "$AERIE_GIT_SHA" --seed "$AERIE_BENCH_SEED" \
  "${QUICK_FLAG[@]}" "$REPORTS"/*.json
python3 "$ROOT/tools/validate_bench.py" "$OUT"

if [[ "$QUICK" == 0 && "$SKIP_TRACES" == 0 ]]; then
  # Per-operation trace pass (separate short runs: span mode perturbs the
  # throughput numbers above). Open the JSON in ui.perfetto.dev.
  echo
  echo "=== perfetto traces ==="
  AERIE_OBS=spans AERIE_TRACE_FILE="$BUILD/trace_fig1.json" \
    AERIE_BENCH_SCALE=0.02 "$BUILD/bench/fig1_vfs_breakdown" > /dev/null
  AERIE_OBS=spans AERIE_TRACE_FILE="$BUILD/trace_table3.json" \
    AERIE_BENCH_SCALE=0.05 AERIE_BENCH_SECONDS=0.5 \
    "$BUILD/bench/table3_multiclient" > /dev/null
  ls -l "$BUILD/trace_fig1.json" "$BUILD/trace_table3.json"
fi

echo
echo "run_benches: done -> $OUT"
