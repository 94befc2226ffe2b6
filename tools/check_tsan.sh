#!/bin/sh
# Builds the concurrency-sensitive tests under ThreadSanitizer and runs them.
#
#   tools/check_tsan.sh [build-dir]
#
# Uses a separate build tree (default build-tsan/) so the regular build is
# untouched. Exits non-zero if any test races or fails.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}
tests="obs_test telemetry_test trace_test rpc_test clerk_test lock_stress_test profiler_test libfs_test direct_path_test flatfs_test tfs_concurrency_test pxfs_test sharing_test"

cmake -B "$build" -S "$repo" -DAERIE_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086
cmake --build "$build" -j "$(nproc)" --target $tests

status=0
for t in $tests; do
  echo "== TSan: $t =="
  # direct_path_test's crash sweeps are single-threaded; only its
  # functional suite runs concurrent data calls.
  filter="*"
  [ "$t" = direct_path_test ] && filter="DirectPathTest.*"
  if ! TSAN_OPTIONS="halt_on_error=1" "$build/tests/$t" \
       --gtest_filter="$filter"; then
    echo "FAILED under TSan: $t" >&2
    status=1
  fi
done
exit $status
