#!/usr/bin/env bash
# Builds mcbench from source (Release, into .bench_build/ at the repository
# root) and runs the cache-server benchmark. See benchmark/README.md.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--trace 0|1]
#                    [--trace-dir DIR]
#       Runs get_hot, get_dram and set_capped in turn and prints one
#       "workload/metric value unit" line per metric, plus meta.* lines.
#       --trace 1 prints the per-layer metrics instead and writes one
#       chrome-trace JSON per workload into DIR (default
#       .bench_build/trace). --smoke shrinks every workload so the whole
#       command takes seconds.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       Runs one workload; the last line of stdout is its JSON result
#       (end-to-end metrics with --trace 0, per-layer metrics with 1).
#
# Without --seconds, a run lasts BENCHMARK.json's run_seconds, the length
# its bounds were calibrated at (one second with --smoke).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

workload=""
seed=1
seconds=""
trace=0
trace_dir="$build/trace"
smoke=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --workload=*) workload="${1#*=}"; shift ;;
    --seed) seed="$2"; shift 2 ;;
    --seed=*) seed="${1#*=}"; shift ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seconds=*) seconds="${1#*=}"; shift ;;
    --trace) trace="$2"; shift 2 ;;
    --trace=*) trace="${1#*=}"; shift ;;
    --trace-dir) trace_dir="$2"; shift 2 ;;
    --trace-dir=*) trace_dir="${1#*=}"; shift ;;
    --smoke) smoke="--smoke"; shift ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
case "$trace" in
  0|1) ;;
  *) echo "run.sh: --trace takes 0 or 1, not '$trace'" >&2; exit 2 ;;
esac

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -f "$root/src/server/server.h" ]; then
  echo "run.sh: no repository sources next to $here" >&2
  exit 1
fi
if [ -z "$seconds" ] && [ -z "$smoke" ]; then
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' \
               "$root/BENCHMARK.json")"
fi

# Build output goes to stderr: the last stdout line must stay the result.
{
  if [ ! -f "$build/CMakeCache.txt" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target mcbench -j "$(nproc)"
} >&2

run() {
  local args=(--workload "$1" --seed "$seed" --trace "$trace"
              --trace-dir "$trace_dir")
  if [ -n "$seconds" ]; then args+=(--seconds "$seconds"); fi
  if [ -n "$smoke" ]; then args+=("$smoke"); fi
  "$build/mcbench" "${args[@]}"
}

if [ -n "$workload" ]; then
  run "$workload"
  exit
fi

first=1
for w in get_hot get_dram set_capped; do
  out="$(run "$w")"
  if [ "$first" = 1 ]; then
    grep -v '^{' <<<"$out"
  else
    grep -v -e '^{' -e '^meta\.' <<<"$out"
  fi
  first=0
  if [ "$trace" = 1 ]; then echo "$w/trace_file $trace_dir/$w.trace.json"; fi
done
