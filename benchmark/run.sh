#!/usr/bin/env bash
# Builds msrabench from this checkout and runs it.
#
#   benchmark/run.sh [--traced] [--seed S] [--seconds T] [--out DIR]
#       Runs every workload, one process each, and writes DIR/<workload>.json
#       (plus DIR/<workload>.trace.json with --traced). DIR defaults to
#       .bench_out. Exits non-zero if any correctness check failed.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       Runs one workload. The last line of stdout is the result object
#       {"correct", "attempted", "failed", "metrics"}; everything else the
#       build prints goes to stderr.
#
# The build lives in .bench_build/msrabench and reuses an earlier configure,
# so only the first run pays for it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build/msrabench"
out="${root}/.bench_out"

build_bench() {
  mkdir -p "${build}/tmp"
  # Keep the compiler's temporary files inside the checkout.
  export TMPDIR="${build}/tmp"
  local jobs
  jobs="$(nproc 2>/dev/null || echo 2)"
  (( jobs > 4 )) && jobs=4
  if [[ ! -f "${build}/CMakeCache.txt" ]]; then
    local generator=()
    command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
    cmake -S "${root}/benchmark" -B "${build}" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "${build}" -j "${jobs}" >&2
}

# ---- one workload (the BENCHMARK.json command) ------------------------------
if [[ " $* " == *" --workload "* ]]; then
  workload="" seed="1" traced="0"
  args=("$@")
  for ((i = 0; i < ${#args[@]}; ++i)); do
    case "${args[i]}" in
      --workload) workload="${args[i + 1]:-}" ;;
      --seed) seed="${args[i + 1]:-}" ;;
      --trace) traced="${args[i + 1]:-0}" ;;
      --traced) traced="1" ;;
    esac
  done
  build_bench
  mkdir -p "${out}"
  stem="${out}/${workload}-seed${seed}"
  extra=()
  [[ "${traced}" != "0" ]] && stem+="-traced" &&
    extra=(--trace-out "${stem}.trace.json")
  exec "${build}/msrabench" "$@" --json "${stem}.json" "${extra[@]}"
fi

# ---- every workload ---------------------------------------------------------
seed="1" seconds="15" traced=()
while (( $# > 0 )); do
  case "$1" in
    --traced) traced=(--traced) ;;
    --seed) seed="$2"; shift ;;
    --seconds) seconds="$2"; shift ;;
    --out) out="$2"; shift ;;
    *) echo "usage: $0 [--traced] [--seed S] [--seconds T] [--out DIR]" >&2
       exit 2 ;;
  esac
  shift
done
build_bench
mkdir -p "${out}"
status=0
for workload in fleet_fifo qos_wfq astro3d cluster_cache; do
  echo "==> ${workload}"
  extra=()
  (( ${#traced[@]} > 0 )) &&
    extra=(--traced --trace-out "${out}/${workload}.trace.json")
  "${build}/msrabench" --workload "${workload}" --seed "${seed}" \
    --seconds "${seconds}" --json "${out}/${workload}.json" "${extra[@]}" ||
    status=1
  echo
done
echo "results: ${out}"
exit "${status}"
