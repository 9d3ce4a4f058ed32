#!/usr/bin/env bash
# Full local validation: Release build + tests, then (optionally) Debug and
# sanitizer passes, then the benchmark sweep.
#
#   scripts/check.sh              # release build + ctest
#   scripts/check.sh --full       # + debug & asan passes over every suite
#   scripts/check.sh --tsan[=RE]  # + thread sanitizer pass over the ctest
#                                 #   labels matching RE (default
#                                 #   'obs|concurrency': the lock-free
#                                 #   walkers, obs recorders and rings);
#                                 #   e.g. --tsan=server (SQ/CQ rings, shard
#                                 #   drain loop), --tsan=shortcut (ancestor
#                                 #   probes racing renames), --tsan=resize
#                                 #   (readers racing online DLHT migration)
#   scripts/check.sh --asan[=RE]  # + address sanitizer pass over the ctest
#                                 #   labels matching RE (default
#                                 #   'obs|server': span rings, flight
#                                 #   recorder, trace plumbing)
#   scripts/check.sh --bench      # + run every benchmark binary
#   scripts/check.sh --bench fig7 # + run only benchmarks whose name starts
#                                 #   with the given prefix (e.g. the fig7
#                                 #   write-cost bench, whose exit code gates
#                                 #   on its verdict block)
#
# --tsan and --asan may be repeated; each occurrence is one more pass.
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
BENCH=0
BENCH_FILTER=""
TSAN_LABELS=()
ASAN_LABELS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --full) FULL=1 ;;
    --tsan) TSAN_LABELS+=('obs|concurrency') ;;
    --tsan=*) TSAN_LABELS+=("${1#--tsan=}") ;;
    --asan) ASAN_LABELS+=('obs|server') ;;
    --asan=*) ASAN_LABELS+=("${1#--asan=}") ;;
    --bench)
      BENCH=1
      if [[ $# -gt 1 && "${2:0:2}" != "--" ]]; then
        BENCH_FILTER="$2"
        shift
      fi
      ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

# sanitizer_pass <thread|address> [label-regex]: configure and build
# build-tsan or build-asan (reused across passes), then run the suites whose
# ctest labels match the regex, or every suite when it is empty.
sanitizer_pass() {
  local sanitizer="$1" labels="${2:-}"
  local dir=build-asan
  local env=()
  if [[ "$sanitizer" == thread ]]; then
    dir=build-tsan
    # The suppressions file whitelists ONLY the documented validate-after-
    # read idioms (seqlock-guarded rename splice / signature publish, epoch
    # reclamation); everything else runs under full TSan scrutiny.
    env=(TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp history_size=7")
  fi
  echo "== ${sanitizer} sanitizer (${labels:-all suites}) =="
  cmake -B "$dir" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=${sanitizer} -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=${sanitizer}" >/dev/null
  cmake --build "$dir"
  local filter=()
  if [[ -n "$labels" ]]; then
    filter=(-L "$labels")
  fi
  env "${env[@]}" ctest --test-dir "$dir" --output-on-failure "${filter[@]}"
}

echo "== release build =="
cmake -B build -G Ninja >/dev/null
cmake --build build
ctest --test-dir build --output-on-failure

if [[ "$FULL" == 1 ]]; then
  echo "== debug build (asserts on) =="
  cmake -B build-debug -G Ninja -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build build-debug
  ctest --test-dir build-debug --output-on-failure

  sanitizer_pass address
fi

for labels in "${TSAN_LABELS[@]}"; do
  sanitizer_pass thread "$labels"
done
for labels in "${ASAN_LABELS[@]}"; do
  sanitizer_pass address "$labels"
done

if [[ "$BENCH" == 1 ]]; then
  echo "== benchmarks${BENCH_FILTER:+ (filter: $BENCH_FILTER*)} =="
  ran=0
  for b in build/bench/*; do
    [[ -f "$b" && -x "$b" ]] || continue
    name="$(basename "$b")"
    [[ -z "$BENCH_FILTER" || "$name" == "$BENCH_FILTER"* ]] || continue
    "$b"
    ran=1
  done
  if [[ "$ran" == 0 ]]; then
    echo "no benchmark matches '$BENCH_FILTER'" >&2
    exit 2
  fi
fi

echo "all checks passed"
