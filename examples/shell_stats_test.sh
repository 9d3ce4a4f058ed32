#!/bin/sh
# Drives examples/shell through a warm re-stat of a directory larger than
# the default 64 KB PCC (4096 memos) and checks that `stats` prints the
# ancestor-climb counters with climbs recorded (DESIGN.md deviation 4).
#
# usage: shell_stats_test.sh <path-to-shell-binary>
set -eu
shell=$1
n=6000
out=$(
  {
    echo "mkdir /d"
    i=0
    while [ "$i" -lt "$n" ]; do echo "write /d/f$i x"; i=$((i + 1)); done
    for round in 1 2; do
      i=0
      while [ "$i" -lt "$n" ]; do echo "stat /d/f$i"; i=$((i + 1)); done
    done
    echo "stats"
  } | DIRCACHE_SHELL_OBS=0 "$shell" | tail -n 1
)
echo "$out"
echo "$out" | grep -Eq '(^| )pcc_climbs=[1-9][0-9]*( |$)' || {
  echo "FAIL: stats shows no pcc_climbs from the warm re-stat" >&2
  exit 1
}
echo "$out" | grep -Eq '(^| )pcc_climb_hops=[1-9][0-9]*( |$)' || {
  echo "FAIL: stats shows no pcc_climb_hops" >&2
  exit 1
}
