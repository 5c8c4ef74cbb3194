#!/usr/bin/env bash
# A/B layer benchmark: build one `go test -c` binary of PKG from the
# parent tree and one from this checkout, run them alternately ROUNDS
# times (the order flips every round, so drift on a noisy box hits both
# sides alike), then print per benchmark and unit the median, quartiles,
# pairs won and a rank-sum p-value (scripts/abstat).
#
#   scripts/abbench.sh PARENT PKG REGEX
#
#   PARENT  a git revision, or a directory holding the parent tree (to
#           time a benchmark the parent lacks, copy its test file in)
#   PKG     the package, e.g. ./internal/monitor
#   REGEX   the -bench pattern, e.g. 'AppendBatchWide'
#
# Environment: ROUNDS (default 10), BENCHTIME (default 1s), and WORK,
# the directory for the parent tree, binaries and raw outputs (default
# a fresh temporary directory, kept and printed at the end).
set -euo pipefail
[ $# -eq 3 ] || { sed -n '2,17p' "$0" >&2; exit 2; }
parent=$1 pkg=$2 regex=$3
rounds=${ROUNDS:-10} benchtime=${BENCHTIME:-1s}
cd "$(dirname "$0")/.."
work=${WORK:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

if [ -d "$parent" ]; then
  ptree=$(cd "$parent" && pwd)
else
  ptree=$work/parent
  rm -rf "$ptree"
  mkdir -p "$ptree"
  git archive "$parent" | tar -x -C "$ptree"
fi
(cd "$ptree" && go test -c -o "$work/parent.test" "$pkg")
go test -c -o "$work/change.test" "$pkg"

: >"$work/parent.txt"
: >"$work/change.txt"
run() { # side tree: runs the side's binary in its tree's package directory
  (cd "$2/$pkg" && "$work/$1.test" -test.run '^$' -test.bench "$regex" -test.benchmem \
    -test.benchtime "$benchtime" -test.timeout 30m) >"$work/$1.last"
  cat "$work/$1.last" >>"$work/$1.txt"
  grep '^Benchmark' "$work/$1.last" >&2 || { echo "abbench: $1 ran no benchmark matching $regex" >&2; exit 1; }
}
for ((r = 1; r <= rounds; r++)); do
  echo "round $r/$rounds" >&2
  if ((r % 2)); then
    run parent "$ptree"
    run change "$PWD"
  else
    run change "$PWD"
    run parent "$ptree"
  fi
done
go run ./scripts/abstat "$work/parent.txt" "$work/change.txt"
echo "raw runs: $work/{parent,change}.txt" >&2
