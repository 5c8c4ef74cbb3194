#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json runs it from the root of a
# checkout): build ./bench from source, then run it with the driver's
# flags.  Everything the Go toolchain and the benchmark write — build
# cache, temporary files, WAL and snapshot state — stays under the build
# directory inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath GOFLAGS=-modcacherw GOTOOLCHAIN=local
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
go build -o "$build/likwid-bench" ./bench >&2
exec "$build/likwid-bench" -state "$build/state" "$@"
