#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs one workload:
#
#   bash perfbench/run.sh --workload kv-holes --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Everything building and running leave
# behind (the Go build cache, the binary, traced runs' spans and profiles)
# goes under .bench_build/, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath \
	GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
export GOGC=${GOGC:-100}

(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/trace" "$@"
