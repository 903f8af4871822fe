#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through. Run it from the checkout root:
#
#	sh benchmark/run.sh --workload serve-unique --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, temp
# files, result-cache directories and span files.
set -eu
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local
(cd benchmark && go build -o "$out/softcache-benchmark" .)
exec "$out/softcache-benchmark" -out "$out" "$@"
