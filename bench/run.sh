#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from this checkout's
# sources, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash bench/run.sh --workload transfer --seed 2016 --seconds 20 --trace 0
#
# Every build output stays in .bench_build: the Go build cache, the
# build's temporary files, and the toolchain's telemetry counters (which
# it keeps under the user config directory).
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# link DIR PKG NAME builds PKG from DIR into .bench_build/NAME. The linker
# rewrites its output on every build; an unchanged binary is kept, so a
# run does not leave megabytes of write-back for the next one to measure.
link() {
	(cd "$1" && go build -o "$out/$3.new" "$2")
	if cmp -s "$out/$3.new" "$out/$3"; then
		rm "$out/$3.new"
	else
		mv "$out/$3.new" "$out/$3"
	fi
}
link bench . bench
link . ./cmd/autotuned autotuned
exec "$out/bench" -daemon "$out/autotuned" -work "$out" "$@"
