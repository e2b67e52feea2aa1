#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the arguments it was given. Everything the build writes (binary, Go
# build cache, work directory, the go command's own config) stays under
# .bench_build/ in that checkout (GOPATH too: the module has no
# dependencies, so nothing is fetched into it).
set -euo pipefail
root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark/run.sh: no contexp module in $root (go.mod, internal/): nothing to measure" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# With a fresh config directory the go command would start its telemetry
# sidecar, a detached child that can outlive this script. Mode "off"
# keeps `go build` a single process tree that has ended when it returns.
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	go build -o "$build/contexp-benchmark" ./benchmark
# MADV_FREE: memory the Go runtime hands back stays resident until the
# kernel wants it. On the reference box a fresh page costs 2 to 60 us to
# touch, by the host's mood; see prefaultHeap in main.go.
GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}" exec "$build/contexp-benchmark" "$@"
