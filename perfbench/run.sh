#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# Every build artefact (the binary, the Go build cache, temporary files)
# stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
# Build from the checkout alone: no module proxy, no toolchain download.
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
