#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, the binaries, the
# traced runs' Chrome traces and gliftd's store all live under .bench_build/
# in the checkout, and the toolchain is kept from writing anywhere else.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/gliftd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/gliftd and perfbench/ must be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" --out "$out" "$@"
