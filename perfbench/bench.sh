#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/bench.sh --workload train-cnn --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (Go build
# cache, temporary files, the binary) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root (need go.mod, internal/ and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters)
# in the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
