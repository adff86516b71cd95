#!/usr/bin/env bash
# Served-path benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-mix --seed 1 --seconds 40 --trace 0
#
# It builds the egeria server and the load generator from source into
# .bench_build/ (Go's build cache lives there too, so nothing is written
# outside the checkout), then runs the generator, which prints one JSON
# result object as the last line of standard output.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(
	cd "$root/perfbench"
	go build -o "$out/egeria" repro/cmd/egeria
	go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" -egeria "$out/egeria" -workdir "$out/work" "$@"
