#!/usr/bin/env bash
# Builds the benchmark and the commands it drives (pmpexperiments,
# pmpsweepd) from this checkout's source, then runs one workload:
#
#   bash perfbench/run.sh --workload sim-pmp --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go build -o "$out/bin/" ./cmd/pmpexperiments ./cmd/pmpsweepd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
