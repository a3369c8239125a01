#!/usr/bin/env bash
# Builds heteromixd and the benchmark driver from source into
# .bench_build/ at the repository root, then runs the driver with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload frontier-sweep --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache and temporary
# files also live under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/heteromixd" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the root of a heteromix checkout" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/heteromixd" ./cmd/heteromixd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/heteromixd" -out "$out" "$@"
