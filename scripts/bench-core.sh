#!/usr/bin/env bash
# Runs the core-layer benchmarks of internal/cluster and writes their
# per-benchmark medians, with the CPU count, Go version and commit they
# were taken at (with "-dirty" when the tree has uncommitted changes),
# to BENCH_core.json. Run from the repository root (make bench-core):
#
#   bash scripts/bench-core.sh
#
# Each benchmark runs 5 times (-count) at 20 iterations (-benchtime).
set -euo pipefail
out=BENCH_core.json
runs=5
benchtime=20x
go=${GO:-go}
pattern='BenchmarkGenericTable(Compile|ForEach|Frontier|CandidateFrontier|FrontierParallel|FrontierShard)$|BenchmarkGenericCandidateBuild|BenchmarkTableFrontier16x16|BenchmarkMergeShardFrontiers'
raw=$($go test ./internal/cluster -run '^$' -bench "$pattern" -benchmem \
	-benchtime="$benchtime" -count="$runs")
echo "$raw" >&2
echo "$raw" | awk \
	-v nproc="$(nproc)" \
	-v gover="$($go env GOVERSION)" \
	-v goos="$($go env GOOS)/$($go env GOARCH)" \
	-v commit="$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)" \
	-v runs="$runs" -v benchtime="$benchtime" '
# median of the n values a[1..n], sorted in place.
function median(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
/^cpu: / { cpu = substr($0, 6) }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	if (!(name in count)) order[++names] = name
	k = ++count[name]
	for (f = 3; f < NF; f++) {
		if ($(f+1) == "ns/op") ns[name, k] = $f
		if ($(f+1) == "B/op") bytes[name] = $f
		if ($(f+1) == "allocs/op") allocs[name] = $f
	}
}
END {
	printf "{\n  \"generated_by\": \"make bench-core\",\n"
	printf "  \"commit\": \"%s\",\n  \"go\": \"%s\",\n  \"platform\": \"%s\",\n", commit, gover, goos
	printf "  \"cpu\": \"%s\",\n  \"nproc\": %d,\n  \"runs\": %d,\n  \"benchtime\": \"%s\",\n", cpu, nproc, runs, benchtime
	printf "  \"benchmarks\": {\n"
	for (b = 1; b <= names; b++) {
		name = order[b]; n = count[name]
		for (k = 1; k <= n; k++) v[k] = ns[name, k]
		med = median(v, n)
		printf "    \"%s\": {\"ns_per_op_median\": %.0f, \"ns_per_op_min\": %.0f, \"ns_per_op_max\": %.0f, \"bytes_per_op\": %d, \"allocs_per_op\": %d}%s\n",
			name, med, v[1], v[n], bytes[name], allocs[name], b < names ? "," : ""
	}
	printf "  }\n}\n"
}' > "$out"
echo "wrote $out" >&2
