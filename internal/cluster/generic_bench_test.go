package cluster

import (
	"context"
	"testing"

	"heteromix/internal/shard"
)

// The 3-type benchmark space: the tri-cluster example's A9/A15/K10 mix
// at 4 nodes per type — 384,344 configurations before pruning.
func benchTriTypes(b *testing.B) []GroupType {
	return triTypes(b, 4, 4, 4)
}

func BenchmarkEnumerateGroupsSerial(b *testing.B) {
	types := benchTriTypes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := EnumerateGroups(types, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("empty space")
		}
	}
}

// Pruned materialization: domination pruning shrinks the per-type option
// lists before the same flat-backed enumeration.
func BenchmarkEnumerateGroupsPruned(b *testing.B) {
	pruned, err := PruneGroupTypes(benchTriTypes(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := EnumerateGroups(pruned, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("empty space")
		}
	}
}

// Streaming frontier over the full space: nothing materialized, only
// frontier survivors copied out of the scratch buffers.
func BenchmarkEnumerateGroupsFrontier(b *testing.B) {
	types := benchTriTypes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tes, err := GenericFrontierOf(types, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		if len(tes) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// The production path and the issue's headline number: pruning +
// parallel evaluation + streaming online frontier on the same 3-type
// space BenchmarkEnumerateGroupsSerial materializes in full.
func BenchmarkEnumerateGroupsParallel(b *testing.B) {
	pruned, err := PruneGroupTypes(benchTriTypes(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tes, err := GenericFrontierOfParallel(pruned, 50e6, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(tes) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// The core-layer benchmarks below (make bench-core) split the served
// frontier path into its layers over one pruned tri-cluster table:
// compile, the candidate fold, a bare walk, the frontier with and
// without a prebuilt candidate set, one shard's walk and the shard
// merge, plus the two-type frontier at the largest bounds the
// frontier-sweep workload draws.

// benchPrunedTable compiles the pruned 4/4/4 tri-cluster table.
func benchPrunedTable(tb testing.TB) *GenericTable {
	pruned, err := PruneGroupTypes(triTypes(tb, 4, 4, 4))
	if err != nil {
		tb.Fatal(err)
	}
	g, err := NewGenericTable(pruned)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func BenchmarkGenericTableCompile(b *testing.B) {
	types := benchTriTypes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGenericTable(types); err != nil {
			b.Fatal(err)
		}
	}
}

// The candidate fold the serving daemon runs once per cached table.
func BenchmarkGenericCandidateBuild(b *testing.B) {
	g := benchPrunedTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := g.WithCandidates(); h.Candidates(50e6) == 0 {
			b.Fatal("no candidates")
		}
	}
}

func BenchmarkGenericTableForEach(b *testing.B) {
	g := benchPrunedTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.ForEach(50e6, func(GenericPoint) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenericTableFrontier(b *testing.B) {
	g := benchPrunedTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Frontier(50e6); err != nil {
			b.Fatal(err)
		}
	}
}

// The warm frontier answer: score a prebuilt candidate set, decode the
// survivors.
func BenchmarkGenericTableCandidateFrontier(b *testing.B) {
	g := benchPrunedTable(b).WithCandidates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Frontier(50e6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenericTableFrontierParallel(b *testing.B) {
	g := benchPrunedTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.FrontierParallel(50e6, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenericTableFrontierShard(b *testing.B) {
	g := benchPrunedTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.FrontierShard(50e6, shard.Shard{Index: 0, Count: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeShardFrontiers(b *testing.B) {
	g := benchPrunedTable(b)
	parts := make([]ShardFrontier[GenericPoint], 4)
	for i := range parts {
		var err error
		if parts[i], err = g.FrontierShard(50e6, shard.Shard{Index: i, Count: len(parts)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeShardFrontiers(parts); err != nil {
			b.Fatal(err)
		}
	}
}

// The two-type answer: the 16x16 view's candidates folded per call.
func BenchmarkTableFrontier16x16(b *testing.B) {
	tbl, err := epSpace(b).NewTable()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tbl.Frontier(16, 16, 50e6); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrontierAllocGate bounds the frontier paths' allocations: a
// frontier keeps only indices and decodes its survivors into flat
// backings, so its count grows with the frontier's log size, never with
// its inserts, and the candidate fold works in pooled buffers. The warm
// candidate frontier is what the daemon runs per pruned answer (its
// table folded once, WithCandidates); the cold one folds per call, as
// the two-type frontier always does (a warm pool, so its fold allocates
// nothing); the shard walk is what a fleet replica runs per request.
// The bounds are the measured counts (Go 1.24, linux/amd64: warm 15,
// cold 16, shard 15, two-type 12); cloning
// a point per frontier insert costs far more (about 115 for the shard
// walk).
func TestFrontierAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("-race adds allocations; the gate counts a plain build's")
	}
	g := benchPrunedTable(t)
	warm := g.WithCandidates()
	frontier := func(g *GenericTable) func() {
		return func() {
			if _, _, err := g.Frontier(50e6); err != nil {
				t.Fatal(err)
			}
		}
	}
	warmAllocs := testing.AllocsPerRun(5, frontier(warm))
	generic := testing.AllocsPerRun(5, frontier(g))
	tbl, err := epSpace(t).NewTable()
	if err != nil {
		t.Fatal(err)
	}
	pairFrontier := func(tbl *Table) func() {
		return func() {
			if _, _, err := tbl.Frontier(16, 16, 50e6); err != nil {
				t.Fatal(err)
			}
		}
	}
	two := testing.AllocsPerRun(5, pairFrontier(tbl))
	shardWalk := testing.AllocsPerRun(5, func() {
		if _, err := g.FrontierShardContext(context.Background(), 50e6, shard.Shard{Index: 0, Count: 2}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per frontier: pruned 4/4/4 generic warm %v, cold %v, its shard 0/2 %v, 16x16 two-type %v",
		warmAllocs, generic, shardWalk, two)
	if warmAllocs > 15 {
		t.Errorf("GenericTable.Frontier with candidates allocated %v times per answer, gate 15", warmAllocs)
	}
	if generic > 16 {
		t.Errorf("GenericTable.Frontier allocated %v times per walk, gate 16", generic)
	}
	if shardWalk > 16 {
		t.Errorf("GenericTable.FrontierShardContext allocated %v times per walk, gate 16", shardWalk)
	}
	if two > 12 {
		t.Errorf("Table.Frontier allocated %v times per walk, gate 12", two)
	}
}
