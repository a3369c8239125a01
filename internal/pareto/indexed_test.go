package pareto

import (
	"math/rand"
	"testing"
)

// TestTrackedIndexedMirrorsFrontier: offered in ascending index, the
// tracker mirrors the online frontier's splices onto its payloads and
// keeps the first-offered of exact duplicates.
func TestTrackedIndexedMirrorsFrontier(t *testing.T) {
	var tr TrackedIndexed[string]
	offers := []struct {
		te   TE
		v    string
		want bool
	}{
		{TE{Time: 10, Energy: 10}, "a", true},
		{TE{Time: 5, Energy: 20}, "b", true},   // faster, joins ahead
		{TE{Time: 12, Energy: 12}, "c", false}, // dominated by a
		{TE{Time: 4, Energy: 4}, "d", true},    // dominates a and b
		{TE{Time: 20, Energy: 2}, "e", true},   // cheapest tail
		{TE{Time: 20, Energy: 2}, "x", false},  // exact duplicate: first wins
	}
	var all []TE
	for i, o := range offers {
		added, err := tr.Insert(o.te, uint64(i), o.v)
		if err != nil {
			t.Fatal(err)
		}
		if added != o.want {
			t.Fatalf("Insert(%v, %q) added=%v, want %v", o.te, o.v, added, o.want)
		}
		all = append(all, o.te)
	}
	pts, tes, idxs := tr.Frontier()
	if tr.Len() != 2 || len(pts) != 2 || len(tes) != 2 {
		t.Fatalf("frontier size %d/%d/%d, want 2", tr.Len(), len(pts), len(tes))
	}
	if pts[0] != "d" || pts[1] != "e" || idxs[0] != 3 || idxs[1] != 4 {
		t.Fatalf("payloads = %v %v, want [d e] [3 4]", pts, idxs)
	}
	want, err := Frontier(all)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if tes[i].Index != i || tes[i].Time != want[i].Time || tes[i].Energy != want[i].Energy {
			t.Fatalf("tracked frontier %d = %v, want %v at Index %d", i, tes[i], want[i], i)
		}
	}
}

// TestTrackedIndexedOrderIndependence is the property TrackedIndexed
// exists for: feeding an indexed point set in ANY order yields the batch
// frontier, each survivor carrying the smallest index among its exact
// (time, energy) duplicates.
func TestTrackedIndexedOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type ipt struct {
		te  TE
		idx uint64
		v   int
	}
	// A point cloud with deliberate exact duplicates (the same (t, e)
	// under several indices) and same-time different-energy collisions.
	var pts []ipt
	var all []TE
	for i := 0; i < 400; i++ {
		tm := float64(1+rng.Intn(20)) / 4
		en := float64(1+rng.Intn(20)) * 3
		pts = append(pts, ipt{te: TE{Time: tm, Energy: en}, idx: uint64(i), v: i})
		all = append(all, TE{Time: tm, Energy: en})
	}

	// Reference: the batch frontier, each point resolved to the smallest
	// index with its exact (time, energy).
	refTEs, err := Frontier(all)
	if err != nil {
		t.Fatal(err)
	}
	refPts := make([]int, len(refTEs))
	for i := range refTEs {
		refTEs[i].Index = i
		refPts[i] = -1
		for _, p := range pts {
			if p.te.Time == refTEs[i].Time && p.te.Energy == refTEs[i].Energy {
				refPts[i] = p.v
				break
			}
		}
	}

	for trial := 0; trial < 20; trial++ {
		shuffled := append([]ipt(nil), pts...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var ti TrackedIndexed[int]
		for _, p := range shuffled {
			if _, err := ti.Insert(p.te, p.idx, p.v); err != nil {
				t.Fatal(err)
			}
		}
		gotPts, gotTEs, gotIdx := ti.Frontier()
		if len(gotTEs) != len(refTEs) {
			t.Fatalf("trial %d: frontier size %d, want %d", trial, len(gotTEs), len(refTEs))
		}
		for i := range refTEs {
			if gotTEs[i] != refTEs[i] {
				t.Fatalf("trial %d: TE[%d] = %+v, want %+v", trial, i, gotTEs[i], refTEs[i])
			}
			if gotPts[i] != refPts[i] {
				t.Fatalf("trial %d: payload[%d] = %d, want %d", trial, i, gotPts[i], refPts[i])
			}
			if gotIdx[i] != uint64(refPts[i]) {
				t.Fatalf("trial %d: index[%d] = %d, want %d", trial, i, gotIdx[i], refPts[i])
			}
		}
	}
}

// TestTrackedIndexedDuplicateReplacement pins the in-place replacement:
// a later exact duplicate with a smaller index displaces the payload
// without touching the frontier shape; a larger index does not.
func TestTrackedIndexedDuplicateReplacement(t *testing.T) {
	var ti TrackedIndexed[string]
	ins := func(tm, en float64, idx uint64, v string, wantAdded bool) {
		t.Helper()
		added, err := ti.Insert(TE{Time: tm, Energy: en}, idx, v)
		if err != nil {
			t.Fatal(err)
		}
		if added != wantAdded {
			t.Fatalf("Insert(%v,%v,#%d) added=%v, want %v", tm, en, idx, added, wantAdded)
		}
	}
	ins(2, 10, 7, "late", true)
	ins(2, 10, 3, "early", false) // exact dup, smaller index: replaces
	ins(2, 10, 5, "middle", false)
	ins(1, 20, 0, "fast", true)
	pts, tes, idxs := ti.Frontier()
	if len(pts) != 2 || pts[0] != "fast" || pts[1] != "early" {
		t.Fatalf("payloads = %v", pts)
	}
	if idxs[0] != 0 || idxs[1] != 3 {
		t.Fatalf("indices = %v", idxs)
	}
	if tes[0].Time != 1 || tes[1].Time != 2 {
		t.Fatalf("tes = %v", tes)
	}
}

// TestTrackedIndexedInvalid: invalid points error exactly like
// OnlineFrontier.
func TestTrackedIndexedInvalid(t *testing.T) {
	var ti TrackedIndexed[int]
	if _, err := ti.Insert(TE{Time: 0, Energy: 1}, 0, 1); err == nil {
		t.Fatal("non-positive time accepted")
	}
	if _, err := ti.Insert(TE{Time: 1, Energy: -1}, 0, 1); err == nil {
		t.Fatal("negative energy accepted")
	}
}
