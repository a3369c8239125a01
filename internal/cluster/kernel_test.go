package cluster

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"heteromix/internal/hwsim"
)

// relClose reports |a-b| <= tol * max(|a|,|b|).
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// Property: kernel-table enumeration matches the direct Evaluate path
// point for point — times, splits and configurations exactly, energies
// within accumulated rounding (the kernel computes n*E(1) where Evaluate
// computes n*E(w/n)/..., identical up to a few ULPs).
func TestEnumerateMatchesDirectEvaluate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		space Space
	}{
		{"ep", epSpace(t)},
		{"memcached", memcachedSpace(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.space
			f := func(a, d uint8, wRaw uint16) bool {
				maxARM := int(a) % 4
				maxAMD := int(d) % 4
				if maxARM+maxAMD == 0 {
					maxARM = 1
				}
				w := 1e4 + float64(wRaw)*1e3
				pts, err := s.Enumerate(maxARM, maxAMD, w)
				if err != nil {
					t.Logf("enumerate: %v", err)
					return false
				}
				if len(pts) != s.SpaceSize(maxARM, maxAMD) {
					return false
				}
				for _, p := range pts {
					ev, err := s.Evaluate(p.Config, w)
					if err != nil {
						t.Logf("evaluate %v: %v", p.Config, err)
						return false
					}
					if p.Time != ev.Time || p.WorkARM != ev.WorkARM {
						t.Logf("%v: time %v vs %v, share %v vs %v",
							p.Config, p.Time, ev.Time, p.WorkARM, ev.WorkARM)
						return false
					}
					if !relClose(float64(p.Energy), float64(ev.Energy), 1e-12) {
						t.Logf("%v: energy %v vs %v", p.Config, p.Energy, ev.Energy)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Error(err)
			}
		})
	}
}

// EnumerateFunc streams exactly Enumerate's sequence and stops when yield
// returns false.
func TestEnumerateFuncMatchesEnumerate(t *testing.T) {
	s := epSpace(t)
	want, err := s.Enumerate(3, 2, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	var got []Point
	if err := s.EnumerateFunc(3, 2, 50e6, func(p Point) bool {
		got = append(got, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}

	n := 0
	if err := s.EnumerateFunc(3, 2, 50e6, func(Point) bool {
		n++
		return n < 7
	}); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("early stop saw %d points, want 7", n)
	}

	if err := s.EnumerateFunc(0, 0, 50e6, func(Point) bool { return true }); err == nil {
		t.Error("empty space should error")
	}
	if err := s.EnumerateFunc(2, 2, -1, func(Point) bool { return true }); err == nil {
		t.Error("negative work should error")
	}
}

// EnumerateFilteredFunc streams exactly EnumerateFiltered's sequence.
func TestEnumerateFilteredFuncMatchesFiltered(t *testing.T) {
	s := epSpace(t)
	keepARM := func(c hwsim.Config) bool { return c.Cores >= 2 }
	keepAMD := func(c hwsim.Config) bool { return c.Frequency >= 1.7 }
	want, err := s.EnumerateFiltered(3, 3, 50e6, keepARM, keepAMD)
	if err != nil {
		t.Fatal(err)
	}
	var got []Point
	if err := s.EnumerateFilteredFunc(3, 3, 50e6, keepARM, keepAMD, func(p Point) bool {
		got = append(got, p)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d filtered points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("filtered point %d differs", i)
		}
	}
	// Filtered points are a subset of the full space, bit for bit.
	full, err := s.Enumerate(3, 3, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	inFull := make(map[Point]bool, len(full))
	for _, p := range full {
		inFull[p] = true
	}
	for _, p := range got {
		if !inFull[p] {
			t.Fatalf("filtered point %+v not in full space", p)
		}
	}
	none := func(hwsim.Config) bool { return false }
	if err := s.EnumerateFilteredFunc(3, 3, 50e6, none, none, func(Point) bool { return true }); err == nil {
		t.Error("filtering out every configuration should error")
	}
}

// The dynamic scheduler stops handing out chunks after the first error:
// a failure in an early chunk must leave most of the range unvisited.
func TestParallelForCancelsOnError(t *testing.T) {
	const n = 1 << 20
	boom := errors.New("boom")
	var visited atomic.Int64
	err := parallelFor(n, 4, 64, func(lo, hi int) error {
		visited.Add(int64(hi - lo))
		if lo == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if v := visited.Load(); v > n/2 {
		t.Errorf("visited %d of %d points after early error; cancellation not effective", v, n)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	const n = 10_000
	seen := make([]atomic.Int32, n)
	if err := parallelFor(n, 7, 64, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			seen[i].Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	if err := parallelFor(0, 4, 64, func(lo, hi int) error { return nil }); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

func BenchmarkEnumerateStreaming10x10(b *testing.B) {
	s := epSpace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tes, err := FrontierOf(s, 10, 10, 50e6)
		if err != nil {
			b.Fatal(err)
		}
		if len(tes) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

func BenchmarkEnumerateParallel20x20(b *testing.B) {
	s := epSpace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := s.EnumerateParallel(20, 20, 50e6, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != s.SpaceSize(20, 20) {
			b.Fatalf("space size %d", len(pts))
		}
	}
}
