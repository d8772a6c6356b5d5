package index

import (
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
)

func memoTestIndex(t *testing.T, n int, L, R int, seed uint64) *Index {
	t.Helper()
	g, err := graph.BarabasiAlbert(n, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, L, R, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// Empty-set gains computed off the index must be bit-identical to a fresh
// D-table's gains — the property the server's zero-allocation gain path
// relies on.
func TestEmptySetGainsMatchFreshDTable(t *testing.T) {
	ix := memoTestIndex(t, 400, 5, 20, 7)
	for _, p := range []Problem{Problem1, Problem2} {
		gains, err := ix.EmptySetGains(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(gains) != ix.Graph().N() {
			t.Fatalf("%v: %d gains for %d nodes", p, len(gains), ix.Graph().N())
		}
		d, err := ix.NewDTable(p)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < ix.Graph().N(); u++ {
			if want := d.Gain(u); math.Float64bits(gains[u]) != math.Float64bits(want) {
				t.Fatalf("%v: EmptySetGains[%d] = %v, fresh table says %v", p, u, gains[u], want)
			}
		}
		// Memoized: the second call returns the same shared slice.
		again, err := ix.EmptySetGains(p)
		if err != nil {
			t.Fatal(err)
		}
		if &again[0] != &gains[0] {
			t.Fatalf("%v: EmptySetGains not memoized", p)
		}
	}
	if _, err := ix.EmptySetGains(Problem(9)); err == nil {
		t.Fatal("unknown problem: expected error")
	}
}

func TestEmptySetGainsConcurrent(t *testing.T) {
	ix := memoTestIndex(t, 300, 4, 10, 3)
	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := ix.EmptySetGains(Problem1)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = g
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatal("concurrent EmptySetGains returned different slices")
		}
	}
}

func TestEmptySetObjectiveMatchesFreshDTable(t *testing.T) {
	ix := memoTestIndex(t, 250, 6, 15, 11)
	members := make([]bool, ix.Graph().N())
	for _, p := range []Problem{Problem1, Problem2} {
		got, err := ix.EmptySetObjective(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ix.NewDTable(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := d.EstimateObjective(members); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: EmptySetObjective = %v, fresh table says %v", p, got, want)
		}
	}
	if _, err := ix.EmptySetObjective(Problem(0)); err == nil {
		t.Fatal("unknown problem: expected error")
	}
}

// ExtendFrom(snapshot of S, Δ...) must land on exactly the state a full
// replay of S ∪ Δ produces — gains and objective bit-identical.
func TestSnapshotExtendFromMatchesReplay(t *testing.T) {
	ix := memoTestIndex(t, 350, 5, 12, 5)
	n := ix.Graph().N()
	for _, p := range []Problem{Problem1, Problem2} {
		prefix := []int{17, 3, 250}
		delta := []int{42, 9}

		base, err := ix.NewDTable(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range prefix {
			base.Update(u)
		}
		snap := base.Snapshot()

		ext, err := ix.NewDTable(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := ext.ExtendFrom(snap, delta...); err != nil {
			t.Fatal(err)
		}

		replay, err := ix.NewDTable(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range append(append([]int{}, prefix...), delta...) {
			replay.Update(u)
		}

		if ext.Size() != replay.Size() {
			t.Fatalf("%v: extended size %d, replay %d", p, ext.Size(), replay.Size())
		}
		for u := 0; u < n; u++ {
			if g, w := ext.Gain(u), replay.Gain(u); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%v: Gain(%d) = %v after ExtendFrom, %v after replay", p, u, g, w)
			}
		}
		members := make([]bool, n)
		for _, u := range append(append([]int{}, prefix...), delta...) {
			members[u] = true
		}
		if g, w := ext.EstimateObjective(members), replay.EstimateObjective(members); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%v: objective %v after ExtendFrom, %v after replay", p, g, w)
		}
	}
}

func TestSnapshotInvalidation(t *testing.T) {
	ix := memoTestIndex(t, 100, 4, 8, 2)
	d, err := ix.NewDTable(Problem2)
	if err != nil {
		t.Fatal(err)
	}
	d.Update(1)
	snap := d.Snapshot()
	if snap.Size() != 1 || snap.Problem() != Problem2 {
		t.Fatalf("snapshot size/problem = %d/%v", snap.Size(), snap.Problem())
	}
	dst, err := ix.NewDTable(Problem2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ExtendFrom(snap); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	d.Update(2) // invalidates snap
	if err := dst.ExtendFrom(snap); err == nil {
		t.Fatal("stale snapshot accepted")
	}
}

func TestExtendFromMismatches(t *testing.T) {
	ix := memoTestIndex(t, 100, 4, 8, 2)
	other := memoTestIndex(t, 100, 4, 8, 3)
	d1, _ := ix.NewDTable(Problem1)
	d2, _ := ix.NewDTable(Problem2)
	o1, _ := other.NewDTable(Problem1)
	if err := d1.ExtendFrom(d2.Snapshot()); err == nil {
		t.Fatal("cross-problem ExtendFrom accepted")
	}
	if err := d1.ExtendFrom(o1.Snapshot()); err == nil {
		t.Fatal("cross-index ExtendFrom accepted")
	}
	if err := d1.ExtendFrom(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

func TestDTableAccessors(t *testing.T) {
	ix := memoTestIndex(t, 120, 4, 8, 2)
	d, _ := ix.NewDTable(Problem2)
	if d.Index() != ix {
		t.Fatal("Index() accessor broken")
	}
	want := int64(len(d.cols[0].d))*2 + int64(len(d.cols[0].sat))
	if d.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d", d.MemoryBytes(), want)
	}
}
