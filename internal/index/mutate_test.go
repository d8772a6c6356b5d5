package index

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// applyAndRepair applies d to g, repairs ix in place, and returns the
// mutated graph.
func applyAndRepair(t testing.TB, ix *Index, g *graph.Graph, d graph.Delta) *graph.Graph {
	t.Helper()
	ng, touched, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if err := ix.Repair(ng, touched); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	return ng
}

// assertRebuildParity asserts the repaired index is bit-identical to a fresh
// build against its current graph: same row contents walk-for-walk, and —
// once compacted — the exact same CSR arrays in every chunk.
func assertRebuildParity(t testing.TB, ix *Index, workers int) {
	t.Helper()
	ref, err := BuildRangeWorkers(ix.Graph(), ix.L(), ix.Seed(), ix.R0(), ix.R0()+ix.R(), workers)
	if err != nil {
		t.Fatalf("reference rebuild: %v", err)
	}
	n := ix.Graph().N()
	for v := 0; v < n; v++ {
		for i := 0; i < ix.R(); i++ {
			gotIDs, gotHops := ix.Row(i, v)
			wantIDs, wantHops := ref.Row(i, v)
			if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotHops, wantHops) {
				t.Fatalf("row (%d,%d) diverged: got %v/%v want %v/%v", i, v, gotIDs, gotHops, wantIDs, wantHops)
			}
		}
	}
	for _, pt := range ix.chunks {
		c, err := pt.compacted()
		if err != nil {
			t.Fatal(err)
		}
		want := buildChunk(ix.Graph(), ix.L(), ix.Seed(), pt.r0, pt.r0+pt.r, workers)
		if !reflect.DeepEqual(c.offsets, want.offsets) || !reflect.DeepEqual(c.ids, want.ids) || !reflect.DeepEqual(c.hops, want.hops) {
			t.Fatal("compacted repair is not bit-identical to a fresh rebuild")
		}
	}
	if ix.gepoch != ref.gepoch {
		t.Fatalf("graph epoch diverged: repaired %d, rebuilt %d", ix.gepoch, ref.gepoch)
	}
	if got, want := ix.Entries(), ref.Entries(); got != want {
		t.Fatalf("Entries() = %d, want %d", got, want)
	}
}

// TestRepairMatchesRebuild drives a delta sequence (edge adds, removals,
// node growth, a structural round-trip) through Repair and asserts parity
// with a from-scratch rebuild after every step, across worker counts and a
// partial replicate range.
func TestRepairMatchesRebuild(t *testing.T) {
	deltas := []graph.Delta{
		{AddEdges: []graph.Edge{{U: 3, V: 90}, {U: 0, V: 111}}},
		{RemoveEdges: []graph.Edge{{U: 3, V: 90}}},
		{AddNodes: 2, AddEdges: []graph.Edge{{U: 150, V: 151}, {U: 7, V: 150}}},
		{AddEdges: []graph.Edge{{U: 3, V: 90}}}, // round-trips delta 2's removal
		{RemoveEdges: []graph.Edge{{U: 0, V: 111}, {U: 7, V: 150}}},
	}
	builds := []struct {
		name    string
		r0, r1  int
		workers int
	}{
		{"full/workers=1", 0, 6, 1},
		{"full/workers=4", 0, 6, 4},
		{"partial[2,5)/workers=2", 2, 5, 2},
	}
	for _, bc := range builds {
		t.Run(bc.name, func(t *testing.T) {
			g, err := graph.BarabasiAlbert(150, 3, 11)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := BuildRangeWorkers(g, 6, 9, bc.r0, bc.r1, bc.workers)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range deltas {
				g = applyAndRepair(t, ix, g, d)
				if ix.GraphEpoch() != uint64(i+1) {
					t.Fatalf("delta %d: GraphEpoch = %d, want %d", i, ix.GraphEpoch(), i+1)
				}
				assertRebuildParity(t, ix, bc.workers)
			}
		})
	}
}

// TestRepairDirectedAndWeighted covers the graph variants whose adjacency
// semantics differ: directed arcs touch only the tail, weighted graphs
// resample through rebuilt alias tables.
func TestRepairDirectedAndWeighted(t *testing.T) {
	t.Run("directed", func(t *testing.T) {
		b := graph.NewBuilder(40, graph.Directed)
		for u := 0; u < 39; u++ {
			b.AddEdge(u, u+1)
			b.AddEdge(u, (u*7+3)%40)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(g, 5, 4, 21)
		if err != nil {
			t.Fatal(err)
		}
		g = applyAndRepair(t, ix, g, graph.Delta{AddEdges: []graph.Edge{{U: 39, V: 0}}})
		assertRebuildParity(t, ix, 1)
		g = applyAndRepair(t, ix, g, graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 1}}})
		assertRebuildParity(t, ix, 1)
	})
	t.Run("weighted", func(t *testing.T) {
		b := graph.NewBuilder(30, graph.Undirected)
		for u := 0; u < 29; u++ {
			b.AddWeightedEdge(u, u+1, float64(u%5)+0.5)
			if w := (u*3 + 2) % 30; w != u {
				b.AddWeightedEdge(u, w, 2)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(g, 5, 4, 22)
		if err != nil {
			t.Fatal(err)
		}
		g = applyAndRepair(t, ix, g, graph.Delta{AddEdges: []graph.Edge{{U: 0, V: 15, W: 3.25}}})
		assertRebuildParity(t, ix, 1)
		_ = applyAndRepair(t, ix, g, graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 1}}})
		assertRebuildParity(t, ix, 1)
	})
}

// TestRepairRejections covers the guard rails: explicit-walk indexes, epoch
// skew, shrunken graphs, out-of-range touched nodes.
func TestRepairRejections(t *testing.T) {
	g, err := graph.BarabasiAlbert(30, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g1, touched, err := g.ApplyDelta(graph.Delta{AddEdges: []graph.Edge{{U: 0, V: 20}}})
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := g1.ApplyDelta(graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 20}}})
	if err != nil {
		t.Fatal(err)
	}

	walks := make([][][]int32, g.N())
	for w := range walks {
		walks[w] = [][]int32{{int32(w)}}
	}
	fromWalks, err := BuildFromWalks(g, 2, 1, walks)
	if err != nil {
		t.Fatal(err)
	}
	if err := fromWalks.Repair(g1, touched); err != ErrUnrepairable {
		t.Fatalf("BuildFromWalks repair err = %v, want ErrUnrepairable", err)
	}

	ix, err := Build(g, 4, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Repair(g2, touched); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("two-epoch jump err = %v, want epoch mismatch", err)
	}
	if err := ix.Repair(g1, []int{g1.N()}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range touched err = %v, want range error", err)
	}
	if err := ix.Repair(nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	// The failed attempts must not have mutated the index.
	if ix.GraphEpoch() != 0 || ix.chunks[0].ends != nil {
		t.Fatal("rejected repair left the index modified")
	}
}

// TestRepairDropsEmptySetMemos asserts the memoized empty-set vectors are
// recomputed against the post-mutation entries (and resized when nodes were
// added) instead of served stale.
func TestRepairDropsEmptySetMemos(t *testing.T) {
	g, err := graph.BarabasiAlbert(60, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, 5, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Problem{Problem1, Problem2} {
		if _, err := ix.EmptySetGains(p); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.EmptySetGainSums(p); err != nil {
			t.Fatal(err)
		}
	}
	g = applyAndRepair(t, ix, g, graph.Delta{AddNodes: 1, AddEdges: []graph.Edge{{U: 0, V: 60}, {U: 1, V: 60}}})
	ref, err := Build(g, 5, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Problem{Problem1, Problem2} {
		got, err := ix.EmptySetGains(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.EmptySetGains(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%v: post-repair EmptySetGains diverge from rebuild", p)
		}
		gotS, err := ix.EmptySetGainSums(p)
		if err != nil {
			t.Fatal(err)
		}
		wantS, err := ref.EmptySetGainSums(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotS, wantS) {
			t.Fatalf("%v: post-repair EmptySetGainSums diverge from rebuild", p)
		}
	}
}

// TestWriteStoreSerializesPatchedAsCompact asserts serialization of a
// patched index emits the canonical compact form without mutating the
// receiver, and that the round-trip preserves the graph epoch.
func TestWriteStoreSerializesPatchedAsCompact(t *testing.T) {
	g, err := graph.BarabasiAlbert(50, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, 5, 4, 19)
	if err != nil {
		t.Fatal(err)
	}
	g = applyAndRepair(t, ix, g, graph.Delta{AddEdges: []graph.Edge{{U: 0, V: 30}}})
	if ix.chunks[0].ends == nil {
		t.Fatal("test premise: index should be patched after repair")
	}
	path := t.TempDir() + "/patched.rwdomidx"
	if err := ix.SaveStore(path, false); err != nil {
		t.Fatal(err)
	}
	if ix.chunks[0].ends == nil {
		t.Fatal("WriteStore compacted the receiver; it must serialize a copy")
	}
	loaded, err := LoadAny(path, g, StoreOptions{})
	if err != nil {
		t.Fatalf("round-trip of a patched index: %v", err)
	}
	if loaded.GraphEpoch() != 1 {
		t.Fatalf("round-tripped GraphEpoch = %d, want 1", loaded.GraphEpoch())
	}
	c, err := ix.chunks[0].compacted()
	if err != nil {
		t.Fatal(err)
	}
	lc := loaded.chunks[0]
	if !reflect.DeepEqual(lc.offsets, c.offsets) || !reflect.DeepEqual(lc.ids, c.ids) || !reflect.DeepEqual(lc.hops, c.hops) {
		t.Fatal("round-trip diverges from the compacted form")
	}
}

// TestRepairCompactsWhenMostlyDead forces enough relocations that the dead
// fraction crosses the threshold and asserts the index lands compact again.
func TestRepairCompactsWhenMostlyDead(t *testing.T) {
	g, err := graph.BarabasiAlbert(40, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, 6, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	// Toggle a hub's edge repeatedly: every toggle rewrites many rows, so
	// dead storage accumulates until the threshold compaction fires.
	compacted := false
	for k := 0; k < 40; k++ {
		var d graph.Delta
		if g.HasEdge(0, 25) {
			d = graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 25}}}
		} else {
			d = graph.Delta{AddEdges: []graph.Edge{{U: 0, V: 25}}}
		}
		g = applyAndRepair(t, ix, g, d)
		if ix.chunks[0].ends == nil && ix.GraphEpoch() > 0 {
			compacted = true
		}
	}
	if !compacted {
		t.Fatal("threshold compaction never fired across 40 churning deltas")
	}
	assertRebuildParity(t, ix, 1)
}

// FuzzApplyDelta drives random delta sequences through ApplyDelta + Repair
// and asserts the incremental index stays walk-for-walk identical to a
// from-scratch rebuild, with a monotone epoch, at every step.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 7, 200, 13, 0, 7, 200, 13}) // toggle the same pair twice
	f.Add([]byte{0, 0, 14, 14, 21, 22})         // AddNodes opcodes and a no-op pair
	f.Fuzz(func(t *testing.T, ops []byte) {
		g, err := graph.ErdosRenyi(24, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		const L, R, seed = 5, 3, 17
		ix, err := Build(g, L, R, seed)
		if err != nil {
			t.Fatal(err)
		}
		epoch := uint64(0)
		steps := 0
		for k := 0; k+1 < len(ops) && steps < 24; k += 2 {
			a, b := ops[k], ops[k+1]
			n := g.N()
			u, v := int(a)%n, int(b)%n
			var d graph.Delta
			switch {
			case a%7 == 0:
				d = graph.Delta{AddNodes: 1}
			case u == v:
				continue
			case g.HasEdge(u, v):
				d = graph.Delta{RemoveEdges: []graph.Edge{{U: u, V: v}}}
			default:
				d = graph.Delta{AddEdges: []graph.Edge{{U: u, V: v}}}
			}
			ng, touched, err := g.ApplyDelta(d)
			if err != nil {
				t.Fatalf("step %d: ApplyDelta(%+v): %v", steps, d, err)
			}
			if err := ix.Repair(ng, touched); err != nil {
				t.Fatalf("step %d: Repair: %v", steps, err)
			}
			g = ng
			epoch++
			steps++
			if g.Epoch() != epoch || ix.GraphEpoch() != epoch {
				t.Fatalf("step %d: epoch not monotone (graph %d, index %d, want %d)", steps, g.Epoch(), ix.GraphEpoch(), epoch)
			}
			assertRebuildParity(t, ix, 1)
		}
	})
}

// rowSnapshot copies every row of ix, for comparing an instance against
// itself across a repair.
func rowSnapshot(ix *Index) [][2][]int {
	var rows [][2][]int
	for v := 0; v < ix.Graph().N(); v++ {
		for i := 0; i < ix.R(); i++ {
			ids, hops := ix.Row(i, v)
			var r [2][]int
			for e := range ids {
				r[0] = append(r[0], int(ids[e]))
				r[1] = append(r[1], int(hops[e]))
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// assertUnchanged asserts ix still answers every row and both empty-set
// gain vectors exactly as recorded before a repair.
func assertUnchanged(t *testing.T, ix *Index, rows [][2][]int, empty [2][]float64) {
	t.Helper()
	if !reflect.DeepEqual(rowSnapshot(ix), rows) {
		t.Fatal("repair changed a row of its predecessor")
	}
	for pi, p := range []Problem{Problem1, Problem2} {
		got, err := ix.EmptySetGains(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, empty[pi]) {
			t.Fatalf("%v: repair changed the predecessor's EmptySetGains", p)
		}
	}
}

// emptyGains returns both problems' empty-set gain vectors of ix.
func emptyGains(t *testing.T, ix *Index) [2][]float64 {
	t.Helper()
	var out [2][]float64
	for pi, p := range []Problem{Problem1, Problem2} {
		v, err := ix.EmptySetGains(p)
		if err != nil {
			t.Fatal(err)
		}
		out[pi] = slices.Clone(v)
	}
	return out
}

// TestRepairedLeavesPredecessorIntact: a chain of copy-on-write repairs —
// each successor appending into the storage its predecessor shares — never
// changes a row or an empty-set gain of any earlier instance, and every
// successor has rebuild parity.
func TestRepairedLeavesPredecessorIntact(t *testing.T) {
	g, err := graph.BarabasiAlbert(150, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildWorkers(g, 6, 6, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	deltas := []graph.Delta{
		{AddEdges: []graph.Edge{{U: 3, V: 90}, {U: 0, V: 111}}},
		{AddNodes: 1, AddEdges: []graph.Edge{{U: 150, V: 4}, {U: 150, V: 77}}},
		{RemoveEdges: []graph.Edge{{U: 3, V: 90}}},
	}
	type seen struct {
		ix    *Index
		rows  [][2][]int
		empty [2][]float64
	}
	var chain []seen
	for _, d := range deltas {
		chain = append(chain, seen{ix, rowSnapshot(ix), emptyGains(t, ix)})
		ng, touched, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if ix, err = ix.Repaired(ng, touched); err != nil {
			t.Fatal(err)
		}
		g = ng
		assertRebuildParity(t, ix, 1)
		for _, c := range chain {
			assertUnchanged(t, c.ix, c.rows, c.empty)
		}
	}
}

// withSpareCapacity regrows ix's entry storage with room for a successor
// to append into, as a repaired index has once its storage has grown.
func withSpareCapacity(ix *Index) {
	for _, c := range ix.chunks {
		c.ids = slices.Grow(c.ids, len(c.ids))
		c.hops = slices.Grow(c.hops, len(c.hops))
	}
}

// TestRepairedTwoSuccessors: two successors of one instance, from two
// different deltas, each compact to their own rebuild — only one may
// append into the shared spare capacity, so the second must not clobber
// the first — and each keeps repairing independently.
func TestRepairedTwoSuccessors(t *testing.T) {
	g, err := graph.BarabasiAlbert(150, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(g, 6, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	withSpareCapacity(base)
	ga, ta, err := g.ApplyDelta(graph.Delta{AddEdges: []graph.Edge{{U: 3, V: 90}, {U: 0, V: 111}}})
	if err != nil {
		t.Fatal(err)
	}
	gb, tb, err := g.ApplyDelta(graph.Delta{AddNodes: 2, AddEdges: []graph.Edge{{U: 150, V: 151}, {U: 7, V: 150}}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := base.Repaired(ga, ta)
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Repaired(gb, tb)
	if err != nil {
		t.Fatal(err)
	}
	if !base.chunks[0].tailClaimed.Load() || &a.chunks[0].ids[0] != &base.chunks[0].ids[0] {
		t.Fatal("test premise: the first successor appends into the shared tail")
	}
	assertRebuildParity(t, a, 1)
	assertRebuildParity(t, b, 1)
	ga2, ta2, err := ga.ApplyDelta(graph.Delta{RemoveEdges: []graph.Edge{{U: 0, V: 111}}})
	if err != nil {
		t.Fatal(err)
	}
	gb2, tb2, err := gb.ApplyDelta(graph.Delta{RemoveEdges: []graph.Edge{{U: 7, V: 150}}})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := a.Repaired(ga2, ta2)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := b.Repaired(gb2, tb2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*Index{a, b, a2, b2} {
		assertRebuildParity(t, ix, 1)
	}
}

// TestRepairedUnderReaders runs readers over an instance while successors
// are derived from it and from each other; under -race it proves the
// repair never writes memory a reader of the predecessor can see.
func TestRepairedUnderReaders(t *testing.T) {
	g, err := graph.BarabasiAlbert(200, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, 6, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	withSpareCapacity(ix)
	for step := 0; step < 4; step++ {
		want := rowSnapshot(ix)
		empty := emptyGains(t, ix)
		ng, touched, err := g.ApplyDelta(graph.Delta{AddNodes: 1, AddEdges: []graph.Edge{{U: g.N(), V: step}, {U: g.N(), V: 50 + step}}})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := ix.NewDTable(Problem1)
				if err != nil {
					t.Error(err)
					return
				}
				for {
					if !reflect.DeepEqual(rowSnapshot(ix), want) {
						t.Error("reader saw a row change during a repair")
						return
					}
					d.GainBatch([]int{0, 1, 2, 3}, nil)
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		next, err := ix.Repaired(ng, touched)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		assertUnchanged(t, ix, want, empty)
		assertRebuildParity(t, next, 1)
		ix, g = next, ng
	}
}

// TestRepairedMappedStore: repairing a store-backed index of one or three
// chunks gives a heap successor that answers exactly like a repaired heap
// twin and has rebuild parity, while the store-backed original keeps
// serving its epoch unchanged off its pages.
func TestRepairedMappedStore(t *testing.T) {
	g, err := graph.BarabasiAlbert(150, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Build(g, 5, 6, 41)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := BuildChunkedWorkers(g, 5, 12, 33, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	ng, touched, err := g.ApplyDelta(graph.Delta{AddNodes: 1, AddEdges: []graph.Edge{{U: 150, V: 0}, {U: 150, V: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, heap := range []*Index{flat, chunked} {
		want, err := heap.Repaired(ng, touched)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range storeVariants() {
			t.Run(fmt.Sprintf("chunks=%d/%s", heap.Chunks(), v.name), func(t *testing.T) {
				got := storeLoad(t, heap, v)
				s, err := got.Repaired(ng, touched)
				if err != nil {
					t.Fatal(err)
				}
				if s.StoreBacked() || !got.StoreBacked() {
					t.Fatal("promotion must land in the successor only")
				}
				if s.MemoryBytes() == 0 {
					t.Fatal("promoted successor reports zero heap bytes")
				}
				assertRebuildParity(t, s, 1)
				for _, p := range []Problem{Problem1, Problem2} {
					assertReadParity(t, want, s, p)
					assertReadParity(t, heap, got, p)
				}
			})
		}
	}
}
