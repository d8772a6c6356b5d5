package engine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/testleak"
)

func testGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.BarabasiAlbert(n, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	testleak.Check(t)
	if cfg.Graphs == nil {
		cfg.Graphs = map[string]*graph.Graph{"test": testGraph(t, 600, 1)}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// A memo table pinned by an in-flight request when its index is evicted is
// orphaned, not freed: the holder keeps reading a valid frozen table, no
// new request can acquire it, and its memory goes with the last release.
func TestIndexEvictionOrphansPinnedMemoTable(t *testing.T) {
	g := testGraph(t, 300, 6)
	e := newTestEngine(t, Config{Graphs: map[string]*graph.Graph{"test": g}})

	key := index.CacheKey{Graph: "test", L: 4, R: 10, Seed: 1}
	h, err := e.cache.Acquire(key, g, func() (*index.Index, error) {
		return index.BuildWorkers(g, key.L, key.R, key.Seed, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := memoKey{idx: key, problem: index.Problem2, set: "1,2"}
	mh, status, err := e.memo.acquire(mk, []int{1, 2}, h.Index())
	if err != nil {
		t.Fatal(err)
	}
	if status != MemoMiss {
		t.Fatalf("first acquire status %q, want %q", status, MemoMiss)
	}
	want := mh.Table().Gain(5)
	h.Release()

	// Evict the index while the memo handle is still held.
	if got := e.cache.EvictIdle(e.cache.Clock()); got != 1 {
		t.Fatalf("EvictIdle evicted %d, want 1", got)
	}
	ms := e.MemoStats()
	if ms.Invalidated != 1 || ms.Resident != 0 {
		t.Fatalf("memo after eviction: %+v, want 1 invalidated, 0 resident", ms)
	}
	// The orphaned table still serves identical reads.
	if got := mh.Table().Gain(5); got != want {
		t.Fatalf("orphaned table gain = %v, want %v", got, want)
	}
	mh.Release()
	if refs := e.MemoPinnedRefs(); refs != 0 {
		t.Fatalf("%d refs pinned after release", refs)
	}

	// A later request for the same set repopulates from scratch (the orphan
	// is unreachable), against a freshly built index.
	h2, err := e.cache.Acquire(key, g, func() (*index.Index, error) {
		return index.BuildWorkers(g, key.L, key.R, key.Seed, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	mh2, status, err := e.memo.acquire(mk, []int{1, 2}, h2.Index())
	if err != nil {
		t.Fatal(err)
	}
	defer mh2.Release()
	if status != MemoMiss {
		t.Fatalf("post-invalidation acquire status %q, want %q (fresh population)", status, MemoMiss)
	}
	// Same walks (same build identity), so the repopulated table agrees.
	if got := mh2.Table().Gain(5); got != want {
		t.Fatalf("repopulated table gain = %v, want %v", got, want)
	}
}

// Two index instances under one CacheKey — what a repair in place leaves
// behind when a fresh build already serves the old key — must never share
// or extend each other's memoized tables: a table is a view of the instance
// it was built on.
func TestMemoTablesStayWithTheirIndexInstance(t *testing.T) {
	g := testGraph(t, 300, 6)
	key := index.CacheKey{Graph: "test", L: 4, R: 10, Seed: 1}
	build := func() *index.Index {
		ix, err := index.BuildWorkers(g, key.L, key.R, key.Seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix1, ix2 := build(), build()
	memo := newMemoCache(0, 0)
	acquire := func(set []int, ix *index.Index, want string) {
		t.Helper()
		canon, setKey := canonicalSet(set)
		mh, status, err := memo.acquire(memoKey{idx: key, problem: index.Problem2, set: setKey}, canon, ix)
		if err != nil {
			t.Fatal(err)
		}
		defer mh.Release()
		if status != want {
			t.Fatalf("set %v on instance %p: status %q, want %q", set, ix, status, want)
		}
		if mh.Table().Index() != ix {
			t.Fatalf("set %v: table built on instance %p, want %p", set, mh.Table().Index(), ix)
		}
	}
	acquire([]int{1}, ix1, MemoMiss)
	acquire([]int{1, 2}, ix2, MemoMiss) // ix1's {1} is not ix2's prefix
	acquire([]int{1}, ix2, MemoMiss)    // nor is it ix2's {1}
	acquire([]int{1}, ix1, MemoHit)
	acquire([]int{1, 2, 3}, ix1, MemoExtended) // from ix1's {1}, not ix2's {1, 2}
	acquire([]int{1, 2, 3}, ix2, MemoExtended) // from ix2's {1, 2}
}
