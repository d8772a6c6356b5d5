package index

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestSpillRejectsStaleEpoch is the stale-spill regression test for mutable
// graphs: the spill header's graph fingerprint cannot distinguish a graph
// that was mutated and mutated back (the structure round-trips) from one
// that was never mutated, so the spill format carries the graph epoch and
// the loader rejects on mismatch — a stale file falls back to a rebuild,
// exactly like a corrupt one, never a silent warm load. Without the epoch
// both scenarios below would load "successfully".
func TestSpillRejectsStaleEpoch(t *testing.T) {
	dir := t.TempDir()
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	_, path := spillFileFor(t, dir, key) // written at graph epoch 0

	g := cacheTestGraph(t, 31)
	var e graph.Edge
	g.Edges(func(u, v int, w float64) bool { e = graph.Edge{U: u, V: v}; return false })
	g1, _, err := g.ApplyDelta(graph.Delta{RemoveEdges: []graph.Edge{e}})
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := g1.ApplyDelta(graph.Delta{AddEdges: []graph.Edge{e}})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Fatal("test premise: a delta plus its inverse must round-trip the fingerprint")
	}
	if g2.Epoch() != 2 {
		t.Fatalf("test premise: epoch = %d, want 2", g2.Epoch())
	}

	// Direct load: the epoch-0 file must be rejected against the epoch-2
	// graph on the epoch alone — the fingerprint check cannot fire here.
	// (LoadAny: the cache writes v8 store files by default now, and the v8
	// loader carries the same epoch check.)
	if _, err := LoadAny(path, g2, StoreOptions{}); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("LoadAny against mutated-back graph: err = %v, want epoch mismatch", err)
	}

	// Restart-style cache path: an index spilled post-mutation sits at the
	// pre-mutation key's path (stale file, hash collision — the mechanism
	// does not matter). The warm load must fail, be counted, and fall back
	// to a rebuild.
	ix2, err := Build(g2, key.L, key.R, key.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.GraphEpoch() != 2 {
		t.Fatalf("built GraphEpoch = %d, want 2", ix2.GraphEpoch())
	}
	if err := ix2.SaveStore(path, true); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &rebuilds))
	if err != nil {
		t.Fatalf("acquire over stale-epoch spill: %v", err)
	}
	defer h.Release()
	if rebuilds.Load() != 1 {
		t.Fatalf("rebuilds = %d, want 1 (stale-epoch spill must not be served)", rebuilds.Load())
	}
	s := c.Stats()
	if s.SpillLoadErrors != 1 {
		t.Fatalf("SpillLoadErrors = %d, want 1", s.SpillLoadErrors)
	}
	if s.SpillLoads != 0 {
		t.Fatalf("SpillLoads = %d, want 0", s.SpillLoads)
	}
}

// TestCacheKeyEpochSeparatesSpillPaths asserts keys at different epochs
// spill to different paths (the first line of defense: a post-mutation miss
// can never even open a pre-mutation file), while epoch 0 keeps the
// pre-mutation path stable.
func TestCacheKeyEpochSeparatesSpillPaths(t *testing.T) {
	c, err := NewCache(4, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k0 := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	k2 := k0
	k2.Epoch = 2
	if c.spillPath(k0) == c.spillPath(k2) {
		t.Fatal("epoch does not separate spill paths")
	}
	if got, want := k0.String(), "g/L=4/R=15/seed=3"; got != want {
		t.Fatalf("epoch-0 key string = %q, want unchanged %q", got, want)
	}
	if !strings.Contains(k2.String(), "epoch=2") {
		t.Fatalf("epoch-2 key string = %q, want epoch rendered", k2.String())
	}
}
