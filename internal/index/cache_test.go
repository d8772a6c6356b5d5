package index

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// waitForSpillSaves polls for eviction spills, which run asynchronously.
func waitForSpillSaves(t *testing.T, c *Cache, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().SpillSaves < want {
		if time.Now().After(deadline) {
			t.Fatalf("spill saves = %d, want %d", c.Stats().SpillSaves, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func cacheTestGraph(t testing.TB, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.BarabasiAlbert(200, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildFor(g *graph.Graph, key CacheKey, builds *atomic.Int64) func() (*Index, error) {
	return func() (*Index, error) {
		builds.Add(1)
		return Build(g, key.L, key.R, key.Seed)
	}
}

func TestCacheCoalescesConcurrentBuilds(t *testing.T) {
	g := cacheTestGraph(t, 1)
	c, err := NewCache(4, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{Graph: "g", L: 4, R: 20, Seed: 7}
	var builds atomic.Int64
	const callers = 16
	handles := make([]*Handle, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.Acquire(key, g, buildFor(g, key, &builds))
			if err != nil {
				t.Error(err)
				return
			}
			handles[i] = h
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d concurrent Acquires ran %d builds, want exactly 1", callers, got)
	}
	for _, h := range handles {
		if h == nil {
			t.Fatal("missing handle")
		}
		if h.Index() != handles[0].Index() {
			t.Fatal("concurrent Acquires returned different indexes")
		}
		h.Release()
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", s, callers-1)
	}
}

func TestCacheLRUEvictionRespectsRefs(t *testing.T) {
	g := cacheTestGraph(t, 2)
	c, err := NewCache(2, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	acquire := func(seed uint64) *Handle {
		key := CacheKey{Graph: "g", L: 3, R: 10, Seed: seed}
		h, err := c.Acquire(key, g, buildFor(g, key, &builds))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1 := acquire(1) // pinned: must survive any eviction pressure
	h2 := acquire(2)
	h2.Release()
	h3 := acquire(3) // over capacity: seed 2 (unreferenced LRU) must go
	h3.Release()
	keys := c.Keys()
	if len(keys) != 2 {
		t.Fatalf("resident keys = %v, want 2", keys)
	}
	for _, k := range keys {
		if k.Seed == 2 {
			t.Fatalf("unreferenced LRU entry (seed 2) not evicted: %v", keys)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	// Re-acquiring the pinned entry is a hit even after pressure.
	before := builds.Load()
	h1b := acquire(1)
	if builds.Load() != before {
		t.Fatal("pinned entry was rebuilt")
	}
	h1b.Release()
	h1.Release()
	h1.Release() // double release is a no-op
}

func TestCacheSpillRoundTrip(t *testing.T) {
	g := cacheTestGraph(t, 3)
	dir := t.TempDir()
	c, err := NewCache(1, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	// The second Acquire of k1 below evicts k2, whose spill runs in the
	// background; drain it before the TempDir cleanup removes the directory
	// out from under the rename.
	t.Cleanup(c.spillWG.Wait)
	var builds atomic.Int64
	k1 := CacheKey{Graph: "g", L: 4, R: 15, Seed: 1}
	k2 := CacheKey{Graph: "g", L: 4, R: 15, Seed: 2}
	h1, err := c.Acquire(k1, g, buildFor(g, k1, &builds))
	if err != nil {
		t.Fatal(err)
	}
	wantEntries := h1.Index().Entries()
	h1.Release()
	h2, err := c.Acquire(k2, g, buildFor(g, k2, &builds)) // evicts + spills k1
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	waitForSpillSaves(t, c, 1)
	// Miss on k1 now loads from disk instead of building.
	before := builds.Load()
	h1b, err := c.Acquire(k1, g, func() (*Index, error) {
		return nil, errors.New("build must not run: spill file exists")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h1b.Release()
	if builds.Load() != before {
		t.Fatal("spill load still ran the build")
	}
	if got := h1b.Index().Entries(); got != wantEntries {
		t.Fatalf("spill-loaded index has %d entries, want %d", got, wantEntries)
	}
	if s := c.Stats(); s.SpillLoads != 1 {
		t.Fatalf("spill loads = %d, want 1", s.SpillLoads)
	}
}

func TestCacheWarmRestartViaSpillAll(t *testing.T) {
	g := cacheTestGraph(t, 4)
	dir := t.TempDir()
	c, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	key := CacheKey{Graph: "g", L: 5, R: 12, Seed: 9}
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := c.SpillAll(); err != nil {
		t.Fatal(err)
	}
	// A "restarted daemon": fresh cache over the same spill dir.
	c2, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c2.Acquire(key, g, func() (*Index, error) {
		return nil, errors.New("cold build after restart: spill file should have been used")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if s := c2.Stats(); s.SpillLoads != 1 {
		t.Fatalf("restart spill loads = %d, want 1", s.SpillLoads)
	}
}

func TestCacheSpillRejectsDifferentGraph(t *testing.T) {
	g := cacheTestGraph(t, 5)
	other := cacheTestGraph(t, 6)
	dir := t.TempDir()
	c, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{Graph: "g", L: 4, R: 10, Seed: 1}
	var builds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := c.SpillAll(); err != nil {
		t.Fatal(err)
	}
	// Same key, structurally different graph: the fingerprint check must
	// reject the spill file and fall back to the build.
	c2, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c2.Acquire(key, other, buildFor(other, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if got := builds.Load(); got != 2 {
		t.Fatalf("builds = %d, want 2 (spill file for a different graph must be rejected)", got)
	}
}

// A spill file whose path matches a key but whose build seed differs (an
// FNV path collision, or a file left by an older daemon) must be rejected
// by the header check, not warm-loaded — a wrong-seed index silently
// changes every answer.
func TestCacheSpillRejectsDifferentSeed(t *testing.T) {
	g := cacheTestGraph(t, 9)
	dir := t.TempDir()
	c, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	wrongSeed, err := Build(g, 4, 10, 999)
	if err != nil {
		t.Fatal(err)
	}
	// Plant the wrong-seed index at exactly the path the colliding key maps
	// to: same graph, L and R, so only the (newly serialized) seed header
	// field can expose the mismatch.
	key := CacheKey{Graph: "g", L: 4, R: 10, Seed: 1}
	if err := wrongSeed.SaveStore(c.spillPath(key), true); err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if builds.Load() != 1 {
		t.Fatal("wrong-seed spill file was warm-loaded instead of rebuilt")
	}
	if got := h.Index().Seed(); got != 1 {
		t.Fatalf("acquired index has seed %d, want 1", got)
	}
	if s := c.Stats(); s.SpillLoads != 0 {
		t.Fatalf("spill loads = %d, want 0", s.SpillLoads)
	}
}

// The bytes budget evicts LRU indexes once their summed MemoryBytes exceeds
// it, independent of the entry-count cap.
func TestCacheBytesBudget(t *testing.T) {
	g := cacheTestGraph(t, 10)
	probe, err := Build(g, 4, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.MemoryBytes() + probe.MemoryBytes()/2 // fits 1, not 2
	c, err := NewCache(0, budget, "")
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	for seed := uint64(1); seed <= 3; seed++ {
		key := CacheKey{Graph: "g", L: 4, R: 12, Seed: seed}
		h, err := c.Acquire(key, g, buildFor(g, key, &builds))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	s := c.Stats()
	if s.ResidentBytes > budget {
		t.Fatalf("resident bytes %d over the %d budget", s.ResidentBytes, budget)
	}
	if s.Evictions == 0 {
		t.Fatal("bytes budget never evicted")
	}
	// The newest index survived.
	keys := c.Keys()
	if len(keys) == 0 {
		t.Fatal("budget evicted everything")
	}
	for _, k := range keys {
		if k.Seed == 1 {
			t.Fatalf("LRU entry survived bytes pressure: %v", keys)
		}
	}
}

// Evictions must reach the registered eviction hook with their keys — the
// linkage the serving layer uses to drop dependent memo tables.
func TestCacheEvictionHook(t *testing.T) {
	g := cacheTestGraph(t, 11)
	c, err := NewCache(1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var notified []CacheKey
	c.OnEviction(func(keys []CacheKey) {
		mu.Lock()
		notified = append(notified, keys...)
		mu.Unlock()
	})
	var builds atomic.Int64
	for seed := uint64(1); seed <= 2; seed++ {
		key := CacheKey{Graph: "g", L: 3, R: 8, Seed: seed}
		h, err := c.Acquire(key, g, buildFor(g, key, &builds))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(notified) != 1 || notified[0].Seed != 1 {
		t.Fatalf("eviction hook saw %v, want the seed-1 key", notified)
	}
}

func TestCacheBuildErrorPropagatesToAllWaiters(t *testing.T) {
	g := cacheTestGraph(t, 7)
	c, err := NewCache(4, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey{Graph: "g", L: 4, R: 10, Seed: 1}
	boom := errors.New("boom")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Acquire(key, g, func() (*Index, error) { return nil, boom })
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: err = %v, want boom", i, err)
		}
	}
	// The failed entry must not stay resident; the next Acquire rebuilds.
	var builds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if builds.Load() != 1 {
		t.Fatal("failed build left a poisoned entry")
	}
}

func TestCacheEvictIdle(t *testing.T) {
	g := cacheTestGraph(t, 8)
	c, err := NewCache(0, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	for seed := uint64(1); seed <= 3; seed++ {
		key := CacheKey{Graph: "g", L: 3, R: 8, Seed: seed}
		h, err := c.Acquire(key, g, buildFor(g, key, &builds))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	mark := c.Clock()
	// Touch seed 3 after the mark; idle eviction at the mark must drop only
	// seeds 1 and 2.
	key3 := CacheKey{Graph: "g", L: 3, R: 8, Seed: 3}
	h, err := c.Acquire(key3, g, buildFor(g, key3, &builds))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if got := c.EvictIdle(mark); got != 2 {
		t.Fatalf("EvictIdle evicted %d, want 2", got)
	}
	keys := c.Keys()
	if len(keys) != 1 || keys[0].Seed != 3 {
		t.Fatalf("resident after idle eviction = %v, want only seed 3", keys)
	}
}

func TestCacheKeyString(t *testing.T) {
	k := CacheKey{Graph: "epinions", L: 6, R: 100, Seed: 42}
	if got, want := k.String(), "epinions/L=6/R=100/seed=42"; got != want {
		t.Fatalf("key string = %q, want %q", got, want)
	}
	c, err := NewCache(0, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p1 := c.spillPath(k)
	p2 := c.spillPath(CacheKey{Graph: "epinions", L: 6, R: 100, Seed: 43})
	if p1 == p2 {
		t.Fatal("distinct keys share a spill path")
	}
	if fmt.Sprint(p1) == "" {
		t.Fatal("empty spill path")
	}
}
