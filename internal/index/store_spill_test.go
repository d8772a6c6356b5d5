package index

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// Cache-level corruption and format tests for v8 spill files served
// through the mmap path. The invariant under every corruption: the load
// fails at Open (CRCs + structural validation), SpillLoadErrors ticks, the
// build runs, and the served answers are those of a fresh build — never a
// panic, never a silently wrong index.

// mmapCache opens a cache over dir that writes compressed v8 and serves
// loads store-backed via mmap.
func mmapCache(t *testing.T, dir string, entries int) *Cache {
	t.Helper()
	c, err := NewCacheWith(entries, 0, dir, SpillConfig{Format: FormatV8, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.spillWG.Wait)
	return c
}

func TestCacheRebuildsOnCorruptV8Spill(t *testing.T) {
	corruptions := map[string]func(t *testing.T, path string){
		// One flipped bit in the first data section — for the default
		// compressed format that is a chunk's block-offset/span region; the
		// section CRC must reject it at Open.
		"compressed-span-bitflip": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) <= 4096 {
				t.Fatalf("spill file only %d bytes; first section expected at 4096", len(b))
			}
			b[4096] ^= 0x01
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// A file cut mid-section: the mmap is shorter than the directory
		// promises, which must fail the structural bounds check — not fault
		// when a query first touches the missing pages.
		"truncated-mmap": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// The chunk directory itself damaged: its CRC must reject the file
		// before any section offset in it is trusted.
		"directory-bitflip": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[120] ^= 0x80 // inside the first directory entry (header is 108 bytes)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
			g := cacheTestGraph(t, 31)
			c, err := NewCacheWith(4, 0, dir, SpillConfig{Format: FormatV8, Mmap: true})
			if err != nil {
				t.Fatal(err)
			}
			var builds atomic.Int64
			h, err := c.Acquire(key, g, buildFor(g, key, &builds))
			if err != nil {
				t.Fatal(err)
			}
			wantEntries := h.Index().Entries()
			h.Release()
			if err := c.SpillAll(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, c.spillPath(key))

			// A "restarted daemon" over the corrupt v8 spill.
			c2 := mmapCache(t, dir, 4)
			var rebuilds atomic.Int64
			h2, err := c2.Acquire(key, g, buildFor(g, key, &rebuilds))
			if err != nil {
				t.Fatalf("acquire over corrupt v8 spill: %v", err)
			}
			defer h2.Release()
			if rebuilds.Load() != 1 {
				t.Fatalf("rebuilds = %d, want 1 (corrupt spill must not be served)", rebuilds.Load())
			}
			if got := h2.Index().Entries(); got != wantEntries {
				t.Fatalf("rebuilt index has %d entries, want %d", got, wantEntries)
			}
			s := c2.Stats()
			if s.SpillLoadErrors != 1 {
				t.Fatalf("SpillLoadErrors = %d, want 1", s.SpillLoadErrors)
			}
			if s.SpillLoads != 0 || s.MmapLoads != 0 {
				t.Fatalf("SpillLoads = %d, MmapLoads = %d, want 0, 0", s.SpillLoads, s.MmapLoads)
			}
		})
	}
}

// TestCacheIgnoresStaleV8Spill covers a mismatched file under a key's path
// (hash collision or stale directory contents): the store opens fine but its
// identity does not match the key, so the cache must quietly rebuild — a
// stale file is not corruption, and must never be served.
func TestCacheIgnoresStaleV8Spill(t *testing.T) {
	dir := t.TempDir()
	g := cacheTestGraph(t, 31)
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	other, err := Build(g, 4, 15, 99) // same shape, different seed
	if err != nil {
		t.Fatal(err)
	}
	c := mmapCache(t, dir, 4)
	if err := other.SaveStore(c.spillPath(key), true); err != nil {
		t.Fatal(err)
	}
	var rebuilds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &rebuilds))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if rebuilds.Load() != 1 {
		t.Fatalf("rebuilds = %d, want 1 (stale spill must not be served)", rebuilds.Load())
	}
	if got := h.Index().Seed(); got != key.Seed {
		t.Fatalf("served index has seed %d, want %d", got, key.Seed)
	}
	s := c.Stats()
	if s.SpillLoads != 0 || s.SpillLoadErrors != 0 {
		t.Fatalf("SpillLoads = %d, SpillLoadErrors = %d, want 0, 0 (stale is neither a load nor an error)", s.SpillLoads, s.SpillLoadErrors)
	}
}

// TestCacheRebuildsOnV7Spill: v8 is the one on-disk format, and the cache
// is the only reader of old spill directories. A file in the retired v7
// format at a key's spill path fails to load and costs exactly one counted
// rebuild, whose answers are those of a fresh build.
func TestCacheRebuildsOnV7Spill(t *testing.T) {
	dir := t.TempDir()
	g := cacheTestGraph(t, 31)
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	c := mmapCache(t, dir, 4)
	// A v7 header (magic, version 7, fingerprint, n, L, R, seed, entries,
	// R0, epoch, chunk count) over a zeroed page.
	v7 := make([]byte, 4096)
	copy(v7, "RWDOMIDX")
	for i, w := range []uint64{7, g.Fingerprint(), uint64(g.N()), uint64(key.L), uint64(key.R), key.Seed, 0, 0, 0, 1} {
		binary.LittleEndian.PutUint64(v7[8+8*i:], w)
	}
	if err := os.WriteFile(c.spillPath(key), v7, 0o644); err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatalf("acquire over v7 spill: %v", err)
	}
	defer h.Release()
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1 (a v7 spill must cost one rebuild)", builds.Load())
	}
	s := c.Stats()
	if s.SpillLoadErrors != 1 || s.SpillLoads != 0 || s.MmapLoads != 0 {
		t.Fatalf("SpillLoadErrors = %d, SpillLoads = %d, MmapLoads = %d, want 1, 0, 0", s.SpillLoadErrors, s.SpillLoads, s.MmapLoads)
	}
	want, err := Build(g, key.L, key.R, key.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Problem{Problem1, Problem2} {
		assertReadParity(t, want, h.Index(), p)
	}
}

// TestLoadAgainstWrongGraphRejected: a v8 file binds only to the graph it
// was built on; a same-size graph of different structure is rejected by
// fingerprint.
func TestLoadAgainstWrongGraphRejected(t *testing.T) {
	g1, _ := graph.BarabasiAlbert(100, 2, 1)
	g2, _ := graph.BarabasiAlbert(100, 2, 2) // same size, different structure
	ix, _ := Build(g1, 4, 5, 1)
	path := filepath.Join(t.TempDir(), "ix.rwdomidx")
	if err := ix.SaveStore(path, true); err != nil {
		t.Fatal(err)
	}
	_, err := LoadAny(path, g2, StoreOptions{})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("wrong-graph load: got %v, want fingerprint mismatch", err)
	}
}

// TestCacheMmapRoundTrip is the page-in warm-restart path end to end: spill
// a built index as compressed v8, reopen the directory with mmap serving,
// and check the reload is store-backed, mapped, counted as a page-in
// restart, skipped on re-spill (its bytes are already durable), and that
// StorageStats reports the mapping.
func TestCacheMmapRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := cacheTestGraph(t, 31)
	key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
	c := mmapCache(t, dir, 4)
	var builds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	wantEntries := h.Index().Entries()
	h.Release()
	if err := c.SpillAll(); err != nil {
		t.Fatal(err)
	}

	c2 := mmapCache(t, dir, 4)
	h2, err := c2.Acquire(key, g, func() (*Index, error) {
		return nil, os.ErrInvalid // must not run
	})
	if err != nil {
		t.Fatalf("warm acquire: %v", err)
	}
	defer h2.Release()
	ix := h2.Index()
	if got := ix.Entries(); got != wantEntries {
		t.Fatalf("warm-loaded index has %d entries, want %d", got, wantEntries)
	}
	if !ix.StoreBacked() {
		t.Fatal("warm load not store-backed")
	}
	if !ix.StoreMapped() {
		t.Skip("mmap unavailable on this platform")
	}
	s := c2.Stats()
	if s.SpillLoads != 1 || s.MmapLoads != 1 {
		t.Fatalf("SpillLoads = %d, MmapLoads = %d, want 1, 1", s.SpillLoads, s.MmapLoads)
	}
	st := c2.StorageStats()
	if st.SpillFormat != FormatV8 || !st.Mmap {
		t.Fatalf("StorageStats format/mmap = %q/%v, want %q/true", st.SpillFormat, st.Mmap, FormatV8)
	}
	if st.MappedIndexes != 1 || st.MappedBytes <= 0 {
		t.Fatalf("MappedIndexes = %d, MappedBytes = %d, want 1, > 0", st.MappedIndexes, st.MappedBytes)
	}
	if st.PageInRestarts != 1 {
		t.Fatalf("PageInRestarts = %d, want 1", st.PageInRestarts)
	}
	// Mapped pages are page cache, not heap: the index must cost ~nothing
	// against the cache's bytes budget.
	if ix.MemoryBytes() != 0 {
		t.Fatalf("mapped index MemoryBytes = %d, want 0", ix.MemoryBytes())
	}
	// Re-spilling the unchanged store-backed index is skipped: the file on
	// disk already holds exactly these bytes.
	if err := c2.SpillAll(); err != nil {
		t.Fatal(err)
	}
	if s := c2.Stats(); s.SpillSkipped != 1 || s.SpillSaves != 0 {
		t.Fatalf("SpillSkipped = %d, SpillSaves = %d, want 1, 0", s.SpillSkipped, s.SpillSaves)
	}
}
