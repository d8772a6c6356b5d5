package index

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// spillFileFor builds key's index into a spilled file under dir and returns
// the cache (for its path naming) and the spill path.
func spillFileFor(t *testing.T, dir string, key CacheKey) (*Cache, string) {
	t.Helper()
	g := cacheTestGraph(t, 31)
	c, err := NewCache(4, 0, dir)
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	h, err := c.Acquire(key, g, buildFor(g, key, &builds))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if err := c.SpillAll(); err != nil {
		t.Fatal(err)
	}
	path := c.spillPath(key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spill file not written: %v", err)
	}
	return c, path
}

// TestCacheRebuildsOnCorruptSpill is the spill-corruption regression test: a
// spill file that was truncated or bit-flipped on disk must fail its CRC (or
// short-read) at load, tick SpillLoadErrors, and fall back to a rebuild —
// never a crash, never a silently wrong index.
func TestCacheRebuildsOnCorruptSpill(t *testing.T) {
	corruptions := map[string]func(t *testing.T, path string){
		"truncated": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)-16], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bitflip": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-100] ^= 0x40 // one flipped bit in the payload
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			key := CacheKey{Graph: "g", L: 4, R: 15, Seed: 3}
			_, path := spillFileFor(t, dir, key)
			corrupt(t, path)

			// A "restarted daemon" over the corrupt spill: the load must fail,
			// be counted, and fall back to the build.
			g := cacheTestGraph(t, 31)
			c2, err := NewCache(4, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			var rebuilds atomic.Int64
			h, err := c2.Acquire(key, g, buildFor(g, key, &rebuilds))
			if err != nil {
				t.Fatalf("acquire over corrupt spill: %v", err)
			}
			defer h.Release()
			if rebuilds.Load() != 1 {
				t.Fatalf("rebuilds = %d, want 1 (corrupt spill must not be served)", rebuilds.Load())
			}
			s := c2.Stats()
			if s.SpillLoadErrors != 1 {
				t.Fatalf("SpillLoadErrors = %d, want 1", s.SpillLoadErrors)
			}
			if s.SpillLoads != 0 {
				t.Fatalf("SpillLoads = %d, want 0 (the corrupt file must not count as a load)", s.SpillLoads)
			}
		})
	}
}

// TestWriteStoreFailsOnUndecodableChunk: a compressed v8 file whose block
// is malformed but whose CRCs were re-sealed over the damage opens fine —
// blocks decode lazily — so re-serializing the loaded index is the first
// full decode. It must fail, and SaveStore must publish no file, instead
// of sealing an empty chunk with valid CRCs that every later load would
// serve as empty rows.
func TestWriteStoreFailsOnUndecodableChunk(t *testing.T) {
	g := cacheTestGraph(t, 31)
	ix, err := Build(g, 4, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.rwdomidx")
	if err := ix.SaveStore(path, true); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Layout (internal/store): a 108-byte header, then one 13-word
	// directory entry per chunk and the directory CRC. Section 0 is the
	// per-node block offsets, section 1 the block blob.
	const hdr, entry = 108, 13 * 8
	chunks := int(binary.LittleEndian.Uint64(b[8+9*8:]))
	word := func(i int) []byte { return b[hdr+i*8:] }
	offsOff := int(binary.LittleEndian.Uint64(word(4)))
	blobOff := int(binary.LittleEndian.Uint64(word(7)))
	blobLen := int(binary.LittleEndian.Uint64(word(8)))
	// Set the continuation bit on the last byte of node 0's block: its
	// final varint now runs past the block's end.
	end := int(binary.LittleEndian.Uint64(b[offsOff+8:]))
	if end == 0 {
		t.Fatal("test premise: node 0's block is empty")
	}
	b[blobOff+end-1] |= 0x80
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	binary.LittleEndian.PutUint64(word(9), uint64(crc32.Checksum(b[blobOff:blobOff+blobLen], castagnoli)))
	dirEnd := hdr + chunks*entry
	binary.LittleEndian.PutUint32(b[dirEnd:], crc32.Checksum(b[hdr:dirEnd], castagnoli))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadAny(path, g, StoreOptions{})
	if err != nil {
		t.Fatalf("test premise: the re-sealed file must open: %v", err)
	}
	if _, err := loaded.WriteStore(io.Discard, true); err == nil {
		t.Fatal("WriteStore serialized an undecodable chunk")
	}
	out := filepath.Join(dir, "respill.rwdomidx")
	if err := loaded.SaveStore(out, false); err == nil {
		t.Fatal("SaveStore serialized an undecodable chunk")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "respill*")); len(left) != 0 {
		t.Fatalf("failed SaveStore left %v behind", left)
	}
}
