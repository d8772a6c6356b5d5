package index

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/store"
)

// Store-backed indexes and the one on-disk format. An index is saved as a
// format-v8 store file (internal/store): page-aligned sections that load by
// mmap (or one aligned read) instead of a full deserialize, optionally with
// delta/varint-compressed spans. LoadAny binds such a file as a serving
// Index whose chunks read the file's pages directly: raw chunks alias their
// CSR arrays straight out of the mapping, and compressed chunks decode node
// spans on read through a hot-row cache (store.Spans). The chunk's rows
// accessor hides the difference, so every kernel runs the same integer
// arithmetic over the same logical rows and store-backed answers are
// bit-identical to heap answers (entry order inside a row may differ after
// the writer's canonical sort, which no consumer observes). The storeparity
// test sweep pins this.
//
// Mutation is the one operation mapped pages cannot serve (the mapping is
// PROT_READ): a repair promotes into its successor (Repaired), leaving the
// mapped original to its readers.

// Spill format names, as configured through engine.Config.SpillFormat and
// the rwdomd -spill-format flag. Both are format v8.
const (
	// FormatV8 is the store container with delta/varint-compressed spans:
	// smallest files, decode-on-read serving with a hot-row cache.
	FormatV8 = "v8"
	// FormatV8Raw is the store container with raw page-aligned sections:
	// zero decode work (reads alias the pages directly) at raw size.
	FormatV8Raw = "v8raw"
)

// StoreOptions configures how LoadAny binds a store file.
type StoreOptions struct {
	// Mmap serves the file through a read-only mapping (O(1)-page-in warm
	// restart, larger-than-RAM serving); otherwise the file is read into an
	// aligned heap buffer with the same zero-parse views.
	Mmap bool
	// HotRows sizes the decoded-block cache of each compressed chunk: 0
	// means store.DefaultHotRows, negative disables caching (every read
	// decodes — the pure decode-on-read mode).
	HotRows int
}

// StoreBacked reports whether the index (or any of its chunks) serves
// entries from a store file instead of owned heap arrays.
func (ix *Index) StoreBacked() bool { return ix.stf != nil }

// StoreMapped reports whether the backing store file is mmap'd (vs read
// into a heap buffer).
func (ix *Index) StoreMapped() bool { return ix.stf != nil && ix.stf.Mapped() }

// StorePath returns the path of the backing store file, "" when heap-
// resident.
func (ix *Index) StorePath() string {
	if ix.stf == nil {
		return ""
	}
	return ix.stf.Path()
}

// MappedBytes returns the size of the read-only mapping serving this index,
// 0 when heap-resident or heap-loaded.
func (ix *Index) MappedBytes() int64 {
	if ix.stf == nil {
		return 0
	}
	return ix.stf.MappedBytes()
}

// StoreStats snapshots the backing file's decode-on-read counters (zeros
// when heap-resident).
func (ix *Index) StoreStats() store.FileStats {
	if ix.stf == nil {
		return store.FileStats{}
	}
	return ix.stf.Stats()
}

// storeComplete reports whether the backing file still covers the index's
// whole replicate range — false once ExtendReplicates has appended chunks
// the file does not hold. The cache uses it to decide whether an eviction
// can skip re-spilling (the bytes are already on disk) or must write a
// fresh file.
func (ix *Index) storeComplete() bool {
	return ix.stf != nil && ix.stf.Identity().R == ix.r && ix.stf.Identity().Epoch == ix.gepoch
}

// LoadAny opens a v8 store file and binds it to g as a serving Index,
// verifying the full build identity (fingerprint, epoch, node count) and,
// inside store.Open, every CRC and structural bound. The index keeps the
// chunk boundaries the file was written with. Any other file — including
// the retired v7 format — is rejected; the cache turns that into one
// counted rebuild.
func LoadAny(path string, g *graph.Graph, opt StoreOptions) (*Index, error) {
	f, err := store.Open(path, store.OpenOptions{Mmap: opt.Mmap, HotRows: opt.HotRows})
	if err != nil {
		return nil, err
	}
	id := f.Identity()
	if got := g.Fingerprint(); got != id.Fingerprint {
		return nil, fmt.Errorf("index: graph fingerprint mismatch: index built on %016x, loading against %016x", id.Fingerprint, got)
	}
	if got := g.Epoch(); got != id.Epoch {
		// The fingerprint above cannot catch a delta plus its inverse (the
		// structure round-trips); the monotone epoch can.
		return nil, fmt.Errorf("index: graph epoch mismatch: index built at epoch %d, loading against epoch %d", id.Epoch, got)
	}
	if id.N != g.N() {
		return nil, fmt.Errorf("index: node count mismatch: %d vs %d", id.N, g.N())
	}
	ix := &Index{g: g, l: id.L, r: id.R, rbase: id.R0, seed: id.Seed, gepoch: id.Epoch,
		stf: f, chunks: make([]*chunk, f.Chunks())}
	for i := range ix.chunks {
		cv := f.Chunk(i)
		c := &chunk{r0: cv.R0(), r: cv.Width(), stored: true}
		if cv.Compressed() {
			c.sb, c.sbEntries = cv.Spans(), cv.Entries()
		} else {
			c.offsets, c.ids, c.hops = cv.Raw()
		}
		ix.chunks[i] = c
	}
	return ix, nil
}

// compacted returns the chunk in canonical compact form with heap-readable
// arrays, without modifying it: the chunk itself when already compact and
// array-backed, otherwise a copy — patched rows compacted, compressed spans
// decoded in full. A decode failure is returned, never papered over: the
// writer must not seal an empty chunk with valid CRCs.
func (c *chunk) compacted() (*chunk, error) {
	switch {
	case c.sb != nil:
		offsets, ids, hops, err := c.sb.Materialize()
		if err != nil {
			return nil, fmt.Errorf("index: decode chunk [%d, %d): %w", c.r0, c.r0+c.r, err)
		}
		return &chunk{r0: c.r0, r: c.r, offsets: offsets, ids: ids, hops: hops}, nil
	case c.ends != nil:
		offsets, ids, hops := c.compactArrays(0)
		return &chunk{r0: c.r0, r: c.r, offsets: offsets, ids: ids, hops: hops}, nil
	}
	return c, nil
}

// WriteStore serializes the index in format v8 (compress selects
// delta/varint spans vs raw sections). It never mutates the receiver, so it
// is safe alongside readers, and always writes the canonical compact form,
// never the patched post-Repair layout.
func (ix *Index) WriteStore(w io.Writer, compress bool) (int64, error) {
	chunks := make([]store.Chunk, len(ix.chunks))
	for i, c := range ix.chunks {
		cc, err := c.compacted()
		if err != nil {
			return 0, err
		}
		chunks[i] = store.Chunk{R0: cc.r0, Width: cc.r, Offsets: cc.offsets, Ids: cc.ids, Hops: cc.hops}
	}
	id := store.Identity{
		Fingerprint: ix.g.Fingerprint(),
		Epoch:       ix.gepoch,
		N:           ix.g.N(),
		L:           ix.l,
		R:           ix.r,
		R0:          ix.rbase,
		Seed:        ix.seed,
	}
	return store.Write(w, id, chunks, store.WriteOptions{Compress: compress})
}

// SaveStore writes the index to path in format v8 via a temp file + fsync +
// rename, so concurrent loads never observe a partially written index, two
// writers of the same path cannot interleave, and a crash between the write
// and the rename can never publish a torn file under the final name — the
// same durability contract graph saves follow. (A torn file would still
// only cost a counted rebuild thanks to the CRCs, but the fsync keeps the
// failure mode "old file or new file", never "garbage file".) On error no
// file is published.
func (ix *Index) SaveStore(path string, compress bool) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	tmp := f.Name()
	_, err = ix.WriteStore(f, compress)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: save %s: %w", path, err)
	}
	return nil
}
