package index

import (
	"fmt"

	"repro/internal/graph"
)

// Replicate chunks. Every index materializes its replicate range as an
// ordered list of chunks, each a self-contained candidate-major CSR over a
// consecutive sub-range built from the same master seed. Because every walk
// is seeded per (node, absolute replicate) — rng.Mix(seed, w, r0+i) — chunk
// c over [c0, c1) holds exactly the rows [c0, c1) of a one-chunk build, so:
//
//   - integer gain and objective partials summed across chunks equal the
//     one-chunk sums exactly (the same invariant replicate-sharded serving
//     merges on), making every answer bit-identical whatever the chunking;
//   - the index can grow one chunk at a time (ExtendReplicates) without
//     disturbing existing chunks — the mechanism the adaptive accuracy
//     driver in internal/core uses to stop sampling early when a confidence
//     interval on the leading candidate's separation is tight.
//
// D-tables hold one column per chunk; SyncChunks attaches columns for
// freshly extended chunks by replaying the table's selection history.

// BuildChunkedWorkers materializes R replicates as consecutive chunks of
// (at most) width replicates each — the last chunk is ragged when
// R % width != 0 — sharded over the given number of goroutines per chunk
// build. The result answers every query bit-identically to
// BuildWorkers(g, L, R, seed, ·), which is the one-chunk build.
func BuildChunkedWorkers(g *graph.Graph, L, R int, seed uint64, width, workers int) (*Index, error) {
	if R <= 0 {
		return nil, fmt.Errorf("index: sample size R = %d, want > 0", R)
	}
	return BuildChunkedRangeWorkers(g, L, seed, 0, R, width, workers)
}

// BuildChunkedRangeWorkers is BuildChunkedWorkers over the replicate range
// [r0, r1): the chunked twin of BuildRangeWorkers. Chunk boundaries fall at
// r0, r0+width, r0+2·width, ... capped at r1.
func BuildChunkedRangeWorkers(g *graph.Graph, L int, seed uint64, r0, r1, width, workers int) (*Index, error) {
	if L < 0 {
		return nil, fmt.Errorf("index: negative walk length %d", L)
	}
	if L > 1<<16-1 {
		return nil, fmt.Errorf("index: walk length %d exceeds hop storage (max %d)", L, 1<<16-1)
	}
	if r0 < 0 || r1 <= r0 {
		return nil, fmt.Errorf("index: replicate range [%d, %d) invalid, want 0 <= r0 < r1", r0, r1)
	}
	if width < 1 {
		return nil, fmt.Errorf("index: chunk size %d, want >= 1", width)
	}
	ix := &Index{g: g, l: L, r: r1 - r0, rbase: r0, seed: seed, gepoch: g.Epoch(),
		chunks: make([]*chunk, 0, (r1-r0+width-1)/width)}
	for c0 := r0; c0 < r1; c0 += width {
		ix.chunks = append(ix.chunks, buildChunk(g, L, seed, c0, min(c0+width, r1), workers))
	}
	return ix, nil
}

// ExtendReplicates appends one fresh chunk of width replicates at the end of
// the materialized range, so the index answers for R+width replicates
// exactly as a from-scratch build of that width would. D-tables created
// before the extension must call SyncChunks before their next read. Like
// Repair, ExtendReplicates mutates the index and must not run concurrently
// with readers.
func (ix *Index) ExtendReplicates(width, workers int) error {
	if ix.fromWalks {
		return fmt.Errorf("index: ExtendReplicates on an index built from explicit walks")
	}
	if width <= 0 {
		return fmt.Errorf("index: extend width %d, want > 0", width)
	}
	c0 := ix.rbase + ix.r
	ix.chunks = append(ix.chunks, buildChunk(ix.g, ix.l, ix.seed, c0, c0+width, workers))
	ix.r += width
	ix.resetEmptyMemos()
	return nil
}

// Chunks returns the number of replicate chunks.
func (ix *Index) Chunks() int { return len(ix.chunks) }

// chunkFor maps local replicate i to the chunk holding it and i's offset
// within that chunk.
func (ix *Index) chunkFor(i int) (*chunk, int) {
	for _, c := range ix.chunks {
		if i < c.r {
			return c, i
		}
		i -= c.r
	}
	panic(fmt.Sprintf("index: replicate %d beyond materialized width", i))
}

// MaxRowLen returns the largest number of index entries in any single
// replicate row of node u. The adaptive accuracy driver turns it into a
// range bound on u's per-replicate gain (every entry contributes at most 1
// for Problem 2 and at most L−1 hitting-time improvement for Problem 1) for
// its Hoeffding/empirical-Bernstein confidence intervals.
func (ix *Index) MaxRowLen(u int) int {
	best := int64(0)
	for _, c := range ix.chunks {
		starts, ends, _, _ := c.rows(u)
		for i, lo := range starts {
			best = max(best, ends[i]-lo)
		}
	}
	return int(best)
}

// SyncChunks attaches columns for chunks the index gained through
// ExtendReplicates since this table was created (or last synced), replaying
// the table's Update history into each new column. Afterwards the table
// answers exactly as a table freshly built at the current width with the
// same selections applied. Syncing is a semantic mutation: outstanding
// Snapshots of the table are invalidated when columns were attached.
func (t *DTable) SyncChunks() {
	if len(t.cols) == len(t.ix.chunks) {
		return
	}
	for _, c := range t.ix.chunks[len(t.cols):] {
		col := newColumn(c, t.problem, t.ix.l, t.ix.g.N())
		for _, u := range t.sel {
			col.update(t.problem, u)
		}
		t.cols = append(t.cols, col)
	}
	t.muts++
}

// AppendReplicateGainSums appends u's integer gain in each materialized
// replicate — the per-replicate terms whose sum is exactly the gainInt
// behind Gain/GainSumBatch — to out in replicate order, and returns the
// grown slice. It is a pure read, safe concurrently with other reads. The
// adaptive accuracy driver uses the per-replicate samples of the two
// leading candidates to bound the separation of their means.
func (t *DTable) AppendReplicateGainSums(u int, out []int64) []int64 {
	for ci := range t.cols {
		col := &t.cols[ci]
		r := col.c.r
		d := col.d
		own := d[u*r : u*r+r]
		starts, ends, ids, hops := col.c.rows(u)
		for i, lo := range starts {
			hi := ends[i]
			var acc int64
			if t.problem == Problem1 {
				acc = int64(own[i])
				rh := hops[lo:hi]
				for e, v := range ids[lo:hi] {
					if dv := d[int(v)*r+i]; rh[e] < dv {
						acc += int64(dv - rh[e])
					}
				}
			} else {
				if own[i] == 0 {
					acc++
				}
				for _, v := range ids[lo:hi] {
					if d[int(v)*r+i] == 0 {
						acc++
					}
				}
			}
			out = append(out, acc)
		}
	}
	return out
}
