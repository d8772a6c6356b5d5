// Package index implements the sample-materialization machinery of Section
// 3.2 of the paper: the inverted index I[1:R][1:n] over R materialized
// L-length random walks per node (Algorithm 3), the D[1:R][1:n] table of
// per-sample hitting estimates, the approximate marginal-gain computation
// (Algorithm 4), and the incremental update after a node is selected
// (Algorithm 5).
//
// The index stores, for each sample replicate i and each node v, the list of
// source nodes whose i-th walk visits v, together with the hop of the first
// visit. Entry <w, j> in I[i][v] means "w hits v at hop j in its i-th walk".
// With the index materialized once, the marginal gain of every candidate
// under any current set S can be estimated without re-running walks, which
// is what brings the greedy algorithm down to O(kRLn) time.
//
// One deviation from the paper's presentation: Algorithm 3 stores weight 1
// for Problem 2, building a second index. Here a single index stores the
// actual first-visit hop and the Problem-2 logic simply ignores the hop
// (treating every entry as an indicator), which is arithmetically identical
// and halves memory when both problems are run on the same graph.
//
// # Memory layout
//
// Every index is an ordered list of one or more replicate chunks, each a
// candidate-major CSR over a consecutive replicate range: row (v, i) of a
// chunk of width r lives at v·r+i, so the r replicate rows of one node are
// contiguous. One Gain(u) therefore reads one contiguous span of index
// entries per chunk and one contiguous D-span (d[u·r : (u+1)·r]) instead of
// the R scattered rows a replicate-major d[i·n+u] layout costs. The
// selection loop evaluates Gain over many candidates per round, so this is
// the hot-path layout; the ablation benchmark in the index test suite
// quantifies the difference.
//
// Walks are seeded per (node, absolute replicate), so chunk [c0, c1) holds
// exactly the rows [c0, c1) of a one-chunk build of the whole range:
// integer gain and objective partials summed across chunks equal the
// one-chunk sums, and an index can grow one chunk at a time
// (ExtendReplicates), the mechanism behind adaptive accuracy budgets.
//
// A chunk's rows live in one of three backings: heap arrays (a build, or
// the patched rows a copy-on-write repair leaves), raw sections aliased
// from a format-v8 store file's pages, or compressed spans decoded on read
// (internal/store). Only the chunk's rows accessor knows which; every
// kernel reads through it. The one on-disk format is v8 (backing.go).
//
// Gains are pure reads of the D-table between Update calls and accumulate
// in integers, so GainBatch may be invoked concurrently from any number of
// goroutines with bit-for-bit identical results — the property the parallel
// greedy driver in internal/greedy relies on.
package index

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/store"
)

// Problem selects which objective the D-table tracks.
type Problem int

const (
	// Problem1 is total-hitting-time minimization (Eq. 6): D[i][u] holds the
	// per-sample hitting time of u's walk to S, initialized to L.
	Problem1 Problem = 1
	// Problem2 is expected-dominated-count maximization (Eq. 7): D[i][u]
	// holds the per-sample indicator that u's walk hits S, initialized to 0.
	Problem2 Problem = 2
)

func (p Problem) String() string {
	switch p {
	case Problem1:
		return "F1"
	case Problem2:
		return "F2"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// Index is the inverted index of Algorithm 3. It is safe for concurrent
// readers and immutable under them. A graph delta does not modify it:
// Repaired (mutate.go) derives a copy-on-write successor while readers keep
// scanning this instance. The in-place mutations — Repair and
// ExtendReplicates — require the caller to exclude readers for their
// duration. D-tables carry the per-query mutable state.
type Index struct {
	g *graph.Graph
	l int
	r int
	// rbase is the first absolute replicate number materialized: a partial
	// index built by BuildRangeWorkers over [r0, r1) has rbase = r0 and
	// r = r1 − r0. Walks are seeded per (node, absolute replicate), so the
	// partial index holds exactly the rows [r0, r1) of the full build — the
	// invariant replicate-sharded serving merges on. Full builds have
	// rbase = 0.
	rbase int
	// seed is the master walk seed the index was built from (0 for indexes
	// assembled by BuildFromWalks, which samples nothing). It is part of the
	// serialized identity: the cache's spill loader verifies it so a stale
	// or colliding spill file can never impersonate a different build.
	seed uint64

	// gepoch is the mutation epoch of the graph the entries reflect: equal to
	// g.Epoch() at build time and one past the predecessor's after a repair.
	// It is part of the serialized identity, so a spill file written before
	// a mutation can never warm-load as current afterwards even when the
	// mutation round-trips the structure (fingerprint alone cannot tell
	// "mutated back" from "never mutated").
	gepoch uint64
	// fromWalks marks indexes assembled by BuildFromWalks: their walks were
	// supplied, not sampled from seed, so Repair and ExtendReplicates
	// cannot deterministically regenerate or extend them and refuse.
	fromWalks bool

	// chunks is the materialized replicate range [rbase, rbase+r) as one or
	// more consecutive replicate chunks, in replicate order.
	chunks []*chunk

	// stf, when non-nil, marks a store-backed index (backing.go): some
	// chunks serve their rows from this format-v8 store file. The reference
	// pins the file's mapping — slices into a mapping do not keep it
	// reachable on their own — so an in-flight query can never lose its
	// pages; unmapping happens via finalizer when the last store-backed
	// Index drops.
	stf *store.File

	// emptyGains memoizes the per-problem empty-set gain vectors (slot 0:
	// Problem 1, slot 1: Problem 2), computed lazily by EmptySetGains under
	// emptyMu, which makes the index safe to share across concurrent callers.
	// emptySums is the integer-domain twin serving the partial read path
	// (EmptySetGainSums). An in-place Repair drops both (the entries they
	// summarize changed); a plain mutex rather than sync.Once keeps the memo
	// resettable.
	emptyMu    sync.Mutex
	emptyGains [2][]float64
	emptySums  [2][]int64
}

// chunk is one replicate chunk: the candidate-major rows of the consecutive
// absolute replicates [r0, r0+r), self-contained (its own row offsets and
// entry storage).
//
// Row (v, i) holds the sources whose i-th walk visits v, with parallel
// first-visit hops, sorted by source; a source appears at most once per
// row. Built and loaded chunks are compact: ends is nil and row k is
// ids[offsets[k]:offsets[k+1]]. A repaired chunk is patched: ends is
// non-nil, row k is ids[offsets[k]:ends[k]], rows need not be adjacent or
// in order, and dead counts unreachable slots (shrunken-row slack and
// relocated rows' old storage). A compressed store chunk has sb set and no
// arrays at all. rows is the one reader that knows the difference.
type chunk struct {
	r0, r   int
	offsets []int64
	ids     []int32
	hops    []uint16
	ends    []int64
	dead    int64
	// stored marks a chunk whose rows live in its index's store file —
	// raw sections aliased from the pages, or sb — rather than in owned
	// heap arrays. Mapped pages are read-only, so a repair never shares
	// their storage.
	stored bool
	// sb, when non-nil, serves the rows by decoding the file's compressed
	// spans on read (with a hot-row cache); sbEntries is the chunk's entry
	// count from the file directory.
	sb        *store.Spans
	sbEntries int64
	// tailClaimed is set by the one successor (Repaired) allowed to append
	// into the spare capacity of ids/hops past their length; any other
	// successor copies.
	tailClaimed atomic.Bool
}

// rows returns node u's r replicate rows: row i is ids[starts[i]:ends[i]]
// with parallel hops. It is the one place that knows the chunk's backing —
// compact heap rows and mapped raw sections read offsets[u·r : u·r+r+1],
// patched rows pair those starts with ends[u·r : u·r+r], and compressed
// spans decode node u's block. The slices alias chunk storage (or a
// decoded block) and must not be modified.
func (c *chunk) rows(u int) (starts, ends []int64, ids []int32, hops []uint16) {
	if c.sb != nil {
		offs, ids, hops := c.sb.NodeSpan(u)
		return offs[:c.r], offs[1:], ids, hops
	}
	base := u * c.r
	starts = c.offsets[base : base+c.r]
	if c.ends != nil {
		return starts, c.ends[base : base+c.r], c.ids, c.hops
	}
	return starts, c.offsets[base+1 : base+c.r+1], c.ids, c.hops
}

// contiguous reports whether each node's rows lie back to back (every
// layout but the patched one), so one span covers all of them.
func (c *chunk) contiguous() bool { return c.ends == nil }

// entries returns the chunk's live entry count.
func (c *chunk) entries() int64 {
	switch {
	case c.sb != nil:
		return c.sbEntries
	case c.ends != nil:
		return int64(len(c.ids)) - c.dead
	}
	return c.offsets[len(c.offsets)-1]
}

// heapBytes returns the chunk's owned heap arrays' footprint: 0 for a
// stored chunk, whose entries are pages or the file buffer the index
// accounts once.
func (c *chunk) heapBytes() int64 {
	if c.stored {
		return 0
	}
	return int64(len(c.offsets))*8 + int64(len(c.ids))*4 + int64(len(c.hops))*2 + int64(len(c.ends))*8
}

// Build materializes R L-length random walks per node and constructs the
// inverted index (Algorithm 3), single-threaded. Memory is O(nRL): the
// final CSR arrays plus, transiently during construction, one buffered copy
// of the per-walk first visits (6 bytes per entry, the same size as the
// final ids+hops payload), so each walk is generated exactly once. Each
// (node, replicate) walk is seeded independently from the master seed, so
// the parallel builder produces the same walks.
func Build(g *graph.Graph, L, R int, seed uint64) (*Index, error) {
	return BuildWorkers(g, L, R, seed, 1)
}

// walkBuffer holds one worker's buffered walk visits: walk t of the
// worker's (node, replicate) sequence emitted lens[t] first visits, stored
// consecutively in vs/hops. Buffering costs one transient copy of the entry
// data but means the RNG, PickNeighbor and visited-stamp work per walk
// happens once instead of twice (generate-to-count, regenerate-to-fill).
type walkBuffer struct {
	vs   []int32
	hops []uint16
	lens []uint16
}

// BuildWorkers is Build sharded over the given number of goroutines.
// The walk set is identical for every worker count (per-walk seeding);
// only the order of entries within an index row may differ, which no
// consumer observes: Gain and EstimateObjective accumulate in integers, so
// selections are bit-for-bit reproducible regardless of parallelism.
func BuildWorkers(g *graph.Graph, L, R int, seed uint64, workers int) (*Index, error) {
	if R <= 0 {
		return nil, fmt.Errorf("index: sample size R = %d, want > 0", R)
	}
	return BuildRangeWorkers(g, L, seed, 0, R, workers)
}

// BuildRangeWorkers materializes only the replicate range [r0, r1) of a full
// R-replicate build. Walk i of the partial index is seeded per
// (node, absolute replicate) — rng.Mix(seed, w, r0+i) — exactly as
// BuildWorkers seeds replicate r0+i of the full build, so the partial index
// is a deterministic slice of the full one: its rows equal rows [r0, r1) of
// BuildWorkers(g, L, r1, seed, ·). Integer gain/objective sums over disjoint
// ranges therefore add up to the full-build sums exactly, which is what lets
// a replicate-sharded deployment merge partial answers bit-for-bit.
// BuildWorkers is BuildRangeWorkers over [0, R).
func BuildRangeWorkers(g *graph.Graph, L int, seed uint64, r0, r1, workers int) (*Index, error) {
	return BuildChunkedRangeWorkers(g, L, seed, r0, r1, r1-r0, workers)
}

// buildChunk materializes the replicate range [r0, r1) as one chunk,
// sharded over workers goroutines. Parameters are validated by the caller.
func buildChunk(g *graph.Graph, L int, seed uint64, r0, r1, workers int) *chunk {
	R := r1 - r0
	if workers < 1 {
		workers = 1
	}
	n := g.N()
	if workers > n {
		workers = n
	}
	ch := &chunk{r0: r0, r: R}
	rows := R * n
	counts := make([]int64, rows+1)

	// Sharded workers collide on row counters and row cursors (rows are
	// keyed by visited node, not by the source shard). Two schemes:
	// per-worker private counter/cursor arrays (no atomics, no cache-line
	// ping-pong between cores — the fast path), or shared arrays with
	// atomic increments when the private arrays would cost too much
	// transient memory on huge row spaces.
	const privateBudget = 1 << 28 // 256 MiB of per-worker counters
	private := workers > 1 && int64(workers)*int64(rows)*8 <= privateBudget
	atomicOps := workers > 1 && !private
	var perWorker [][]int64
	if private {
		perWorker = make([][]int64, workers)
		for wk := range perWorker {
			perWorker[wk] = make([]int64, rows)
		}
	}

	// shard runs fn over worker-private node ranges.
	shard := func(fn func(worker, lo, hi int)) {
		if workers == 1 {
			fn(0, 0, n)
			return
		}
		var wg sync.WaitGroup
		per := (n + workers - 1) / workers
		for wk := 0; wk < workers; wk++ {
			lo := wk * per
			hi := lo + per
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(wk, lo, hi int) {
				defer wg.Done()
				fn(wk, lo, hi)
			}(wk, lo, hi)
		}
		wg.Wait()
	}

	// Pass 1: generate every walk once, buffering its first visits and
	// counting row sizes (candidate-major row id v·R+i).
	bufs := make([]walkBuffer, workers)
	shard(func(wk, lo, hi int) {
		visited := make([]uint32, n)
		var generation uint32
		var rnd rng.Source
		var mine []int64
		if private {
			mine = perWorker[wk]
		}
		buf := walkBuffer{
			// Start at a quarter of the nRL upper bound; append grows the
			// rare dense cases.
			vs:   make([]int32, 0, (hi-lo)*R*(L/4+1)),
			hops: make([]uint16, 0, (hi-lo)*R*(L/4+1)),
			lens: make([]uint16, 0, (hi-lo)*R),
		}
		for w := lo; w < hi; w++ {
			for i := 0; i < R; i++ {
				rnd.Seed(rng.Mix(seed, uint64(w), uint64(r0+i)))
				generation++
				visited[w] = generation
				u := w
				emitted := uint16(0)
				for j := 1; j <= L; j++ {
					v := g.PickNeighbor(u, rnd.Float64())
					if v < 0 {
						break
					}
					if visited[v] != generation {
						visited[v] = generation
						buf.vs = append(buf.vs, int32(v))
						buf.hops = append(buf.hops, uint16(j))
						emitted++
						row := int64(v)*int64(R) + int64(i)
						switch {
						case mine != nil:
							mine[row]++
						case atomicOps:
							atomic.AddInt64(&counts[row+1], 1)
						default:
							counts[row+1]++
						}
					}
					u = v
				}
				buf.lens = append(buf.lens, emitted)
			}
		}
		bufs[wk] = buf
	})
	ch.offsets = counts
	if private {
		// Merge the private counters into CSR starts, and in the same pass
		// turn each worker's counter into its absolute write cursor: workers
		// own disjoint, consecutive sub-ranges of every row, so pass 2 needs
		// no synchronization at all.
		run := int64(0)
		for row := 0; row < rows; row++ {
			ch.offsets[row] = run
			for wk := 0; wk < workers; wk++ {
				c := perWorker[wk][row]
				perWorker[wk][row] = run
				run += c
			}
		}
		ch.offsets[rows] = run
	} else {
		for i := 1; i <= rows; i++ {
			ch.offsets[i] += ch.offsets[i-1]
		}
	}
	total := ch.offsets[rows]
	ch.ids = make([]int32, total)
	ch.hops = make([]uint16, total)

	// Pass 2: replay the buffers — a sequential read — and scatter entries
	// into their rows. On the private path each worker claims slots from its
	// own cursor array; otherwise slots are claimed directly from offsets
	// (offsets[row] is the next free slot of its row, atomically when
	// sharded), and the starts are restored by one shift afterwards,
	// avoiding a separate cursor array.
	shard(func(wk, lo, hi int) {
		buf := bufs[wk]
		var mine []int64
		if private {
			mine = perWorker[wk]
		}
		pos, t := 0, 0
		for w := lo; w < hi; w++ {
			ww := int32(w)
			for i := 0; i < R; i++ {
				cnt := int(buf.lens[t])
				t++
				for e := 0; e < cnt; e++ {
					row := int64(buf.vs[pos])*int64(R) + int64(i)
					var c int64
					switch {
					case mine != nil:
						c = mine[row]
						mine[row] = c + 1
					case atomicOps:
						c = atomic.AddInt64(&ch.offsets[row], 1) - 1
					default:
						c = ch.offsets[row]
						ch.offsets[row] = c + 1
					}
					ch.ids[c] = ww
					ch.hops[c] = buf.hops[pos]
					pos++
				}
			}
		}
	})
	if !private {
		// offsets[row] now holds the end of its row, i.e. the start of row+1:
		// shift right to restore the CSR starts (offsets[rows] was never used
		// as a cursor and still holds the total).
		copy(ch.offsets[1:], ch.offsets[:rows])
		ch.offsets[0] = 0
	}
	return ch
}

// BuildFromWalks constructs an index from explicitly provided walks instead
// of sampling them: walks[w][i] is the i-th walk of node w and must begin at
// w. It is used by tests to reproduce the paper's worked example (Example
// 3.1 / Table 1) exactly, and by callers that generate walks elsewhere.
func BuildFromWalks(g *graph.Graph, L, R int, walks [][][]int32) (*Index, error) {
	if L < 0 || L > 1<<16-1 {
		return nil, fmt.Errorf("index: walk length %d out of range", L)
	}
	if R <= 0 {
		return nil, fmt.Errorf("index: sample size R = %d, want > 0", R)
	}
	n := g.N()
	if len(walks) != n {
		return nil, fmt.Errorf("index: walks for %d nodes, graph has %d", len(walks), n)
	}
	ch := &chunk{r: R}
	rows := R * n
	counts := make([]int64, rows+1)
	visited := make([]uint32, n)
	var generation uint32

	firstVisits := func(w, i int, emit func(v int32, hop uint16)) error {
		walk := walks[w][i]
		if len(walk) == 0 || int(walk[0]) != w {
			return fmt.Errorf("index: walk %d of node %d does not start at %d", i, w, w)
		}
		if len(walk) > L+1 {
			return fmt.Errorf("index: walk %d of node %d has %d positions, max L+1=%d", i, w, len(walk), L+1)
		}
		generation++
		visited[w] = generation
		for j := 1; j < len(walk); j++ {
			v := walk[j]
			if v < 0 || int(v) >= n {
				return fmt.Errorf("index: walk %d of node %d visits out-of-range node %d", i, w, v)
			}
			if visited[v] != generation {
				visited[v] = generation
				emit(v, uint16(j))
			}
		}
		return nil
	}

	for w := 0; w < n; w++ {
		if len(walks[w]) != R {
			return nil, fmt.Errorf("index: node %d has %d walks, want R=%d", w, len(walks[w]), R)
		}
		for i := 0; i < R; i++ {
			ii := int64(i)
			if err := firstVisits(w, i, func(v int32, hop uint16) {
				counts[int64(v)*int64(R)+ii+1]++
			}); err != nil {
				return nil, err
			}
		}
	}
	ch.offsets = counts
	for i := 1; i <= rows; i++ {
		ch.offsets[i] += ch.offsets[i-1]
	}
	total := ch.offsets[rows]
	ch.ids = make([]int32, total)
	ch.hops = make([]uint16, total)
	cursor := make([]int64, rows)
	copy(cursor, ch.offsets[:rows])
	for w := 0; w < n; w++ {
		ww := int32(w)
		for i := 0; i < R; i++ {
			ii := int64(i)
			if err := firstVisits(w, i, func(v int32, hop uint16) {
				row := int64(v)*int64(R) + ii
				e := cursor[row]
				ch.ids[e] = ww
				ch.hops[e] = hop
				cursor[row] = e + 1
			}); err != nil {
				return nil, err
			}
		}
	}
	return &Index{g: g, l: L, r: R, gepoch: g.Epoch(), fromWalks: true, chunks: []*chunk{ch}}, nil
}

// Graph returns the indexed graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// L returns the walk-length bound the index was built with.
func (ix *Index) L() int { return ix.l }

// R returns the number of sample replicates per node materialized in this
// index — for a partial index, the width r1 − r0 of its replicate range.
func (ix *Index) R() int { return ix.r }

// R0 returns the first absolute replicate number materialized: 0 for full
// builds, r0 for an index built by BuildRangeWorkers over [r0, r1). The
// materialized range is [R0, R0+R).
func (ix *Index) R0() int { return ix.rbase }

// Seed returns the master walk seed the index was built from; 0 for indexes
// assembled from explicit walks (BuildFromWalks).
func (ix *Index) Seed() uint64 { return ix.seed }

// GraphEpoch returns the mutation epoch of the graph state the index
// reflects: g.Epoch() at build time, one past the predecessor's after a
// repair.
func (ix *Index) GraphEpoch() uint64 { return ix.gepoch }

// Entries returns the number of materialized (source, first-visit) pairs;
// it is bounded by nRL.
func (ix *Index) Entries() int64 {
	var total int64
	for _, c := range ix.chunks {
		total += c.entries()
	}
	return total
}

// Row returns the sources that hit node v in replicate i and their
// first-visit hops. The slices alias index storage and must not be modified.
func (ix *Index) Row(i, v int) (ids []int32, hops []uint16) {
	c, li := ix.chunkFor(i)
	starts, ends, ids, hops := c.rows(v)
	lo, hi := starts[li], ends[li]
	return ids[lo:hi], hops[lo:hi]
}

// MemoryBytes reports the approximate heap footprint of the index, used by
// the scalability experiment to confirm O(nRL + m) space and by the cache's
// bytes budget. A store-backed chunk's entry data lives on mapped pages (or
// in the shared file buffer, accounted once), not the Go heap, so a fully
// mapped index reports ~0: mapped indexes are nearly free against the
// budget, which is exactly what lets a cache serve more index than RAM.
func (ix *Index) MemoryBytes() int64 {
	var total int64
	if ix.stf != nil {
		total = ix.stf.HeapBytes()
	}
	for _, c := range ix.chunks {
		total += c.heapBytes()
	}
	return total
}

// DTable is the mutable D[1:R][1:n] array of Algorithms 4–6, tracking the
// per-sample hitting estimate of each node's walks under the current set S.
// It holds one column per index chunk; every read sums exact int64 partials
// across columns, so answers do not depend on how the replicates are
// chunked. A DTable belongs to a single greedy run and is not safe for
// concurrent mutation; Gain and GainBatch are pure reads and may run
// concurrently with each other (but not with Update or EstimateObjective).
type DTable struct {
	ix      *Index
	problem Problem
	cols    []column
	// sel records the Update history, in order: |S| is its length, and
	// SyncChunks replays it into columns for chunks attached after the
	// table was created.
	sel []int
	// muts counts semantic mutations (Update, ExtendFrom, SyncChunks) so
	// Snapshot can detect that its aliased view of the table went stale. sat
	// memoization is not a semantic mutation and does not bump it.
	muts uint64
}

// column is one chunk's slice of a D-table.
type column struct {
	c *chunk
	d []uint16 // candidate-major: d[u*r+i], matching the chunk's rows
	// sat, Problem 2 only, memoizes nodes whose replicate row is fully
	// saturated (all r entries 1). Rows are monotone non-decreasing, so a
	// saturated row stays saturated; EstimateObjective uses it to skip the
	// O(r) scan. Lazily maintained — false just means "not yet observed
	// saturated".
	sat []bool
}

// newColumn returns chunk c's fresh column: L everywhere for Problem 1
// ("h_uS = L given S = ∅", Algorithm 6 line 3), 0 everywhere for Problem 2.
func newColumn(c *chunk, p Problem, L, n int) column {
	col := column{c: c, d: make([]uint16, c.r*n)}
	if p == Problem1 {
		l := uint16(L)
		for i := range col.d {
			col.d[i] = l
		}
	} else {
		col.sat = make([]bool, n)
	}
	return col
}

// NewDTable returns a fresh D-table for the given problem: initialized to L
// everywhere for Problem 1 and to 0 everywhere for Problem 2.
func (ix *Index) NewDTable(p Problem) (*DTable, error) {
	if p != Problem1 && p != Problem2 {
		return nil, fmt.Errorf("index: unknown problem %d", int(p))
	}
	t := &DTable{ix: ix, problem: p, cols: make([]column, len(ix.chunks))}
	for i, c := range ix.chunks {
		t.cols[i] = newColumn(c, p, ix.l, ix.g.N())
	}
	return t, nil
}

// Problem returns which objective this table tracks.
func (t *DTable) Problem() Problem { return t.problem }

// Clone returns an independent copy of the table, used to evaluate
// hypothetical selections without disturbing the greedy state.
func (t *DTable) Clone() *DTable {
	c := &DTable{ix: t.ix, problem: t.problem, cols: make([]column, len(t.cols)), sel: slices.Clone(t.sel)}
	for i, col := range t.cols {
		c.cols[i] = column{c: col.c, d: slices.Clone(col.d), sat: slices.Clone(col.sat)}
	}
	return c
}

// Size returns the number of Update calls applied, i.e. |S|.
func (t *DTable) Size() int { return len(t.sel) }

// Gain implements Algorithm 4: the approximate marginal gain of adding u to
// the current set, averaged over the R replicates.
//
// For Problem 1 this estimates F1(S∪{u}) − F1(S) under the Eq. (6) form
// F1(S) = nL − Σ_{u∈V\S} h^L_{uS}, which equals h_uS + Σ_w (h_wS − h_wSu).
// (The paper states σ_u = ... − L because its complexity analysis uses the
// alternative form Σ_{u∈V\S}(L − h_uS); the two differ by the constant L per
// added node and induce the same argmax, as the paper notes.) For Problem 2
// it estimates F2(S∪{u}) − F2(S) directly.
func (t *DTable) Gain(u int) float64 {
	return float64(t.gainInt(u)) / float64(t.ix.r)
}

// gainInt is Gain before the final division: the integer sum over the R
// replicates. Integer accumulation makes the value independent of entry
// order within rows, of how candidates are sharded across goroutines and
// of how replicates are chunked, which is what keeps parallel selections
// bit-for-bit reproducible.
func (t *DTable) gainInt(u int) int64 {
	var acc int64
	for i := range t.cols {
		acc += t.cols[i].gainInt(t.problem, u)
	}
	return acc
}

// gainInt is one column's share of DTable.gainInt. The candidate-major
// layout makes it a single pass over the candidate's own D-row
// d[u·r : (u+1)·r] and the candidate's r index rows.
func (col *column) gainInt(p Problem, u int) int64 {
	r := col.c.r
	d := col.d
	own := d[u*r : u*r+r]
	starts, ends, ids, hops := col.c.rows(u)
	ends = ends[:len(starts)]
	var acc int64
	if p == Problem1 {
		for i, lo := range starts {
			acc += int64(own[i])
			hi := ends[i]
			rh := hops[lo:hi]
			for e, v := range ids[lo:hi] {
				if dv := d[int(v)*r+i]; rh[e] < dv {
					acc += int64(dv - rh[e])
				}
			}
		}
		return acc
	}
	for i, lo := range starts {
		if own[i] == 0 {
			acc++
		}
		for _, v := range ids[lo:ends[i]] {
			if d[int(v)*r+i] == 0 {
				acc++
			}
		}
	}
	return acc
}

// GainBatch computes Gain for every candidate in us, appending into (and
// returning) out, which is grown as needed. It is a pure read of the D-table
// and safe to invoke concurrently from several goroutines over disjoint or
// overlapping candidate shards — the batch-capable oracle the parallel
// greedy driver shards its CELF sweeps over.
func (t *DTable) GainBatch(us []int, out []float64) []float64 {
	// Divide (not multiply by a reciprocal) so batch and single-candidate
	// gains are the same float64 bit pattern.
	r := float64(t.ix.r)
	for _, u := range us {
		out = append(out, float64(t.gainInt(u))/r)
	}
	return out
}

// GainSumBatch computes the integer gain sum (Gain before the final division
// by R) for every candidate in us, appending into (and returning) out. Like
// GainBatch it is a pure read, safe to invoke concurrently from several
// goroutines. It is the scatter-gather primitive of replicate-sharded
// serving: integer sums over disjoint replicate ranges merge exactly by
// addition, and the coordinator performs the single float64 division at the
// end — the same expression the unsharded Gain computes — so merged gains
// are bit-identical to unsharded ones.
func (t *DTable) GainSumBatch(us []int, out []int64) []int64 {
	for _, u := range us {
		out = append(out, t.gainInt(u))
	}
	return out
}

// ObjectiveSum returns the integer objective accumulator Σ D[u] underlying
// EstimateObjective, before averaging over replicates and (for Problem 1)
// subtracting from nL. Unlike EstimateObjective it is a pure read — it
// consults the Problem-2 saturation memo but never writes it — so it is safe
// on shared memoized tables and may run concurrently with Gain reads. The
// sharded coordinator adds these sums across replicate ranges and applies
// the final float64 arithmetic once, reproducing EstimateObjective's value
// bit-for-bit.
func (t *DTable) ObjectiveSum(members []bool) int64 {
	var acc int64
	for i := range t.cols {
		acc += t.cols[i].objective(t.problem, members, false)
	}
	return acc
}

// Update implements Algorithm 5: fold the newly selected node u into the
// D-table so subsequent Gain calls are relative to S ∪ {u}.
func (t *DTable) Update(u int) {
	for i := range t.cols {
		t.cols[i].update(t.problem, u)
	}
	t.sel = append(t.sel, u)
	t.muts++
}

// update is one column's share of DTable.Update.
func (col *column) update(p Problem, u int) {
	r := col.c.r
	d := col.d
	own := d[u*r : u*r+r]
	starts, ends, ids, hops := col.c.rows(u)
	ends = ends[:len(starts)]
	if p == Problem1 {
		for i, lo := range starts {
			own[i] = 0
			hi := ends[i]
			rh := hops[lo:hi]
			for e, v := range ids[lo:hi] {
				if j := int(v)*r + i; rh[e] < d[j] {
					d[j] = rh[e]
				}
			}
		}
		return
	}
	for i, lo := range starts {
		own[i] = 1
		for _, v := range ids[lo:ends[i]] {
			d[int(v)*r+i] = 1
		}
	}
}

// EstimateObjective returns the sampled objective value implied by the
// current D-table: for Problem 1, F̂1 = nL − Σ_{u∉S} D̄[u] where D̄ is the
// replicate average (S-members hold D = 0 and are excluded by construction
// since their D is 0); for Problem 2, F̂2 = Σ_u D̄[u]. The members parameter
// identifies S for the Problem-1 exclusion.
//
// The scan is candidate-major — one contiguous R-span per node — and for
// Problem 2 a node observed fully saturated (all replicates hit) is
// memoized in the sat bitmap and skipped on later calls: rows only ever
// grow toward saturation, and late greedy rounds saturate most of the
// graph, so repeated objective probes become nearly O(n).
func (t *DTable) EstimateObjective(members []bool) float64 {
	var acc int64
	for i := range t.cols {
		acc += t.cols[i].objective(t.problem, members, true)
	}
	n := t.ix.g.N()
	avg := float64(acc) / float64(t.ix.r)
	if t.problem == Problem1 {
		return float64(n)*float64(t.ix.l) - avg
	}
	return avg
}

// objective is one column's integer objective accumulator. With memo set
// it records newly saturated Problem-2 rows in sat; without, it only reads
// the memo, so concurrent readers may share the table. The float
// arithmetic is applied once over the column sums with the total
// replicate width, so the result does not depend on the chunking.
func (col *column) objective(p Problem, members []bool, memo bool) int64 {
	r := col.c.r
	n := len(col.d) / r
	var acc int64
	for u := 0; u < n; u++ {
		if p == Problem1 && members[u] {
			continue
		}
		if col.sat != nil && col.sat[u] {
			acc += int64(r)
			continue
		}
		var row int64
		for _, dv := range col.d[u*r : u*r+r] {
			row += int64(dv)
		}
		if memo && col.sat != nil && row == int64(r) {
			col.sat[u] = true
		}
		acc += row
	}
	return acc
}
