package index

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Incremental index repair after a graph mutation. Walks are seeded per
// (node, absolute replicate) — rng.Mix(seed, w, r0+i) — so every walk is
// deterministically regenerable from its identity alone, and a walk's
// trajectory depends only on the adjacency rows of the nodes it visits.
// graph.ApplyDelta reports exactly which rows changed (the touched nodes),
// which makes the affected-walk set identifiable from the index itself:
//
//   - walk (w, i) is affected iff its OLD trajectory visits a touched node,
//     i.e. w is a touched node or w appears in old row (t, i) of some
//     touched t (rows record every source whose walk visits t);
//   - every other walk replays bit-identically on the new graph (inductively,
//     each step leaves from an untouched node whose row is unchanged) and
//     needs no repair;
//   - walks of freshly added nodes are new and are generated outright; any
//     walk reaching a new node must traverse a new edge and therefore leaves
//     from a touched node first, so it is already in the affected set.
//
// Repair is copy-on-write: Repaired leaves the receiver untouched and
// returns a successor, so a graph delta can repair an index that in-flight
// reads still hold. The successor gets its own copy of the two row tables
// (offsets and ends, n·R entries each) and appends every edited row past
// the end of the entry storage the receiver reads. When the receiver's
// ids/hops arrays have spare capacity for the rewritten rows, the successor
// appends into it in place; an atomic claim on the receiver hands that
// capacity to exactly one successor. Any other successor — and one the
// capacity is too short for — starts from a compacted copy with spare
// capacity of its own (tailSlack), which also drops the dead storage (the
// old spans of relocated rows). Row edits are gathered as one flat list,
// sorted by row with a stable radix sort (each row's entries are emitted
// in ascending source order, which the sort keeps), and merged into each
// edited row in a single linear pass. The cost is the O(n·R) row-table
// copy plus work proportional to the walks the delta disturbs —
// O(|affected|·L) plus the edited rows — not the nRL cost of a full
// rebuild.

// ErrUnrepairable marks indexes Repair cannot service: BuildFromWalks
// assembles entries from caller-provided walks, which cannot be regenerated
// from the seed.
var ErrUnrepairable = fmt.Errorf("index: built from explicit walks, cannot repair")

// compactThreshold triggers compaction when more than this fraction of the
// physical entry storage is dead.
const compactThreshold = 0.5

// rowEdit is one pending change to row (v, i) = v·R+i: drop source src's
// old entry, or insert src at hop.
type rowEdit struct {
	row    int64
	src    int32
	hop    uint16
	remove bool
}

// Repaired returns the index a fresh build against ng would produce, given
// that ng is the result of exactly one graph.ApplyDelta on the graph ix
// reflects (ng.Epoch() must be one past ix.GraphEpoch()) and touched is the
// delta's touched-node list. Compacting the successor's chunks and
// comparing the CSR arrays to a rebuild is bit-identical, which the parity
// tests assert.
//
// Repaired never writes memory ix can read, so it may run while other
// goroutines read ix; ix keeps answering for its own epoch. Chunks repair
// independently against the same delta. Store-backed chunks are promoted
// onto the heap in the successor only, so a mapped original stays valid
// for its readers. D-tables and empty-set memos of ix do not carry over.
func (ix *Index) Repaired(ng *graph.Graph, touched []int) (*Index, error) {
	if ix.fromWalks {
		return nil, ErrUnrepairable
	}
	if ng == nil {
		return nil, fmt.Errorf("index: repair against nil graph")
	}
	if ng.Epoch() != ix.gepoch+1 {
		return nil, fmt.Errorf("index: repair applies one delta: index at graph epoch %d, graph at %d (want %d)",
			ix.gepoch, ng.Epoch(), ix.gepoch+1)
	}
	oldN, newN := ix.g.N(), ng.N()
	if newN < oldN {
		return nil, fmt.Errorf("index: repair shrank the graph (%d -> %d nodes)", oldN, newN)
	}
	for _, t := range touched {
		if t < 0 || t >= newN {
			return nil, fmt.Errorf("index: touched node %d out of range [0,%d)", t, newN)
		}
	}
	s := &Index{g: ng, l: ix.l, r: ix.r, rbase: ix.rbase, seed: ix.seed, gepoch: ng.Epoch(),
		chunks: make([]*chunk, len(ix.chunks))}
	for i, c := range ix.chunks {
		src := c
		if c.sb != nil {
			// A decode-on-read chunk has no arrays to share: decode it whole
			// into a private heap copy.
			var err error
			if src, err = c.compacted(); err != nil {
				return nil, err
			}
		}
		edits, grow := src.rowEdits(ix.g, ng, ix.seed, ix.l, touched)
		cs := src.successor(oldN, newN, grow)
		cs.merge(edits, newN)
		if float64(cs.dead) > compactThreshold*float64(len(cs.ids)) {
			cs.offsets, cs.ids, cs.hops = cs.compactArrays(0)
			cs.ends, cs.dead = nil, 0
		}
		s.chunks[i] = cs
	}
	return s, nil
}

// Repair is Repaired applied in place: the receiver becomes its own
// successor. It is NOT safe to run concurrently with any reader of the
// receiver (Gain, Update, Row, EmptySetGains, WriteStore, ...), and
// D-tables created before it are invalid afterwards. The engine never
// repairs in place; it adopts Repaired's successor instead.
func (ix *Index) Repair(ng *graph.Graph, touched []int) error {
	s, err := ix.Repaired(ng, touched)
	if err != nil {
		return err
	}
	ix.g, ix.gepoch, ix.chunks, ix.stf = s.g, s.gepoch, s.chunks, nil
	ix.resetEmptyMemos()
	return nil
}

// rowEdits regenerates, from the array-backed chunk c of an index over og
// with master seed seed and walk length L, every walk the delta to ng
// disturbed: it replays each on og to find the entries it contributed,
// regenerates it on ng, and generates the walks of added nodes. It returns
// the resulting edits sorted by row, and grow, the number of entries the
// edited rows will occupy once rewritten.
func (c *chunk) rowEdits(og, ng *graph.Graph, seed uint64, L int, touched []int) (edits []rowEdit, grow int64) {
	R := c.r
	oldN, newN := og.N(), ng.N()

	// Affected walks, keyed w·R+i: walks starting at a touched node, and
	// every walk its old rows record as visiting it. Touched nodes beyond
	// oldN are new; their walks are generated with the other new nodes'.
	var walkIDs []int64
	for _, t := range touched {
		if t >= oldN {
			continue
		}
		starts, ends, ids, _ := c.rows(t)
		for i, lo := range starts {
			walkIDs = append(walkIDs, int64(t)*int64(R)+int64(i))
			for _, w := range ids[lo:ends[i]] {
				walkIDs = append(walkIDs, int64(w)*int64(R)+int64(i))
			}
		}
	}
	slices.Sort(walkIDs)
	walkIDs = slices.Compact(walkIDs)

	visited := make([]uint32, newN)
	var generation uint32
	var rnd rng.Source
	// replay regenerates walk (w, i) on g and records its first visits as
	// edits — exactly the build's walk loop, so replaying on the old graph
	// yields the entries the build materialized.
	replay := func(g *graph.Graph, w, i int, remove bool) {
		rnd.Seed(rng.Mix(seed, uint64(w), uint64(c.r0+i)))
		generation++
		visited[w] = generation
		u := w
		for j := 1; j <= L; j++ {
			v := g.PickNeighbor(u, rnd.Float64())
			if v < 0 {
				break
			}
			if visited[v] != generation {
				visited[v] = generation
				edits = append(edits, rowEdit{row: int64(v)*int64(R) + int64(i), src: int32(w), hop: uint16(j), remove: remove})
			}
			u = v
		}
	}
	for _, id := range walkIDs {
		w, i := int(id/int64(R)), int(id%int64(R))
		replay(og, w, i, true)
		replay(ng, w, i, false)
	}
	for w := oldN; w < newN; w++ {
		for i := 0; i < R; i++ {
			replay(ng, w, i, false)
		}
	}
	// Walks were replayed in ascending source order, so within each row
	// both the removals and the insertions are already sorted by source;
	// the stable sort by row keeps them so.
	edits = sortEditsByRow(edits, int64(newN)*int64(R))

	oldRows := int64(oldN) * int64(R)
	for a, e := range edits {
		if a == 0 || e.row != edits[a-1].row {
			if e.row < oldRows {
				starts, ends, _, _ := c.rows(int(e.row / int64(R)))
				i := e.row % int64(R)
				grow += ends[i] - starts[i]
			}
		}
		if e.remove {
			grow--
		} else {
			grow++
		}
	}
	return edits, grow
}

// tailSlack sizes the spare capacity a copying successor reserves past the
// rows it writes — 1/tailSlack of its live entries, and at least two more
// deltas of the same size — so the successors after it can append in place
// until that runs out. Dead storage is dropped at each copy, so it stays
// within that spare capacity unless single deltas rewrite much of the
// index, which the compaction threshold catches.
const tailSlack = 4

// successor returns the array-backed chunk c's heap-resident successor
// shell for a graph grown from oldN to newN nodes, in the patched layout
// with fresh row tables (new rows empty at the tail) and entry storage
// holding c's rows unchanged, with room to append grow entries.
func (c *chunk) successor(oldN, newN int, grow int64) *chunk {
	s := &chunk{r0: c.r0, r: c.r}
	offsets, ends := c.offsets, c.ends
	if !c.stored && int64(cap(c.ids)-len(c.ids)) >= grow && int64(cap(c.hops)-len(c.hops)) >= grow &&
		c.tailClaimed.CompareAndSwap(false, true) {
		// Share the storage: appends land past len(c.ids), which c never
		// reads, and the claim keeps any other successor out of that space.
		s.ids, s.hops, s.dead = c.ids, c.hops, c.dead
	} else {
		// Mapped pages cannot be appended to, a claimed tail belongs to
		// another successor, and a short one would reallocate anyway: start
		// from a compact copy, which also drops the dead storage.
		offsets, s.ids, s.hops = c.compactArrays(grow + max(c.entries()/tailSlack, 2*grow))
		ends = nil
	}
	oldRows := int64(oldN) * int64(c.r)
	newRows := int64(newN) * int64(c.r)
	tail := int64(len(s.ids))
	s.offsets = make([]int64, newRows+1)
	copy(s.offsets, offsets[:oldRows])
	s.ends = make([]int64, newRows)
	if ends == nil {
		copy(s.ends, offsets[1:oldRows+1])
	} else {
		copy(s.ends, ends[:oldRows])
	}
	for k := oldRows; k < newRows; k++ {
		s.offsets[k], s.ends[k] = tail, tail
	}
	s.offsets[newRows] = tail
	return s
}

// merge rewrites each edited row of the successor s (over n nodes) at the
// storage tail: the row's old entries minus the removed sources,
// interleaved by source with the insertions, in one linear pass. Rows are
// sorted by source (Build emits them so for every worker count), which is
// what makes a compacted repair bit-identical to a full rebuild. Until a
// row is rewritten, s reads it exactly as its predecessor did.
func (s *chunk) merge(edits []rowEdit, n int) {
	removed := make([]uint32, n)
	var generation uint32
	for a := 0; a < len(edits); {
		k := edits[a].row
		b := a
		generation++
		for ; b < len(edits) && edits[b].row == k; b++ {
			if edits[b].remove {
				removed[edits[b].src] = generation
			}
		}
		ins := edits[a:b]
		lo, hi := s.offsets[k], s.ends[k]
		start := int64(len(s.ids))
		for p := lo; p < hi; p++ {
			id := s.ids[p]
			if removed[id] == generation {
				continue
			}
			for len(ins) > 0 && (ins[0].remove || ins[0].src < id) {
				if !ins[0].remove {
					s.ids, s.hops = append(s.ids, ins[0].src), append(s.hops, ins[0].hop)
				}
				ins = ins[1:]
			}
			s.ids, s.hops = append(s.ids, id), append(s.hops, s.hops[p])
		}
		for _, e := range ins {
			if !e.remove {
				s.ids, s.hops = append(s.ids, e.src), append(s.hops, e.hop)
			}
		}
		s.dead += hi - lo
		s.offsets[k], s.ends[k] = start, int64(len(s.ids))
		a = b
	}
}

// sortEditsByRow sorts edits by row with a stable LSD radix sort over the
// bits rows < rows can have, preserving the order of edits within a row.
func sortEditsByRow(edits []rowEdit, rows int64) []rowEdit {
	const digit = 8
	tmp := make([]rowEdit, len(edits))
	var count [1 << digit]int
	for shift := 0; shift < bits.Len64(uint64(rows)); shift += digit {
		count = [1 << digit]int{}
		for _, e := range edits {
			count[(e.row>>shift)&(1<<digit-1)]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, e := range edits {
			d := (e.row >> shift) & (1<<digit - 1)
			tmp[count[d]] = e
			count[d]++
		}
		edits, tmp = tmp, edits
	}
	return edits
}

// compactArrays builds fresh compact CSR arrays from the array-backed
// chunk's live rows, in row order, with room to append spare more entries,
// without touching the receiver. It serves both layouts; on a compact chunk
// it is a plain copy. Rows a repair left in place are still adjacent and in
// order, so each run of them moves as one block.
func (c *chunk) compactArrays(spare int64) ([]int64, []int32, []uint16) {
	rows := int64(len(c.offsets)) - 1
	total := c.entries()
	offsets := make([]int64, rows+1)
	ids := make([]int32, total, total+spare)
	hops := make([]uint16, total, total+spare)
	// flush copies the run of adjacent rows [lo, hi) of the source storage.
	pos, lo, hi := int64(0), int64(0), int64(0)
	flush := func() {
		copy(ids[pos:], c.ids[lo:hi])
		copy(hops[pos:], c.hops[lo:hi])
		pos += hi - lo
	}
	for u := int64(0); u < rows/int64(c.r); u++ {
		starts, ends, _, _ := c.rows(int(u))
		for i, start := range starts {
			if start != hi {
				flush()
				lo, hi = start, start
			}
			offsets[u*int64(c.r)+int64(i)] = pos + start - lo
			hi = ends[i]
		}
	}
	flush()
	offsets[rows] = pos
	return offsets, ids, hops
}
