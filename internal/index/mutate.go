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
// delta's touched-node list. Compact() on the successor followed by
// comparing the CSR arrays to a rebuild is bit-identical, which the parity
// tests assert.
//
// Repaired never writes memory ix can read, so it may run while other
// goroutines read ix; ix keeps answering for its own epoch. Store-backed
// indexes are promoted onto the heap in the successor only, so a mapped
// original stays valid for its readers. D-tables and empty-set memos of ix
// do not carry over.
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
	if ix.parts != nil {
		// Chunks are self-contained partial indexes over disjoint replicate
		// ranges, so each repairs independently against the same delta.
		s := &Index{g: ng, l: ix.l, r: ix.r, rbase: ix.rbase, seed: ix.seed, gepoch: ng.Epoch(),
			parts: make([]*Index, 0, len(ix.parts))}
		for _, pt := range ix.parts {
			ps, err := pt.Repaired(ng, touched)
			if err != nil {
				return nil, err
			}
			s.parts = append(s.parts, ps)
		}
		return s, nil
	}
	src := ix
	if ix.sb != nil {
		// A decode-on-read chunk has no arrays to read rows from: decode it
		// whole into a private heap view.
		o, ids, hops, err := ix.sb.Materialize()
		if err != nil {
			return nil, fmt.Errorf("index: promote store-backed chunk: %w", err)
		}
		src = &Index{g: ix.g, l: ix.l, r: ix.r, rbase: ix.rbase, seed: ix.seed, gepoch: ix.gepoch,
			offsets: o, ids: ids, hops: hops}
	}
	edits, grow := src.rowEdits(ng, touched)
	s := src.successor(ng, grow)
	s.merge(edits)
	if float64(s.dead) > compactThreshold*float64(len(s.ids)) {
		s.Compact()
	}
	return s, nil
}

// Repair is Repaired applied in place: the receiver becomes its own
// successor. It is NOT safe to run concurrently with any reader of the
// receiver (Gain, Update, Row, EmptySetGains, WriteTo, ...), and D-tables
// created before it are invalid afterwards. The engine never repairs in
// place; it adopts Repaired's successor instead.
func (ix *Index) Repair(ng *graph.Graph, touched []int) error {
	s, err := ix.Repaired(ng, touched)
	if err != nil {
		return err
	}
	ix.g, ix.gepoch, ix.parts = s.g, s.gepoch, s.parts
	ix.offsets, ix.ids, ix.hops, ix.ends, ix.dead = s.offsets, s.ids, s.hops, s.ends, s.dead
	ix.stf, ix.sb, ix.sbEntries = nil, nil, 0
	ix.tailClaimed.Store(false)
	ix.resetEmptyMemos()
	return nil
}

// rowEdits regenerates, from flat heap-readable ix, every walk the delta
// to ng disturbed: it replays each on ix's graph to find the entries it
// contributed, regenerates it on ng, and generates the walks of added
// nodes. It returns the resulting edits sorted by row, and grow, the number
// of entries the edited rows will occupy once rewritten.
func (ix *Index) rowEdits(ng *graph.Graph, touched []int) (edits []rowEdit, grow int64) {
	R, L := ix.r, ix.l
	og := ix.g
	oldN, newN := og.N(), ng.N()

	// Affected walks, keyed w·R+i: walks starting at a touched node, and
	// every walk its old rows record as visiting it. Touched nodes beyond
	// oldN are new; their walks are generated with the other new nodes'.
	var walkIDs []int64
	for _, t := range touched {
		if t >= oldN {
			continue
		}
		for i := 0; i < R; i++ {
			k := int64(t)*int64(R) + int64(i)
			walkIDs = append(walkIDs, k)
			lo, hi := ix.span(k)
			for _, w := range ix.ids[lo:hi] {
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
		rnd.Seed(rng.Mix(ix.seed, uint64(w), uint64(ix.rbase+i)))
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
				lo, hi := ix.span(e.row)
				grow += hi - lo
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

// successor returns flat ix's heap-resident successor shell for ng, in the
// patched layout with fresh row tables grown to ng's node count (new rows
// empty at the tail) and entry storage holding ix's rows unchanged, with
// room to append grow entries.
func (ix *Index) successor(ng *graph.Graph, grow int64) *Index {
	s := &Index{g: ng, l: ix.l, r: ix.r, rbase: ix.rbase, seed: ix.seed, gepoch: ng.Epoch()}
	offsets, ends := ix.offsets, ix.ends
	if ix.stf == nil && int64(cap(ix.ids)-len(ix.ids)) >= grow && int64(cap(ix.hops)-len(ix.hops)) >= grow &&
		ix.tailClaimed.CompareAndSwap(false, true) {
		// Share the storage: appends land past len(ix.ids), which ix never
		// reads, and the claim keeps any other successor out of that space.
		s.ids, s.hops, s.dead = ix.ids, ix.hops, ix.dead
	} else {
		// Mapped pages cannot be appended to, a claimed tail belongs to
		// another successor, and a short one would reallocate anyway: start
		// from a compact copy, which also drops the dead storage.
		offsets, s.ids, s.hops = ix.compactArrays(grow + max(ix.Entries()/tailSlack, 2*grow))
		ends = nil
	}
	oldRows := int64(ix.g.N()) * int64(ix.r)
	newRows := int64(ng.N()) * int64(ix.r)
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

// merge rewrites each edited row of the successor s at the storage tail:
// the row's old entries minus the removed sources, interleaved by source
// with the insertions, in one linear pass. Rows are sorted by source (Build
// emits them so for every worker count), which is what makes a compacted
// repair bit-identical to a full rebuild. Until a row is rewritten, s reads
// it exactly as its predecessor did.
func (s *Index) merge(edits []rowEdit) {
	removed := make([]uint32, s.g.N())
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

// compactArrays builds fresh compact CSR arrays from the index's live
// spans, in row order, with room to append spare more entries, without
// touching the receiver. It serves both layouts; on a compact index it is a
// plain copy. Rows a repair left in place are still adjacent and in order,
// so each run of them moves as one block.
func (ix *Index) compactArrays(spare int64) ([]int64, []int32, []uint16) {
	rows := int64(len(ix.offsets)) - 1
	total := ix.Entries()
	offsets := make([]int64, rows+1)
	ids := make([]int32, total, total+spare)
	hops := make([]uint16, total, total+spare)
	pos := int64(0)
	for k := int64(0); k < rows; {
		lo, hi := ix.span(k)
		shift := pos - lo
		offsets[k] = pos
		for k++; k < rows; k++ {
			klo, khi := ix.span(k)
			if klo != hi {
				break
			}
			offsets[k] = klo + shift
			hi = khi
		}
		copy(ids[pos:], ix.ids[lo:hi])
		copy(hops[pos:], ix.hops[lo:hi])
		pos += hi - lo
	}
	offsets[rows] = pos
	return offsets, ids, hops
}

// Compact restores the canonical compact layout after Repairs have left the
// index patched: rows become adjacent and in row order again, dead storage
// is released, and — because repaired rows stay sorted by source — the
// resulting arrays are bit-identical to a fresh build against the current
// graph. It is a no-op on a compact index. Like Repair it mutates the index
// and must not run concurrently with readers.
func (ix *Index) Compact() {
	if ix.parts != nil {
		for _, pt := range ix.parts {
			pt.Compact()
		}
		return
	}
	if ix.ends == nil {
		return
	}
	ix.offsets, ix.ids, ix.hops = ix.compactArrays(0)
	ix.ends = nil
	ix.dead = 0
}

// compacted returns a compact view of the index for serialization: the
// receiver itself when already compact, otherwise a shallow copy with
// freshly compacted arrays — the receiver is never mutated, so WriteTo stays
// safe for concurrent readers of a compact index and never persists the
// patched layout.
func (ix *Index) compacted() *Index {
	if ix.parts != nil {
		// Chunked parents hold no arrays; WriteTo compacts chunk by chunk.
		return ix
	}
	if ix.sb != nil {
		// Decode-on-read chunks have no materialized arrays: decode the
		// whole chunk into a compact copy (blocks are compact by
		// construction), leaving the receiver untouched.
		offsets, ids, hops, err := ix.sb.Materialize()
		if err != nil {
			// Unreachable short of a writer bug (the file passed its CRC
			// pass at open); serialize an empty chunk rather than panic.
			offsets = make([]int64, int64(ix.r)*int64(ix.g.N())+1)
		}
		c := &Index{g: ix.g, l: ix.l, r: ix.r, rbase: ix.rbase, seed: ix.seed, gepoch: ix.gepoch, fromWalks: ix.fromWalks}
		c.offsets, c.ids, c.hops = offsets, ids, hops
		return c
	}
	if ix.ends == nil {
		return ix
	}
	c := &Index{g: ix.g, l: ix.l, r: ix.r, rbase: ix.rbase, seed: ix.seed, gepoch: ix.gepoch, fromWalks: ix.fromWalks}
	c.offsets, c.ids, c.hops = ix.compactArrays(0)
	return c
}
