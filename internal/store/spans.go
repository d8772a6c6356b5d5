package store

import "sync/atomic"

// Spans serves a compressed chunk's rows by decode-on-read: NodeSpan(u)
// returns node u's block — all of the chunk's replicate rows for u — in
// exactly the shape the heap-resident hot paths consume, decoding from the
// mapped blob on demand.
//
// A direct-mapped cache of decoded blocks (atomic.Pointer slots, lock-free
// for readers and writers) keeps hot rows materialized: a selection sweep
// touches the same candidate blocks every round, so steady-state reads are a
// slot load + pointer compare, preserving the contiguous-span win the layout
// ablations measured while cold rows stay compressed on the map. Concurrent
// decoders of the same cold block may race benignly — both decode, one's
// result wins the slot, answers are identical either way.
type Spans struct {
	f     *File
	m     *chunkMeta
	n     int
	width int
	// blockOffs/blob alias the file's pages.
	blockOffs []int64
	blob      []byte
	// slots is the direct-mapped decoded-block cache (nil: caching disabled,
	// every read decodes). mask = len(slots)-1, a power of two.
	slots []atomic.Pointer[decoded]
	mask  uint32
	// empty is the span served for a malformed block (decode error): zero
	// entries in every row — never garbage, never a panic.
	empty *decoded
}

func newSpans(f *File, m *chunkMeta, hotRows int) *Spans {
	s := &Spans{
		f:         f,
		m:         m,
		n:         f.id.N,
		width:     m.width,
		blockOffs: bytesInt64(f.section(m, 0)),
		blob:      f.section(m, 1),
		empty:     &decoded{u: -1, offs: make([]int64, m.width+1)},
	}
	if hotRows == 0 {
		hotRows = DefaultHotRows
	}
	if hotRows > 0 {
		size := 1
		for size < hotRows {
			size <<= 1
		}
		s.slots = make([]atomic.Pointer[decoded], size)
		s.mask = uint32(size - 1)
	}
	return s
}

// NodeSpan returns node u's rows: row i of the chunk is
// ids[offs[i]:offs[i+1]] with parallel hops. The slices are read-only and
// valid while the owning *File is reachable (cached blocks are heap-resident
// but follow the same rule for uniformity).
func (s *Spans) NodeSpan(u int) (offs []int64, ids []int32, hops []uint16) {
	var slot *atomic.Pointer[decoded]
	if s.slots != nil {
		slot = &s.slots[uint32(u)&s.mask]
		if d := slot.Load(); d != nil && int(d.u) == u {
			s.f.decodeHits.Add(1)
			return d.offs, d.ids, d.hops
		}
	}
	s.f.decodeMisses.Add(1)
	d := s.decode(u)
	if slot != nil && d != s.empty {
		slot.Store(d)
	}
	return d.offs, d.ids, d.hops
}

// decode materializes node u's block from the blob. The open-time CRC pass
// makes a malformed block unreachable short of a writer bug; if one appears
// anyway it is counted and served as an empty span, never a panic.
func (s *Spans) decode(u int) *decoded {
	lo, hi := s.blockOffs[u], s.blockOffs[u+1]
	d, err := decodeBlock(s.blob[lo:hi], u, s.width, s.n, s.f.id.L)
	if err != nil {
		s.f.decodeErrors.Add(1)
		return s.empty
	}
	return d
}

// Materialize decodes the whole chunk into fresh compact CSR arrays — the
// store→heap promotion path a repair takes (the repaired successor is
// heap-resident), and the bridge for re-serializing a store-backed index.
func (s *Spans) Materialize() (offsets []int64, ids []int32, hops []uint16, err error) {
	rows := int64(s.n) * int64(s.width)
	offsets = make([]int64, rows+1)
	ids = make([]int32, 0, s.m.entries)
	hops = make([]uint16, 0, s.m.entries)
	for u := 0; u < s.n; u++ {
		lo, hi := s.blockOffs[u], s.blockOffs[u+1]
		d, derr := decodeBlock(s.blob[lo:hi], u, s.width, s.n, s.f.id.L)
		if derr != nil {
			return nil, nil, nil, derr
		}
		base := int64(u) * int64(s.width)
		for i := 0; i <= s.width; i++ {
			offsets[base+int64(i)] = int64(len(ids)) + d.offs[i]
		}
		ids = append(ids, d.ids...)
		hops = append(hops, d.hops...)
	}
	offsets[rows] = int64(len(ids))
	return offsets, ids, hops, nil
}
