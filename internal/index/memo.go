package index

import (
	"fmt"
)

// This file holds the memoized read-path machinery the query-serving daemon
// builds on: per-problem empty-set gain vectors computed straight off the
// index (no D-table at all), and cheap state transfer between D-tables
// (Snapshot/ExtendFrom) so a table replayed for a set S can be extended to
// S ∪ Δ without replaying S.

// emptySlot maps a Problem to its memo slot in the Index.
func emptySlot(p Problem) (int, error) {
	switch p {
	case Problem1:
		return 0, nil
	case Problem2:
		return 1, nil
	default:
		return 0, fmt.Errorf("index: unknown problem %d", int(p))
	}
}

// emptySumInt computes the empty-set integer gain sum of node u — the shared
// kernel of EmptySetGains and EmptySetGainSums. Each chunk contributes from
// its own width (r·L or r), so the per-chunk sums add up to the one-chunk
// sum exactly. Where a node's rows are contiguous, its sum reads one span.
func (ix *Index) emptySumInt(p Problem, u int) int64 {
	l := int64(ix.l)
	var acc int64
	for _, c := range ix.chunks {
		starts, ends, _, hops := c.rows(u)
		if c.contiguous() {
			starts, ends = starts[:1], ends[len(ends)-1:]
		}
		if p == Problem2 {
			// d ≡ 0: the node's own rows contribute r, and every index entry
			// is a not-yet-dominated source walk.
			acc += int64(c.r)
			for i, lo := range starts {
				acc += ends[i] - lo
			}
			continue
		}
		// d ≡ L: the node's own rows contribute r·L, and every index entry
		// with hop < L improves its source's hitting time by L − hop.
		acc += int64(c.r) * l
		for i, lo := range starts {
			for _, hop := range hops[lo:ends[i]] {
				if int64(hop) < l {
					acc += l - int64(hop)
				}
			}
		}
	}
	return acc
}

// EmptySetGains returns the marginal gain of every node against the empty
// set — Gain(u) of a fresh D-table — computed directly from the index
// entries without materializing any n·R table. The vector is computed once
// per problem and memoized on the index until an in-place Repair drops it, so
// steady-state calls are free; it is safe for concurrent callers. The
// returned slice is shared and must not be modified.
//
// Values are bit-for-bit identical to NewDTable(p).Gain(u): both accumulate
// the same integer sum over u's replicate span and divide by R last.
func (ix *Index) EmptySetGains(p Problem) ([]float64, error) {
	slot, err := emptySlot(p)
	if err != nil {
		return nil, err
	}
	ix.emptyMu.Lock()
	defer ix.emptyMu.Unlock()
	if ix.emptyGains[slot] == nil {
		n := ix.g.N()
		gains := make([]float64, n)
		fr := float64(ix.r)
		for u := 0; u < n; u++ {
			gains[u] = float64(ix.emptySumInt(p, u)) / fr
		}
		ix.emptyGains[slot] = gains
	}
	return ix.emptyGains[slot], nil
}

// EmptySetGainSums is EmptySetGains in the integer domain: the gain sum of
// every node against the empty set, before the division by R. Like
// EmptySetGains the vector is computed once per problem and memoized on the
// index until an in-place Repair; the returned slice is shared and must not be
// modified. It is the empty-set fast path of the partial (replicate-sharded)
// read surface, where answers stay integral so the coordinator can merge
// shard ranges exactly.
func (ix *Index) EmptySetGainSums(p Problem) ([]int64, error) {
	slot, err := emptySlot(p)
	if err != nil {
		return nil, err
	}
	ix.emptyMu.Lock()
	defer ix.emptyMu.Unlock()
	if ix.emptySums[slot] == nil {
		n := ix.g.N()
		sums := make([]int64, n)
		for u := 0; u < n; u++ {
			sums[u] = ix.emptySumInt(p, u)
		}
		ix.emptySums[slot] = sums
	}
	return ix.emptySums[slot], nil
}

// resetEmptyMemos drops the memoized empty-set vectors; Repair calls it
// because the entries (and possibly n) they summarize changed.
func (ix *Index) resetEmptyMemos() {
	ix.emptyMu.Lock()
	ix.emptyGains = [2][]float64{}
	ix.emptySums = [2][]int64{}
	ix.emptyMu.Unlock()
}

// EmptySetObjectiveSum returns the integer objective accumulator of the
// empty set — what DTable.ObjectiveSum reports on a fresh table: n·R·L for
// Problem 1 (every replicate row holds L), 0 for Problem 2.
func (ix *Index) EmptySetObjectiveSum(p Problem) (int64, error) {
	if _, err := emptySlot(p); err != nil {
		return 0, err
	}
	if p == Problem1 {
		return int64(ix.g.N()) * int64(ix.r) * int64(ix.l), nil
	}
	return 0, nil
}

// EmptySetObjective returns the estimated objective of the empty set — what
// EstimateObjective reports on a fresh D-table — without materializing one.
// (Both objectives are 0 by construction; the value is computed with the
// same floating-point operations as the D-table path so the two read paths
// stay bit-for-bit identical.)
func (ix *Index) EmptySetObjective(p Problem) (float64, error) {
	if _, err := emptySlot(p); err != nil {
		return 0, err
	}
	n := ix.g.N()
	if p == Problem1 {
		// acc = Σ_u Σ_i L, then the same nL − acc/R the D-table scan performs.
		acc := int64(n) * int64(ix.r) * int64(ix.l)
		avg := float64(acc) / float64(ix.r)
		return float64(n)*float64(ix.l) - avg, nil
	}
	return 0, nil
}

// Snapshot is a read-only view of a D-table's state at a point in time,
// the source side of ExtendFrom. It aliases the table's storage rather than
// copying it: taking one is O(1), and it remains valid only until the next
// mutation (Update or ExtendFrom) of the source table. ExtendFrom rejects
// an invalidated snapshot.
//
// The memoized gain cache in internal/server relies on exactly this
// shape: cached tables are frozen after population, so their snapshots stay
// valid indefinitely and extending one to a superset set costs a single
// array copy plus the delta replay — never a replay of the whole set.
type Snapshot struct {
	src  *DTable
	muts uint64
}

// Snapshot returns a read-only view of the table's current state. See the
// Snapshot type for the aliasing/validity contract.
func (t *DTable) Snapshot() *Snapshot {
	return &Snapshot{src: t, muts: t.muts}
}

// Size returns |S| of the snapshotted state.
func (s *Snapshot) Size() int { return s.src.Size() }

// Problem returns the objective the snapshotted table tracks.
func (s *Snapshot) Problem() Problem { return s.src.problem }

// ExtendFrom replaces t's state with the snapshot's and then folds each
// node of extra in (Algorithm 5), so t becomes the table for
// S_snapshot ∪ extra without replaying S_snapshot. t must belong to the
// same index and problem as the snapshot's source, and the snapshot must
// still be valid (no mutation of its source since it was taken).
func (t *DTable) ExtendFrom(s *Snapshot, extra ...int) error {
	if s == nil || s.src == nil {
		return fmt.Errorf("index: ExtendFrom of nil snapshot")
	}
	if s.src.ix != t.ix {
		return fmt.Errorf("index: ExtendFrom across indexes")
	}
	if s.src.problem != t.problem {
		return fmt.Errorf("index: ExtendFrom across problems (%v vs %v)", s.src.problem, t.problem)
	}
	if s.muts != s.src.muts {
		return fmt.Errorf("index: snapshot invalidated by %d later mutation(s) of its source", s.src.muts-s.muts)
	}
	if len(t.cols) != len(s.src.cols) {
		// A SyncChunks on either side bumps muts, so width drift that
		// reaches here is a table of a different width over the same index.
		return fmt.Errorf("index: ExtendFrom across chunk widths (%d vs %d chunks)", len(t.cols), len(s.src.cols))
	}
	if t != s.src {
		for i, src := range s.src.cols {
			copy(t.cols[i].d, src.d)
			copy(t.cols[i].sat, src.sat)
		}
		t.sel = append(t.sel[:0], s.src.sel...)
	}
	t.muts++
	for _, u := range extra {
		t.Update(u)
	}
	return nil
}

// Index returns the index the table reads.
func (t *DTable) Index() *Index { return t.ix }

// MemoryBytes reports the approximate heap footprint of the table, used by
// the serving layer's memo cache for /stats accounting.
func (t *DTable) MemoryBytes() int64 {
	total := int64(len(t.sel)) * 8
	for _, col := range t.cols {
		total += int64(len(col.d))*2 + int64(len(col.sat))
	}
	return total
}
