package core

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/index"
)

// This file exports the top-B marginal-gain sweep the query-serving daemon
// uses for GET /v1/topgains: evaluate Gain for every candidate against a
// D-table's current set (a pure read, sharded over workers) and keep the B
// best. It lives in core next to the greedy entry points because it is exactly
// one round of the plain greedy sweep, generalized from argmax to arg-top-B.

// topGainsStride bounds how many candidates a worker evaluates between
// context checks, so cancellation latency stays bounded on large graphs.
const topGainsStride = 1024

// TopGains returns the b candidates with the largest marginal gains against
// d's current set, excluding nodes marked in exclude (which may be nil, and
// is indexed by node id). Gain evaluation is sharded over workers goroutines
// (0 means all cores); results are ordered by gain descending with ties
// broken by ascending node id, and are bit-for-bit identical for every
// worker count because gains are integer accumulations and the selection
// rule is a total order.
//
// Gain reads the D-table without mutating it, so concurrent TopGains calls
// over one (frozen) table are safe — the property the daemon's memoized
// read path relies on.
func TopGains(ctx context.Context, d *index.DTable, b int, exclude []bool, workers int) ([]int, []float64, error) {
	if d == nil {
		return nil, nil, fmt.Errorf("core: TopGains of nil D-table")
	}
	if b < 0 {
		return nil, nil, fmt.Errorf("core: negative top-gain budget %d", b)
	}
	n := d.Index().Graph().N()
	if exclude != nil && len(exclude) != n {
		return nil, nil, fmt.Errorf("core: exclude mask has %d entries for %d nodes", len(exclude), n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	gains := make([]float64, n)
	if workers <= 1 {
		us := make([]int, 0, topGainsStride)
		for lo := 0; lo < n; lo += topGainsStride {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			hi := lo + topGainsStride
			if hi > n {
				hi = n
			}
			us = us[:0]
			for u := lo; u < hi; u++ {
				us = append(us, u)
			}
			d.GainBatch(us, gains[lo:lo])
		}
	} else {
		var wg sync.WaitGroup
		per := (n + workers - 1) / workers
		for lo := 0; lo < n; lo += per {
			hi := lo + per
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				us := make([]int, 0, topGainsStride)
				for c := lo; c < hi; c += topGainsStride {
					if ctx.Err() != nil {
						return
					}
					ch := c + topGainsStride
					if ch > hi {
						ch = hi
					}
					us = us[:0]
					for u := c; u < ch; u++ {
						us = append(us, u)
					}
					d.GainBatch(us, gains[c:c])
				}
			}(lo, hi)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	nodes, top := TopOfGains(gains, exclude, b)
	return nodes, top, nil
}

// TopGainSums is TopGains in the integer domain: it returns the b candidates
// with the largest integer gain sums (Gain before the division by R) against
// d's current set, ordered by sum descending with ties broken by ascending
// node id. It is the shard-side half of distributed top-B: a replicate-range
// shard reports its local top candidates as exact int64 partial sums, which
// the coordinator merges by addition and only then divides — so the merged
// ranking is computed from the same float64 values the unsharded sweep sees.
func TopGainSums(ctx context.Context, d *index.DTable, b int, exclude []bool, workers int) ([]int, []int64, error) {
	if d == nil {
		return nil, nil, fmt.Errorf("core: TopGainSums of nil D-table")
	}
	if b < 0 {
		return nil, nil, fmt.Errorf("core: negative top-gain budget %d", b)
	}
	n := d.Index().Graph().N()
	if exclude != nil && len(exclude) != n {
		return nil, nil, fmt.Errorf("core: exclude mask has %d entries for %d nodes", len(exclude), n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	sums := make([]int64, n)
	if workers <= 1 {
		us := make([]int, 0, topGainsStride)
		for lo := 0; lo < n; lo += topGainsStride {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			hi := lo + topGainsStride
			if hi > n {
				hi = n
			}
			us = us[:0]
			for u := lo; u < hi; u++ {
				us = append(us, u)
			}
			d.GainSumBatch(us, sums[lo:lo])
		}
	} else {
		var wg sync.WaitGroup
		per := (n + workers - 1) / workers
		for lo := 0; lo < n; lo += per {
			hi := lo + per
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				us := make([]int, 0, topGainsStride)
				for c := lo; c < hi; c += topGainsStride {
					if ctx.Err() != nil {
						return
					}
					ch := c + topGainsStride
					if ch > hi {
						ch = hi
					}
					us = us[:0]
					for u := c; u < ch; u++ {
						us = append(us, u)
					}
					d.GainSumBatch(us, sums[c:c])
				}
			}(lo, hi)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	nodes, top := TopOfSums(sums, exclude, b)
	return nodes, top, nil
}

// topItem pairs a candidate with its gain inside the selection heap.
type topItem struct {
	u    int32
	gain float64
}

// topHeap is a min-heap under the (gain descending, id ascending) selection
// order: the root is the currently weakest kept candidate, i.e. the one a
// better candidate displaces. "Weaker" means smaller gain, or equal gain
// with a larger id.
type topHeap []topItem

func (h topHeap) Len() int { return len(h) }
func (h topHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain < h[j].gain
	}
	return h[i].u > h[j].u
}
func (h topHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *topHeap) Push(x any)   { *h = append(*h, x.(topItem)) }
func (h *topHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }
func (h topHeap) beats(it topItem) bool {
	root := h[0]
	if it.gain != root.gain {
		return it.gain > root.gain
	}
	return it.u < root.u
}

// sumItem and sumHeap mirror topItem/topHeap in the integer domain, under
// the same (value descending, id ascending) selection order.
type sumItem struct {
	u   int32
	sum int64
}

type sumHeap []sumItem

func (h sumHeap) Len() int { return len(h) }
func (h sumHeap) Less(i, j int) bool {
	if h[i].sum != h[j].sum {
		return h[i].sum < h[j].sum
	}
	return h[i].u > h[j].u
}
func (h sumHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *sumHeap) Push(x any)   { *h = append(*h, x.(sumItem)) }
func (h *sumHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }
func (h sumHeap) beats(it sumItem) bool {
	root := h[0]
	if it.sum != root.sum {
		return it.sum > root.sum
	}
	return it.u < root.u
}

// TopOfSums selects the top b entries of a precomputed integer-sum vector
// (indexed by node id), excluding nodes marked in exclude (may be nil), in
// O(n log b): sum descending, ties by ascending node id — the selection half
// of TopGainSums.
func TopOfSums(sums []int64, exclude []bool, b int) ([]int, []int64) {
	if b > len(sums) {
		b = len(sums)
	}
	if b <= 0 {
		return []int{}, []int64{}
	}
	h := make(sumHeap, 0, b)
	for u, s := range sums {
		if exclude != nil && exclude[u] {
			continue
		}
		it := sumItem{u: int32(u), sum: s}
		if len(h) < b {
			heap.Push(&h, it)
			continue
		}
		if h.beats(it) {
			h[0] = it
			heap.Fix(&h, 0)
		}
	}
	nodes := make([]int, len(h))
	top := make([]int64, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		it := heap.Pop(&h).(sumItem)
		nodes[i] = int(it.u)
		top[i] = it.sum
	}
	return nodes, top
}

// TopOfGains selects the top b entries of a precomputed gains vector
// (indexed by node id), excluding nodes marked in exclude (may be nil), in
// O(n log b): gain descending, ties by ascending node id. It is the
// selection half of TopGains, exposed separately so the empty-set serving
// path can rank the index's memoized empty-set gain vector without copying
// it into a D-table.
func TopOfGains(gains []float64, exclude []bool, b int) ([]int, []float64) {
	if b > len(gains) {
		b = len(gains)
	}
	if b <= 0 {
		return []int{}, []float64{}
	}
	h := make(topHeap, 0, b)
	for u, g := range gains {
		if exclude != nil && exclude[u] {
			continue
		}
		it := topItem{u: int32(u), gain: g}
		if len(h) < b {
			heap.Push(&h, it)
			continue
		}
		if h.beats(it) {
			h[0] = it
			heap.Fix(&h, 0)
		}
	}
	nodes := make([]int, len(h))
	top := make([]float64, len(h))
	// Pop ascending (weakest first) and fill backwards for the descending
	// result order.
	for i := len(h) - 1; i >= 0; i-- {
		it := heap.Pop(&h).(topItem)
		nodes[i] = int(it.u)
		top[i] = it.gain
	}
	return nodes, top
}
