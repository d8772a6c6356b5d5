package greedy

import (
	"container/heap"
	"context"

	"repro/internal/faultinject"
)

// The serial loops below are the reference the parity tests compare Run
// against: Algorithm 1 and CELF written as one goroutine, one Gain call at a
// time, with none of Run's sharding or batching.

// serialRun is plain greedy: k rounds, each scanning all remaining
// candidates (Algorithm 1 verbatim). O(kn) Gain calls.
func serialRun(ctx context.Context, n, k int, oracle Oracle) (*Result, error) {
	k, err := validate(n, k)
	if err != nil {
		return nil, err
	}
	res := &Result{Selected: make([]int, 0, k), Gains: make([]float64, 0, k)}
	selected := make([]bool, n)
	for round := 0; round < k; round++ {
		best, bestGain := -1, 0.0
		for u := 0; u < n; u++ {
			if u%cancelCheckStride == 0 {
				faultinject.Delay(faultinject.SiteGreedyStride)
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
			}
			if selected[u] {
				continue
			}
			g := oracle.Gain(u)
			res.Evaluations++
			if best == -1 || g > bestGain {
				best, bestGain = u, g
			}
		}
		if best == -1 {
			break
		}
		selected[best] = true
		oracle.Update(best)
		res.Selected = append(res.Selected, best)
		res.Gains = append(res.Gains, bestGain)
	}
	return res, nil
}

// serialRunLazy is CELF lazy greedy. All candidates are evaluated once in
// round 0; afterwards, the top of a max-heap is re-evaluated only if its
// cached gain is stale.
func serialRunLazy(ctx context.Context, n, k int, oracle Oracle) (*Result, error) {
	k, err := validate(n, k)
	if err != nil {
		return nil, err
	}
	res := &Result{Selected: make([]int, 0, k), Gains: make([]float64, 0, k)}
	h := make(celfHeap, 0, n)
	// The initial sweep is evaluated against the empty set, which is the
	// state of round 1, so the entries are born fresh for the first pick.
	for u := 0; u < n; u++ {
		if u%cancelCheckStride == 0 {
			faultinject.Delay(faultinject.SiteGreedyStride)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		h = append(h, celfItem{u: int32(u), round: 1, gain: oracle.Gain(u)})
		res.Evaluations++
	}
	heap.Init(&h)
	for round := int32(1); int(round) <= k && h.Len() > 0; {
		// One heap step costs at least a Gain or an Update, so a per-step
		// check keeps cancellation latency bounded without measurable cost.
		faultinject.Delay(faultinject.SiteGreedyStride)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		top := h[0]
		if top.round == round {
			// Fresh this round: by submodularity no other candidate can beat
			// it, so select it.
			heap.Pop(&h)
			oracle.Update(int(top.u))
			res.Selected = append(res.Selected, int(top.u))
			res.Gains = append(res.Gains, top.gain)
			round++
			continue
		}
		// Stale: recompute against the current set and reinsert.
		h[0].gain = oracle.Gain(int(top.u))
		h[0].round = round
		res.Evaluations++
		heap.Fix(&h, 0)
	}
	return res, nil
}

// serial runs the reference loop for the given flavor.
func serial(n, k int, oracle Oracle, lazy bool) (*Result, error) {
	if lazy {
		return serialRunLazy(context.Background(), n, k, oracle)
	}
	return serialRun(context.Background(), n, k, oracle)
}

// run is Run with a background context.
func run(n, k int, oracle Oracle, opts Options) (*Result, error) {
	return Run(context.Background(), n, k, oracle, opts)
}
