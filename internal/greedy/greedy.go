// Package greedy implements the cardinality-constrained submodular
// maximization loop of Algorithm 1. Run is the one driver, in two flavors:
// plain greedy, which re-evaluates every remaining candidate's marginal gain
// each round, and lazy greedy (CELF, the "lazy evaluation strategy [19]" the
// paper cites), which exploits submodularity — a candidate's gain can only
// shrink as the set grows — to skip most re-evaluations.
//
// The driver is generic over an Oracle so the same loop serves the DP-based
// greedy algorithm, the sampling-based greedy algorithm, the approximate
// (inverted-index) greedy algorithm and the sharded scatter oracle.
//
// Options.Workers spreads gain evaluation over goroutines: plain sweeps and
// the initial CELF sweep are split into contiguous candidate ranges, and
// stale CELF heap entries are re-evaluated in batches of up to one per
// worker. Sweeps go through GainBatch when the oracle is a BatchOracle.
// Selections and gains are bit-for-bit identical for every worker count, and
// so is plain greedy's Evaluations count; CELF's batched refreshes make its
// count depend on Workers. RunStochastic (stochastic.go) is a different
// algorithm and stays separate.
package greedy

import (
	"container/heap"
	"context"
	"fmt"
	"sync"

	"repro/internal/faultinject"
)

// Oracle abstracts an objective over node sets. Gain(u) returns the marginal
// gain of adding candidate u to the oracle's current set; Update(u) commits
// u to the set. Gains must be computed with respect to the committed set.
// For the lazy driver to be correct, Gain must be non-increasing in the
// committed set (submodularity).
type Oracle interface {
	Gain(u int) float64
	Update(u int)
}

// BatchOracle is an Oracle that can evaluate many candidates in one call.
// GainBatch appends Gain(u) for each u in us to out and returns it; the
// values must be bit-for-bit identical to per-candidate Gain calls.
//
// With Workers > 1, Run invokes GainBatch (and Gain) concurrently from
// several goroutines between Update calls, so implementations must make gain
// evaluation a pure read of their committed state — which index.DTable
// satisfies: gains are integer accumulations over an immutable index and a
// D-table that only Update mutates.
type BatchOracle interface {
	Oracle
	GainBatch(us []int, out []float64) []float64
}

// Result reports one greedy selection.
type Result struct {
	// Selected lists the chosen nodes in selection order.
	Selected []int
	// Gains holds the marginal gain recorded when each node was selected,
	// parallel to Selected.
	Gains []float64
	// Evaluations counts Gain calls, the unit the paper's complexity
	// analysis is written in; the lazy/plain ablation compares these.
	Evaluations int
}

// Objective returns the total objective value implied by the recorded gains
// (the telescoping sum of marginals).
func (r *Result) Objective() float64 {
	total := 0.0
	for _, g := range r.Gains {
		total += g
	}
	return total
}

// Pick is one committed greedy round: the node committed in round Round
// (1-based), its recorded marginal gain, and the objective value after the
// round — the running telescoped sum of gains, accumulated in selection
// order so that the last round's Total is bit-for-bit Result.Objective().
type Pick struct {
	Round int
	Node  int
	Gain  float64
	Total float64
}

// Options configures Run. The zero value is plain greedy on one worker.
type Options struct {
	// Lazy selects CELF lazy evaluation instead of the plain per-round scan.
	Lazy bool
	// Workers is the number of goroutines gain evaluation is spread over;
	// values <= 1 mean one, which sweeps inline on the calling goroutine.
	// With more than one the oracle's Gain/GainBatch must be safe for
	// concurrent calls between Updates (see BatchOracle).
	Workers int
	// Observe, when non-nil, is called with each pick immediately after the
	// driver has committed it to the oracle, on the calling goroutine and in
	// selection order. It cannot change what is selected. A non-nil error
	// aborts the run: Run returns that error and no result, leaving the
	// oracle mid-selection.
	Observe func(Pick) error
}

func validate(n, k int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("greedy: no candidates (n=%d)", n)
	}
	if k < 0 {
		return 0, fmt.Errorf("greedy: negative budget k=%d", k)
	}
	if k > n {
		k = n
	}
	return k, nil
}

// cancelCheckStride is how many gain evaluations a driver performs between
// context checks. Cancellation latency is therefore bounded by the cost of
// one stride of evaluations (or one Update), not by a whole round over a
// large candidate set.
const cancelCheckStride = 1024

// Run selects up to k of the candidates 0..n-1 by greedy marginal gain.
// Plain greedy runs k rounds, each evaluating every uncommitted candidate
// (Algorithm 1 verbatim, O(kn) Gain calls). Lazy greedy (CELF) evaluates
// every candidate once and afterwards re-evaluates the top of a max-heap
// only while its cached gain is stale; because gains are non-increasing, a
// fresh top that still dominates every cached gain is optimal for the
// round. Both break gain ties toward the smaller node id, so on a
// submodular oracle they make the same selections.
//
// Run checks ctx every cancelCheckStride evaluations and before every
// commit; once it observes ctx canceled it returns ctx's error and no
// result, and the oracle must be discarded. An oracle that cancels ctx when
// an evaluation fails therefore never has a pick committed over that
// evaluation.
func Run(ctx context.Context, n, k int, oracle Oracle, opts Options) (*Result, error) {
	k, err := validate(n, k)
	if err != nil {
		return nil, err
	}
	workers := max(min(opts.Workers, n), 1)
	shards := shardBounds(n, workers)
	d := &driver{
		ctx:    ctx,
		oracle: oracle,
		opts:   opts,
		res:    &Result{Selected: make([]int, 0, k), Gains: make([]float64, 0, k)},
		shards: shards,
		bufs:   make([][]int, len(shards)),
	}
	if opts.Lazy {
		err = d.lazy(n, k, workers)
	} else {
		err = d.plain(n, k)
	}
	if err != nil {
		return nil, err
	}
	return d.res, nil
}

// driver is the state of one Run.
type driver struct {
	ctx    context.Context
	oracle Oracle
	opts   Options
	res    *Result
	total  float64
	// shards are the contiguous candidate ranges a sweep splits across
	// workers; bufs are their reusable GainBatch id buffers.
	shards [][2]int
	bufs   [][]int
}

// commit applies u to the oracle, records it, and reports it to Observe.
func (d *driver) commit(u int, gain float64) error {
	d.oracle.Update(u)
	d.res.Selected = append(d.res.Selected, u)
	d.res.Gains = append(d.res.Gains, gain)
	d.total += gain
	if d.opts.Observe == nil {
		return nil
	}
	return d.opts.Observe(Pick{Round: len(d.res.Selected), Node: u, Gain: gain, Total: d.total})
}

// plain runs plain greedy: each round sweeps every uncommitted candidate and
// commits the first maximum. The reduction scans ids in ascending order, so
// the pick is the same for every shard layout.
func (d *driver) plain(n, k int) error {
	committed := make([]bool, n)
	gains := make([]float64, n)
	for round := 0; round < k; round++ {
		if err := d.sweep(gains, committed); err != nil {
			return err
		}
		best, bestGain := -1, 0.0
		for u := 0; u < n; u++ {
			if committed[u] {
				continue
			}
			d.res.Evaluations++
			if best == -1 || gains[u] > bestGain {
				best, bestGain = u, gains[u]
			}
		}
		if best == -1 {
			break
		}
		committed[best] = true
		if err := d.commit(best, bestGain); err != nil {
			return err
		}
	}
	return nil
}

// lazy runs CELF. The initial sweep is sharded like a plain sweep; each time
// the heap top is stale, the stale prefix of the heap (up to one entry per
// worker) is re-evaluated concurrently.
//
// Selections are bit-for-bit identical for every worker count: a refreshed
// gain is an exact, order-independent function of the committed set, and a
// candidate is only ever selected when its entry is fresh for the current
// round — at which point it is the unique (gain, smaller-id) lexicographic
// argmax regardless of how many extra entries a batch refreshed along the
// way. Extra refreshes can only tighten cached upper bounds, never change
// them.
func (d *driver) lazy(n, k, workers int) error {
	// The initial sweep is evaluated against the empty set, which is the
	// state of round 1, so the entries are born fresh for the first pick.
	gains := make([]float64, n)
	if err := d.sweep(gains, make([]bool, n)); err != nil {
		return err
	}
	d.res.Evaluations += n
	h := make(celfHeap, 0, n)
	for u := 0; u < n; u++ {
		h = append(h, celfItem{u: int32(u), round: 1, gain: gains[u]})
	}
	heap.Init(&h)

	var wg sync.WaitGroup
	batch := make([]celfItem, 0, workers)
	for round := int32(1); int(round) <= k && h.Len() > 0; {
		// One loop step costs at least a Gain or an Update, so a per-step
		// check keeps cancellation latency bounded.
		faultinject.Delay(faultinject.SiteGreedyStride)
		if err := d.ctx.Err(); err != nil {
			return err
		}
		if h[0].round == round {
			// Fresh this round: by submodularity no other candidate can beat
			// it, so select it.
			top := heap.Pop(&h).(celfItem)
			if err := d.commit(int(top.u), top.gain); err != nil {
				return err
			}
			round++
			continue
		}
		// Pop the stale prefix of the heap, up to one entry per worker. Stop
		// early if a fresh entry surfaces: everything below it in the heap is
		// dominated this round and not worth refreshing.
		batch = batch[:0]
		for len(batch) < workers && h.Len() > 0 && h[0].round != round {
			batch = append(batch, heap.Pop(&h).(celfItem))
		}
		// Entries beyond the first run on spawned goroutines; the first is
		// refreshed inline, so a 1-entry batch (the common CELF case) pays
		// no synchronization at all.
		for b := 1; b < len(batch); b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				batch[b].gain = d.oracle.Gain(int(batch[b].u))
				batch[b].round = round
			}(b)
		}
		batch[0].gain = d.oracle.Gain(int(batch[0].u))
		batch[0].round = round
		wg.Wait()
		d.res.Evaluations += len(batch)
		for _, it := range batch {
			heap.Push(&h, it)
		}
	}
	return nil
}

// sweep evaluates gains[u] for every candidate not yet committed against the
// oracle's current set, one goroutine per shard; a single shard sweeps on
// the calling goroutine. It returns ctx's error if the sweep was cut short.
func (d *driver) sweep(gains []float64, committed []bool) error {
	if len(d.shards) == 1 {
		d.bufs[0] = sweepRange(d.ctx, d.oracle, gains, committed, d.bufs[0], d.shards[0][0], d.shards[0][1])
	} else {
		var wg sync.WaitGroup
		for s, bounds := range d.shards {
			wg.Add(1)
			go func(s, lo, hi int) {
				defer wg.Done()
				d.bufs[s] = sweepRange(d.ctx, d.oracle, gains, committed, d.bufs[s], lo, hi)
			}(s, bounds[0], bounds[1])
		}
		wg.Wait()
	}
	return d.ctx.Err()
}

// sweepRange evaluates gains[u] for the uncommitted candidates u in
// [lo, hi), using GainBatch calls when available. It returns the (possibly
// grown) candidate-id scratch buffer so callers can reuse it across rounds.
//
// The range is processed in cancelCheckStride chunks with a ctx check
// between chunks; on cancellation the remaining gains are left stale, which
// is fine because every caller abandons the round (and the result) once it
// observes ctx canceled after the sweep.
func sweepRange(ctx context.Context, oracle Oracle, gains []float64, committed []bool, us []int, lo, hi int) []int {
	bo, batch := oracle.(BatchOracle)
	for c := lo; c < hi; c += cancelCheckStride {
		// Latency-only fault site (worker goroutine: a panic here would kill
		// the process and an error has no channel) — chaos tests use it to
		// make selections slow enough to pile up against deadlines and the
		// admission gate. One atomic load when no plan is armed.
		faultinject.Delay(faultinject.SiteGreedyStride)
		if ctx.Err() != nil {
			return us
		}
		ch := min(c+cancelCheckStride, hi)
		if !batch {
			for u := c; u < ch; u++ {
				if !committed[u] {
					gains[u] = oracle.Gain(u)
				}
			}
			continue
		}
		us = us[:0]
		for u := c; u < ch; u++ {
			if !committed[u] {
				us = append(us, u)
			}
		}
		if len(us) == 0 {
			continue
		}
		// GainBatch appends into gains[c:c], whose capacity covers [c, ch),
		// so result i lands at c+i. us is ascending with us[i] >= c+i, so
		// spreading the results back to their ids from the end never
		// overwrites a result not yet moved.
		bo.GainBatch(us, gains[c:c])
		for i := len(us) - 1; i >= 0; i-- {
			gains[us[i]] = gains[c+i]
		}
	}
	return us
}

// shardBounds splits [0, n) into at most workers near-equal ranges.
func shardBounds(n, workers int) [][2]int {
	per := (n + workers - 1) / workers
	var out [][2]int
	for lo := 0; lo < n; lo += per {
		out = append(out, [2]int{lo, min(lo+per, n)})
	}
	return out
}

// celfItem is a heap entry: a candidate with the gain observed at the round
// it was last evaluated.
type celfItem struct {
	u     int32
	round int32
	gain  float64
}

type celfHeap []celfItem

func (h celfHeap) Len() int { return len(h) }

// Less orders by gain descending with ties broken toward the smaller node
// id, matching plain greedy's first-maximum rule so the two flavors make
// identical selections and are directly comparable in tests and ablations.
func (h celfHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].u < h[j].u
}
func (h celfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x interface{}) { *h = append(*h, x.(celfItem)) }
func (h *celfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// funcOracle adapts a pair of closures to the Oracle interface.
type funcOracle struct {
	gain   func(u int) float64
	update func(u int)
}

func (o funcOracle) Gain(u int) float64 { return o.gain(u) }
func (o funcOracle) Update(u int)       { o.update(u) }

// OracleFuncs wraps gain/update closures as an Oracle.
func OracleFuncs(gain func(u int) float64, update func(u int)) Oracle {
	return funcOracle{gain: gain, update: update}
}
