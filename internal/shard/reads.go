package shard

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
)

// Gain answers engine.Gain by scattering the node list to every shard and
// summing the integer partial sums: Gains[i] = float64(Σ_s sums_s[i]) / R,
// the exact float64 expression the unsharded engine evaluates, so the reply
// is bit-identical to it.
func (co *Coordinator) Gain(ctx context.Context, req engine.GainRequest) (*engine.GainResult, error) {
	p, prob, err := co.resolveRead(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if err != nil {
		return nil, err
	}
	if len(req.Nodes) == 0 {
		return nil, badRequestf("nodes are required")
	}
	if err := validateSet("nodes", req.Nodes, p.g); err != nil {
		return nil, err
	}
	runCtx, cancel := co.Context(ctx, 0)
	defer cancel()
	sums, _, meta, err := co.mergedGain(runCtx, engine.PartialGainRequest{
		Graph: p.graphName, Problem: prob, L: p.L, Seed: p.seed, Epoch: &p.epoch,
		Set: req.Set, Nodes: req.Nodes,
	}, p.R)
	if err != nil {
		return nil, err
	}
	gains := make([]float64, len(sums))
	for i, s := range sums {
		gains[i] = float64(s) / float64(p.R)
	}
	return &engine.GainResult{
		Gains:       gains,
		IndexCached: meta.indexCached,
		Memo:        meta.memo,
		Degraded:    meta.degraded,
	}, nil
}

// Objective answers engine.Objective by scattering an objective-only
// partial-gain request and merging the integer accumulators, then applying
// the same final float64 expression as DTable.EstimateObjective.
func (co *Coordinator) Objective(ctx context.Context, req engine.ObjectiveRequest) (*engine.ObjectiveResult, error) {
	p, prob, err := co.resolveRead(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := co.Context(ctx, 0)
	defer cancel()
	_, acc, meta, err := co.mergedGain(runCtx, engine.PartialGainRequest{
		Graph: p.graphName, Problem: prob, L: p.L, Seed: p.seed, Epoch: &p.epoch,
		Set: req.Set, WantObjective: true,
	}, p.R)
	if err != nil {
		return nil, err
	}
	avg := float64(acc) / float64(p.R)
	obj := avg
	if prob == index.Problem1 {
		obj = float64(p.g.N())*float64(p.L) - avg
	}
	return &engine.ObjectiveResult{
		Objective:   obj,
		IndexCached: meta.indexCached,
		Memo:        meta.memo,
		Degraded:    meta.degraded,
	}, nil
}

// TopGains answers engine.TopGains in one scatter: every shard returns
// the integer sums of all its candidates (B = n, which workers answer
// Exhausted), the coordinator adds them into a dense per-node vector and
// ranks it with core.TopOfSums. A worker sweep costs O(n·R_s) whatever B
// is, so asking for every sum costs a worker no more than asking for its
// top B, and one round trip settles the merged ranking exactly.
//
// TopOfSums ranks by integer sum descending, ties by ascending id; the
// unsharded engine ranks by float64 gain. The orders agree because
// distinct integer sums stay distinct through the division by R for every
// realizable magnitude (sums are < 2^52: bounded by n·R·L with R ≤ 1000
// and L < 2^16), so the merged ranking is bit-identical to the unsharded
// one.
func (co *Coordinator) TopGains(ctx context.Context, req engine.TopGainsRequest) (*engine.TopGainsResult, error) {
	p, prob, err := co.resolveRead(req.Graph, req.Problem, req.L, req.R, req.Seed, req.Set)
	if err != nil {
		return nil, err
	}
	b := req.B
	if b == 0 {
		b = 10
		if b > co.cfg.MaxK {
			b = co.cfg.MaxK
		}
	}
	if b < 1 || b > co.cfg.MaxK {
		return nil, badRequestf("b=%d outside [1, %d]", req.B, co.cfg.MaxK)
	}
	runCtx, cancel := co.Context(ctx, 0)
	defer cancel()
	start := time.Now()
	n := p.g.N()
	results, err := scatter(runCtx, co, co.split(p.R), func(ctx context.Context, c Conn, sp span) (*engine.PartialTopGainsResult, error) {
		return c.PartialTopGains(ctx, engine.PartialTopGainsRequest{
			Graph: p.graphName, Problem: prob, L: p.L, Seed: p.seed, Epoch: &p.epoch,
			R0: sp.r0, R1: sp.r1, Set: req.Set, B: n, Workers: req.Workers,
		})
	})
	if err != nil {
		return nil, err
	}
	meta := newMergeMeta()
	sums := make([]int64, n)
	for _, r := range results {
		if !r.Exhausted || len(r.Sums) != len(r.Nodes) {
			return nil, &engine.Error{Code: engine.CodeInternal, Message: "shard: worker returned a partial candidate list for b=n"}
		}
		for j, u := range r.Nodes {
			if u < 0 || u >= n {
				return nil, &engine.Error{Code: engine.CodeInternal, Message: fmt.Sprintf("shard: worker returned node %d outside [0, %d)", u, n)}
			}
			sums[u] += r.Sums[j]
		}
		meta.fold(r.IndexCached, r.Memo, r.Degraded)
	}
	exclude := make([]bool, n)
	for _, u := range req.Set {
		exclude[u] = true
	}
	nodes, top := core.TopOfSums(sums, exclude, b)
	gains := make([]float64, len(top))
	for i, s := range top {
		gains[i] = float64(s) / float64(p.R)
	}
	co.noteMerge(start, meta)
	return &engine.TopGainsResult{
		B:           b,
		Nodes:       nodes,
		Gains:       gains,
		IndexCached: meta.indexCached,
		Memo:        meta.memo,
		Degraded:    meta.degraded,
	}, nil
}

// mergedGain scatters one partial-gain request over the replicate split of
// [0, R) and adds the shards' replies: the per-node integer sums (parallel
// to req.Nodes) and the objective accumulator, with the folded metadata.
func (co *Coordinator) mergedGain(ctx context.Context, req engine.PartialGainRequest, R int) ([]int64, int64, mergeMeta, error) {
	start := time.Now()
	results, err := scatter(ctx, co, co.split(R), func(ctx context.Context, c Conn, sp span) (*engine.PartialGainResult, error) {
		r := req
		r.R0, r.R1 = sp.r0, sp.r1
		return c.PartialGain(ctx, r)
	})
	if err != nil {
		return nil, 0, mergeMeta{}, err
	}
	meta := newMergeMeta()
	sums := make([]int64, len(req.Nodes))
	var acc int64
	for _, r := range results {
		for i, s := range r.Sums {
			sums[i] += s
		}
		acc += r.ObjectiveSum
		meta.fold(r.IndexCached, r.Memo, r.Degraded)
	}
	co.noteMerge(start, meta)
	return sums, acc, meta, nil
}

// resolveRead mirrors engine.resolveRead for the coordinator's read surface.
func (co *Coordinator) resolveRead(graph string, problem engine.Problem, L, R int, seed uint64, set []int) (qparams, index.Problem, error) {
	prob, err := resolveProblem(problem)
	if err != nil {
		return qparams{}, 0, err
	}
	p, err := co.resolveParams(graph, L, R, seed)
	if err != nil {
		return qparams{}, 0, err
	}
	if err := validateSet("set", set, p.g); err != nil {
		return qparams{}, 0, err
	}
	return p, prob, nil
}
