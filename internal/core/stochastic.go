package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
)

// ApproxStochastic runs the approximate greedy algorithm with the
// stochastic-greedy driver (Mirzasoleiman et al.): each round evaluates a
// random ⌈(n/k)·ln(1/eps)⌉-subset of candidates against the inverted index.
// Total gain evaluations are O(n·ln(1/eps)) regardless of k, versus CELF's
// O(n) first sweep plus per-round re-evaluations; the guarantee relaxes to
// 1 − 1/e − ε(index) − eps(driver) in expectation. Use when both n and k
// are large.
func ApproxStochastic(g *graph.Graph, opts Options, p index.Problem, eps float64) (*Selection, error) {
	if err := opts.validate(g, true); err != nil {
		return nil, err
	}
	start := time.Now()
	ix, err := index.BuildWorkers(g, opts.L, opts.R, opts.Seed, opts.workers())
	if err != nil {
		return nil, err
	}
	d, err := ix.NewDTable(p)
	if err != nil {
		return nil, err
	}
	build := time.Since(start)
	start = time.Now()
	res, err := greedy.RunStochastic(g.N(), opts.K, dtableOracle{d}, eps, opts.Seed+0x57)
	if err != nil {
		return nil, err
	}
	name := "StochasticF1"
	if p == index.Problem2 {
		name = "StochasticF2"
	}
	return &Selection{
		Algorithm:   name,
		Nodes:       res.Selected,
		Gains:       res.Gains,
		Evaluations: res.Evaluations,
		BuildTime:   build,
		SelectTime:  time.Since(start),
	}, nil
}
