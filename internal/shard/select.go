package shard

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/greedy"
)

// Select runs one top-K selection with the engine's own greedy driver,
// greedy.Run — CELF for Lazy, the per-round sweep of the uncommitted
// candidates for Plain — over a scatterOracle, whose every gain evaluation
// is one scatter-gather of the shards' integer partial sums.
// The committed set grows one pick per round, and each worker serves a
// round's set from its memo, extending the longest cached prefix of the
// sorted set, so every later evaluation in the round is a memo hit.
//
// Selections — Nodes, Gains, the telescoped Objective and Evaluations — are
// bit-identical to the unsharded engine for both strategies and every
// worker count: the driver is the same code, fed the same float64 gain
// values (merged integer sums divided once by R) and resolving Workers the
// same way.
func (co *Coordinator) Select(ctx context.Context, req engine.SelectRequest) (*engine.SelectResult, error) {
	return co.selectRun(ctx, req, nil)
}

// SelectStream is Select that emits each round's pick as it is decided,
// mirroring engine.SelectStream: emit runs on the calling goroutine in
// round order, and a non-nil emit error aborts the run.
func (co *Coordinator) SelectStream(ctx context.Context, req engine.SelectRequest, emit func(engine.Round) error) (*engine.SelectResult, error) {
	return co.selectRun(ctx, req, emit)
}

func (co *Coordinator) selectRun(ctx context.Context, req engine.SelectRequest, emit func(engine.Round) error) (*engine.SelectResult, error) {
	prob, err := resolveProblem(req.Problem)
	if err != nil {
		return nil, err
	}
	p, err := co.resolveParams(req.Graph, req.L, req.R, req.Seed)
	if err != nil {
		return nil, err
	}
	if req.K < 0 || req.K > co.cfg.MaxK {
		return nil, badRequestf("k=%d outside [0, %d]", req.K, co.cfg.MaxK)
	}
	if req.Epsilon != 0 || req.Delta != 0 {
		// The adaptive stopping rule samples per-replicate gains over the
		// full replicate range; no shard holds it, so the knob cannot be
		// honored here.
		return nil, &engine.Error{Code: engine.CodeUnsupported,
			Message: "accuracy (epsilon/delta) is not supported on sharded deployments"}
	}
	runCtx, cancel := co.Context(ctx, req.Timeout)
	defer cancel()

	o := &scatterOracle{
		co: co, ctx: runCtx, cancel: cancel, r: p.R, indexCached: true,
		base: engine.PartialGainRequest{
			Graph: p.graphName, Problem: prob, L: p.L, Seed: p.seed, Epoch: &p.epoch,
			Set: make([]int, 0, req.K),
		},
	}
	lazy := req.Strategy != engine.Plain
	workers := resolveWorkers(req.Workers)
	opts := greedy.Options{Lazy: lazy, Workers: workers}
	if emit != nil {
		// A failed scatter cancels runCtx, and greedy.Run checks its
		// context before every commit, so no pick made over a failed
		// scatter's placeholder gains reaches emit.
		opts.Observe = func(pk greedy.Pick) error {
			return emit(engine.Round{Round: pk.Round, Node: pk.Node, Gain: pk.Gain, Objective: pk.Total})
		}
	}
	start := time.Now()
	sel, err := greedy.Run(runCtx, p.g.N(), req.K, o, opts)
	if ferr := o.failed(); ferr != nil {
		return nil, ferr
	}
	if err != nil {
		if runCtx.Err() != nil {
			return nil, wrapCtx(runCtx.Err())
		}
		return nil, err
	}
	return &engine.SelectResult{
		Nodes:       sel.Selected,
		Gains:       sel.Gains,
		Evaluations: sel.Evaluations,
		L:           p.L, R: p.R,
		Workers:     workers,
		Lazy:        lazy,
		Select:      time.Since(start),
		IndexCached: o.indexCached,
	}, nil
}

// resolveWorkers resolves a request's Workers the way engine.Config's
// defaults do (DefaultWorkers and MaxWorkers are both GOMAXPROCS), so CELF's
// re-evaluation batches — and with them Evaluations — match the unsharded
// engine's.
func resolveWorkers(workers int) int {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > procs {
		return procs
	}
	return workers
}

// scatterOracle is the greedy.BatchOracle a sharded selection runs on.
// GainBatch is one scatter of the committed set and the candidates; the
// shards' exact int64 sums are added and divided once by R, the unsharded
// engine's float64 expression. Update appends to the committed set.
//
// Oracle has no error return, so the first scatter error is recorded and
// the run's context canceled: the driver stops at its next context check,
// before committing another pick, and the selection returns the recorded
// error instead of the context's.
//
// GainBatch holds mu across its scatter, so one scatter is in flight at a
// time. The driver's goroutines exist to spread CPU-bound evaluation over
// cores; here evaluation runs on the workers, and each scatter already
// calls every shard in parallel. Serializing keeps each shard's calls one
// at a time and in order, as on the read path, so a worker shedding a
// burst exhausts one call's retry budget instead of splitting the burst
// across concurrent calls.
type scatterOracle struct {
	co     *Coordinator
	ctx    context.Context
	cancel context.CancelFunc
	r      int

	mu sync.Mutex
	// base carries the committed set; greedy.Run calls Update only between
	// sweeps, when no GainBatch is running.
	base        engine.PartialGainRequest
	err         error
	indexCached bool
}

func (o *scatterOracle) Gain(u int) float64 { return o.GainBatch([]int{u}, nil)[0] }

func (o *scatterOracle) Update(u int) { o.base.Set = append(o.base.Set, u) }

func (o *scatterOracle) GainBatch(us []int, out []float64) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var sums []int64
	if o.err == nil {
		req := o.base
		req.Nodes = us
		var meta mergeMeta
		var err error
		sums, _, meta, err = o.co.mergedGain(o.ctx, req, o.r)
		if err != nil {
			o.err = err
			o.cancel()
		}
		o.indexCached = o.indexCached && meta.indexCached
	}
	for i := range us {
		g := 0.0
		if sums != nil {
			g = float64(sums[i]) / float64(o.r)
		}
		out = append(out, g)
	}
	return out
}

// failed returns the recorded scatter error, if any.
func (o *scatterOracle) failed() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}
