package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
)

// This file is the engine's mutation entrypoint: ApplyDelta applies an edge
// delta to a served graph, bumps its mutation epoch, and repairs the
// resident walk indexes incrementally instead of dropping them for full
// rebuilds. The mutation path is the only writer of the engine's graphs
// map; the whole stale-state story hangs on two mechanisms acting together:
//
//   - The epoch rides in every derived identity. resolveParams snapshots
//     (graph, epoch) atomically under the graphs RLock, and the epoch flows
//     from params into the index cache key, the spill path, the
//     singleflight selection key and the memo key — so a request resolved
//     before a mutation computes consistently against the pre-mutation
//     graph, and a request resolved after can never hit a pre-mutation
//     artifact.
//
//   - Resident indexes are detached, repaired copy-on-write, and the
//     successors adopted under the post-mutation key. Cache.DetachGraph
//     removes every resident index of the graph, pinned or not; each
//     current-epoch index yields a successor (internal/index.Repaired
//     regenerates only the walk rows the delta touched and never writes
//     memory the original can read), so in-flight readers finish on their
//     untouched pre-mutation instance while the next read hits the
//     successor. Indexes built from explicit walks or left at an older
//     epoch are dropped. Every memoized D-table of the graph keyed at an
//     older epoch is invalidated — including tables a late reader
//     populated after an earlier delta had already displaced its index —
//     so no superseded instance stays pinned by the memo.

// ApplyDeltaRequest asks for a graph mutation. Graph may be empty when the
// engine serves exactly one graph.
type ApplyDeltaRequest struct {
	Graph string
	// Delta is the mutation: nodes to append, edges to add, edges to
	// remove. Validation is all-or-nothing (graph.ApplyDelta).
	Delta graph.Delta
	// BaseEpoch, when non-nil, makes the mutation conditional: it applies
	// only if the graph's current epoch still equals *BaseEpoch, failing
	// with CodeConflict otherwise. This is optimistic concurrency for
	// read-modify-write callers; unconditional mutations leave it nil.
	BaseEpoch *uint64
}

// ApplyDeltaResult reports one applied mutation.
type ApplyDeltaResult struct {
	// Epoch is the graph's new mutation epoch (monotone, one per applied
	// delta). Readers that pin this epoch are guaranteed post-mutation
	// answers; shard coordinators broadcast it to their workers.
	Epoch uint64
	// Nodes and Edges are the post-mutation graph dimensions.
	Nodes int
	Edges int
	// Touched is the number of nodes whose adjacency the delta changed.
	Touched int
	// IndexesRepaired counts resident walk indexes carried across the
	// mutation by copy-on-write repair, whether or not a read held them;
	// IndexesDropped the resident indexes that could not be (built from
	// explicit walks, or at an older epoch) and will rebuild on next use.
	IndexesRepaired int
	IndexesDropped  int
	// MemosDropped counts memoized D-tables of the graph invalidated
	// because they are keyed at a pre-mutation epoch.
	MemosDropped int
}

// ApplyDelta applies a delta to the named graph. The mutation is
// copy-on-write — in-flight requests that already resolved their graph
// snapshot finish against the pre-mutation state, bit-identically — and
// serialized: concurrent ApplyDeltas are ordered by the engine, each
// observing its predecessor's epoch. Structural conflicts (adding an edge
// that exists, removing one that doesn't, a stale BaseEpoch) fail with
// CodeConflict and apply nothing.
//
// Resident walk indexes for the graph are repaired copy-on-write (cost
// proportional to the delta's affected-walk population plus one copy of
// the n·R row tables), pinned or not, so a mutation on a warm engine keeps
// it warm.
//
// ctx is accepted for surface symmetry with the rest of the public API but
// not consulted: an admitted mutation is quick (no walk sampling beyond the
// affected rows) and must be all-or-nothing — aborting halfway would leave
// caches and graph out of step.
func (e *Engine) ApplyDelta(ctx context.Context, req ApplyDeltaRequest) (*ApplyDeltaResult, error) {
	name := e.soleGraphName(req.Graph)
	if req.Delta.Empty() {
		return nil, badRequestf("empty delta")
	}

	e.graphsMu.Lock()
	defer e.graphsMu.Unlock()

	g, ok := e.graphs[name]
	if !ok {
		return nil, &Error{Code: CodeNotFound, Message: fmt.Sprintf("unknown graph %q", name)}
	}
	if req.BaseEpoch != nil && *req.BaseEpoch != g.Epoch() {
		return nil, &Error{
			Code:    CodeConflict,
			Message: fmt.Sprintf("graph %q is at epoch %d, request expected %d", name, g.Epoch(), *req.BaseEpoch),
		}
	}
	ng, touched, err := g.ApplyDelta(req.Delta)
	if err != nil {
		if errors.Is(err, graph.ErrEdgeExists) || errors.Is(err, graph.ErrEdgeMissing) {
			return nil, &Error{Code: CodeConflict, Message: err.Error(), cause: err}
		}
		return nil, &Error{Code: CodeBadRequest, Message: err.Error(), cause: err}
	}

	res := &ApplyDeltaResult{
		Epoch:   ng.Epoch(),
		Nodes:   ng.N(),
		Edges:   ng.M(),
		Touched: len(touched),
	}

	// Displace every resident index for this graph. Each current-epoch
	// index yields a copy-on-write successor adopted under the
	// post-mutation key; readers still holding the original finish on it.
	// Everything else (walk-adopted, older-epoch stragglers) is dropped and
	// rebuilds on next use.
	if e.memo != nil {
		res.MemosDropped = e.memo.dropGraphBefore(name, ng.Epoch())
	}
	for _, d := range e.cache.DetachGraph(name) {
		if d.Key.Epoch == g.Epoch() {
			if s, err := d.Value.Repaired(ng, touched); err == nil {
				key := d.Key
				key.Epoch = ng.Epoch()
				if e.cache.Adopt(key, s) == nil {
					res.IndexesRepaired++
					continue
				}
			}
		}
		res.IndexesDropped++
	}

	e.graphs[name] = ng
	return res, nil
}

// epochGuard rejects a read pinned to an epoch the graph has moved past
// (or hasn't reached — a laggard worker behind a coordinator that already
// mutated must not answer from pre-mutation state either). Shard scatters
// carry the coordinator's epoch so a mid-round mutation surfaces as a
// typed retryable CodeStaleEpoch instead of a silently mixed-epoch merge.
func epochGuard(p params, want *uint64) error {
	if want == nil || *want == p.epoch {
		return nil
	}
	return &Error{
		Code:    CodeStaleEpoch,
		Message: fmt.Sprintf("graph %q is at epoch %d, request pinned epoch %d", p.graphName, p.epoch, *want),
	}
}
