package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
)

// verifier recomputes sampled answers in process, independently of the
// serving stack: the same walk seed and graph epoch, an index built with
// index.BuildWorkers, and the core kernels. Graph epoch e is the base graph
// with the first e deltas of the workload applied.
type verifier struct {
	base   *graph.Graph
	deltas []*op
	graphs map[uint64]*graph.Graph
	refs   map[[2]uint64]*refIndex
	clock  int
}

type refIndex struct {
	ix   *index.Index
	used int
}

// maxRefs bounds the reference indexes held at once; samples are checked
// in epoch order, so an evicted one is rarely needed again.
const maxRefs = 3

func newVerifier(base *graph.Graph, deltas []*op) *verifier {
	return &verifier{base: base, deltas: deltas, graphs: map[uint64]*graph.Graph{0: base},
		refs: map[[2]uint64]*refIndex{}}
}

func (v *verifier) graphAt(epoch uint64) (*graph.Graph, error) {
	if g := v.graphs[epoch]; g != nil {
		return g, nil
	}
	if epoch > uint64(len(v.deltas)) {
		return nil, fmt.Errorf("epoch %d beyond the %d deltas sent", epoch, len(v.deltas))
	}
	prev, err := v.graphAt(epoch - 1)
	if err != nil {
		return nil, err
	}
	g, _, err := prev.ApplyDelta(v.deltas[epoch-1].delta())
	if err != nil {
		return nil, fmt.Errorf("replaying delta %d: %w", epoch, err)
	}
	v.graphs[epoch] = g
	return g, nil
}

func (v *verifier) index(seed, epoch uint64) (*index.Index, error) {
	v.clock++
	key := [2]uint64{seed, epoch}
	if r := v.refs[key]; r != nil {
		r.used = v.clock
		return r.ix, nil
	}
	g, err := v.graphAt(epoch)
	if err != nil {
		return nil, err
	}
	ix, err := index.BuildWorkers(g, walkL, walkR, seed, 0)
	if err != nil {
		return nil, err
	}
	if len(v.refs) >= maxRefs {
		var lru [2]uint64
		for k, r := range v.refs {
			if v.refs[lru] == nil || r.used < v.refs[lru].used {
				lru = k
			}
		}
		delete(v.refs, lru)
	}
	v.refs[key] = &refIndex{ix: ix, used: v.clock}
	return ix, nil
}

// expect computes the reference answer to o on ix.
func expect(ix *index.Index, o *op) (*reply, error) {
	prob := index.Problem(o.problem)
	if o.kind == opSelect {
		sel, err := core.ApproxWithIndexWorkers(ix, prob, o.k, true, 0)
		if err != nil {
			return nil, err
		}
		return &reply{nodes: sel.Nodes, gains: sel.Gains, objective: sel.Objective()}, nil
	}
	if o.kind == opObjective {
		obj, err := objectiveOf(ix, prob, o.set)
		return &reply{objective: obj}, err
	}
	d, err := ix.NewDTable(prob)
	if err != nil {
		return nil, err
	}
	exclude := make([]bool, ix.Graph().N())
	for _, u := range o.set {
		d.Update(u)
		exclude[u] = true
	}
	if o.kind == opGain {
		return &reply{gains: d.GainBatch(o.nodes, nil)}, nil
	}
	nodes, gains, err := core.TopGains(context.Background(), d, o.b, exclude, 0)
	return &reply{nodes: nodes, gains: gains}, err
}

// objectiveOf estimates the objective of set on a fresh table.
func objectiveOf(ix *index.Index, prob index.Problem, set []int) (float64, error) {
	d, err := ix.NewDTable(prob)
	if err != nil {
		return 0, err
	}
	members := make([]bool, ix.Graph().N())
	for _, u := range set {
		members[u] = true
		d.Update(u)
	}
	return d.EstimateObjective(members), nil
}

// same compares two answers bit for bit.
func same(a, b *reply) bool {
	if len(a.nodes) != len(b.nodes) || len(a.gains) != len(b.gains) ||
		math.Float64bits(a.objective) != math.Float64bits(b.objective) {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			return false
		}
	}
	for i := range a.gains {
		if math.Float64bits(a.gains[i]) != math.Float64bits(b.gains[i]) {
			return false
		}
	}
	return true
}

// overlapPerClass is how many replies of each request class that
// overlapped one or more mutations are checked; on a workload with
// mutations as many more that ran at a single epoch are checked beside
// them. Without mutations every sampled reply is checked.
const overlapPerClass = 4

// classCheck counts, for one request class, the replies kept and checked,
// in all and of those that overlapped a mutation.
type classCheck struct {
	Kept           int `json:"kept"`
	Checked        int `json:"checked"`
	KeptOverlap    int `json:"kept_overlapping"`
	CheckedOverlap int `json:"checked_overlapping"`
}

// check verifies the chosen samples of each class. A sample matches when
// its reply equals the reference at one of the epochs it could have run
// at, tried in order; references are built as needed.
func (v *verifier) check(samples []sample) (per map[string]*classCheck, mismatches int, err error) {
	per = map[string]*classCheck{}
	var byClass [numKinds][]sample
	for _, s := range samples {
		byClass[s.o.kind] = append(byClass[s.o.kind], s)
	}
	var chosen []sample
	for k, xs := range byClass {
		if len(xs) == 0 {
			continue
		}
		c := &classCheck{Kept: len(xs)}
		per[opKind(k).String()] = c
		if len(v.deltas) == 0 {
			chosen = append(chosen, xs...)
			continue
		}
		single := 0
		for _, s := range xs {
			switch {
			case s.epochHi > s.epochLo:
				c.KeptOverlap++
				if c.KeptOverlap <= overlapPerClass {
					chosen = append(chosen, s)
				}
			case single < overlapPerClass:
				single++
				chosen = append(chosen, s)
			}
		}
	}
	sort.SliceStable(chosen, func(i, j int) bool {
		a, b := chosen[i], chosen[j]
		if a.epochLo != b.epochLo {
			return a.epochLo < b.epochLo
		}
		return a.o.walkSeed < b.o.walkSeed
	})
	for _, s := range chosen {
		ok := false
		for e := s.epochLo; e <= s.epochHi && !ok; e++ {
			ix, err := v.index(s.o.walkSeed, e)
			if err != nil {
				return per, mismatches, err
			}
			want, err := expect(ix, s.o)
			if err != nil {
				return per, mismatches, err
			}
			ok = same(s.r, want)
		}
		c := per[s.o.kind.String()]
		c.Checked++
		if s.epochHi > s.epochLo {
			c.CheckedOverlap++
		}
		if !ok {
			mismatches++
		}
	}
	return per, mismatches, nil
}
