package rwdom

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

func TestSelectStochasticFacade(t *testing.T) {
	g := testGraph(t)
	sel, err := SelectStochastic(g, Options{K: 5, L: 4, R: 50, Seed: 3}, Problem2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Nodes) != 5 {
		t.Fatalf("stochastic selected %d nodes", len(sel.Nodes))
	}
	// Defaulted R path.
	sel, err = SelectStochastic(g, Options{K: 3, L: 4, Seed: 3}, Problem1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Nodes) != 3 {
		t.Fatal("stochastic with defaulted R failed")
	}
	if _, err := SelectStochastic(nil, Options{K: 1, L: 2}, Problem1, 0.1); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := SelectStochastic(g, Options{K: 1, L: 2, R: 10}, Problem1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestIndexSaveLoadFacade(t *testing.T) {
	g := testGraph(t)
	ix, err := BuildIndexParallel(g, 4, 30, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.bin")
	if err := ix.SaveStore(path, true); err != nil {
		t.Fatal(err)
	}
	back, err := LoadIndexFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	selectAdopted := func(adopted *Index) *Selection {
		t.Helper()
		en, err := Open(g)
		if err != nil {
			t.Fatal(err)
		}
		defer en.Close()
		if err := en.AdoptIndex(adopted); err != nil {
			t.Fatal(err)
		}
		res, err := en.Select(context.Background(), SelectRequest{Problem: Problem1, K: 4, L: 4, R: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return &Selection{Nodes: res.Nodes, Gains: res.Gains}
	}
	a, b := selectAdopted(ix), selectAdopted(back)
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("loaded index gives different selection")
		}
	}
	// Wrong graph rejected.
	other, _ := GeneratePowerLaw(300, 1500, 77)
	if _, err := LoadIndexFile(path, other); err == nil {
		t.Error("index loaded against wrong graph")
	}
}

func TestSimulatorFacade(t *testing.T) {
	g, _ := GenerateBarabasiAlbert(100, 2, 4)
	sel, err := Solve(g, Problem2, Options{K: 5, L: 5, R: 50, Algorithm: AlgorithmApprox})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(g, sel.Nodes, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.RunAll(20)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sessions == 0 || out.DiscoveryRate() <= 0 {
		t.Fatalf("implausible outcome %+v", out)
	}
	// Simulated mean latency close to exact AHT.
	m, _ := EvaluateExact(g, sel.Nodes, 5)
	if diff := out.MeanLatency - m.AHT; diff > 0.3 || diff < -0.3 {
		t.Fatalf("simulated latency %v vs exact AHT %v", out.MeanLatency, m.AHT)
	}
}

func TestCompareSelectionsFacade(t *testing.T) {
	g, _ := GenerateBarabasiAlbert(100, 2, 4)
	outs, err := CompareSelections(g, 4, 1, 10, map[string][]int{
		"a": {0, 1},
		"b": {50, 51},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs["a"] == nil || outs["b"] == nil {
		t.Fatalf("outcomes %v", outs)
	}
}

func TestAnalyzeGraphFacade(t *testing.T) {
	g, err := LoadDataset("CAGrQc", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Nodes != g.N() {
		t.Fatalf("analysis nodes %d", a.Stats.Nodes)
	}
	if a.GlobalClustering <= 0 || a.LocalClustering <= 0 {
		t.Fatalf("community stand-in should have positive clustering: %+v", a)
	}
	if a.Top1pctDegreeCut <= 0 {
		t.Fatalf("degree cut %d", a.Top1pctDegreeCut)
	}
}

// TestEngineApplyDeltaFacade drives the mutation surface through the public
// API, unsharded and sharded: a mutated warm Engine must answer selections
// bit-identically to a fresh Engine opened over the already-mutated graph,
// and the mutation-specific error codes must surface typed.
func TestEngineApplyDeltaFacade(t *testing.T) {
	g := testGraph(t)
	u := 0
	for g.Degree(u) == 0 {
		u++
	}
	v := int(g.Neighbors(u)[0])
	d := Delta{AddNodes: 1, AddEdges: []Edge{{U: g.N(), V: u}}, RemoveEdges: []Edge{{U: u, V: v}}}
	mutated, _, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := SelectRequest{Problem: Problem2, K: 5, L: 4, R: 40, Seed: 11}

	for _, shards := range []int{0, 2} {
		var opts []Option
		if shards > 1 {
			opts = append(opts, WithShards(shards))
		}
		en, err := Open(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer en.Close()
		if _, err := en.Select(ctx, req); err != nil { // warm the index
			t.Fatal(err)
		}
		res, err := en.ApplyDelta(ctx, ApplyDeltaRequest{Delta: d})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Epoch != 1 || res.Nodes != g.N()+1 {
			t.Fatalf("shards=%d: mutation result %+v", shards, res)
		}

		ref, err := Open(mutated, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		got, err := en.Select(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Select(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Nodes {
			if got.Nodes[i] != want.Nodes[i] || math.Float64bits(got.Gains[i]) != math.Float64bits(want.Gains[i]) {
				t.Fatalf("shards=%d: post-mutation selection diverges at %d: %d/%v want %d/%v",
					shards, i, got.Nodes[i], got.Gains[i], want.Nodes[i], want.Gains[i])
			}
		}

		// Typed conflicts: re-removing the removed edge, and a stale epoch pin.
		_, err = en.ApplyDelta(ctx, ApplyDeltaRequest{Delta: Delta{RemoveEdges: []Edge{{U: u, V: v}}}})
		if ErrorCodeOf(err) != ErrConflict {
			t.Fatalf("shards=%d: removing a missing edge: code %q, want %q", shards, ErrorCodeOf(err), ErrConflict)
		}
		stale := uint64(0)
		_, err = en.ApplyDelta(ctx, ApplyDeltaRequest{Delta: d, BaseEpoch: &stale})
		if ErrorCodeOf(err) != ErrConflict {
			t.Fatalf("shards=%d: stale BaseEpoch: code %q, want %q", shards, ErrorCodeOf(err), ErrConflict)
		}
	}
}
