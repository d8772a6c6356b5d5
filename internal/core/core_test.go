package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/hitting"
	"repro/internal/index"
)

func buildIndexForTest(g *graph.Graph, opts Options) (*index.Index, error) {
	return index.Build(g, opts.L, opts.R, opts.Seed)
}

func optsFor(k, L, R int) Options {
	return Options{K: k, L: L, R: R, Seed: 42}
}

func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.BarabasiAlbert(120, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDPF1SelectsHubOnStar(t *testing.T) {
	// On a star, the hub is unambiguously the best single target for both
	// problems: every leaf hits it in one hop.
	g, _ := graph.Star(20)
	for _, algo := range []func(*graph.Graph, Options) (*Selection, error){DPF1, DPF2} {
		sel, err := algo(g, optsFor(1, 4, 0))
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Nodes) != 1 || sel.Nodes[0] != 0 {
			t.Fatalf("%s selected %v, want [0]", sel.Algorithm, sel.Nodes)
		}
	}
}

func TestApproxSelectsHubOnStar(t *testing.T) {
	g, _ := graph.Star(20)
	for _, algo := range []func(*graph.Graph, Options) (*Selection, error){ApproxF1, ApproxF2} {
		sel, err := algo(g, optsFor(1, 4, 50))
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Nodes) != 1 || sel.Nodes[0] != 0 {
			t.Fatalf("%s selected %v, want [0]", sel.Algorithm, sel.Nodes)
		}
	}
}

func TestDPF1ObjectiveMatchesEvaluator(t *testing.T) {
	// The telescoped gains must equal the exact objective of the final set.
	g := smallGraph(t)
	const L = 5
	sel, err := DPF1(g, optsFor(6, L, 0))
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := hitting.NewEvaluator(g, L)
	exact, _ := ev.F1(sel.Nodes)
	if math.Abs(sel.Objective()-exact) > 1e-6 {
		t.Fatalf("telescoped objective %v != exact F1 %v", sel.Objective(), exact)
	}
}

func TestDPF2ObjectiveMatchesEvaluator(t *testing.T) {
	g := smallGraph(t)
	const L = 5
	sel, err := DPF2(g, optsFor(6, L, 0))
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := hitting.NewEvaluator(g, L)
	exact, _ := ev.F2(sel.Nodes)
	if math.Abs(sel.Objective()-exact) > 1e-6 {
		t.Fatalf("telescoped objective %v != exact F2 %v", sel.Objective(), exact)
	}
}

func TestLazyDPMatchesPlainDP(t *testing.T) {
	// CELF is exact for the DP oracle (true submodular gains), so both
	// drivers must return identical selections under identical tie-breaks.
	g := smallGraph(t)
	opts := optsFor(5, 4, 0)
	plain, err := DPF1(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Lazy = true
	lazy, err := DPF1(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Nodes) != len(lazy.Nodes) {
		t.Fatalf("lengths differ: %v vs %v", plain.Nodes, lazy.Nodes)
	}
	for i := range plain.Nodes {
		if plain.Nodes[i] != lazy.Nodes[i] {
			t.Fatalf("selections differ: %v vs %v", plain.Nodes, lazy.Nodes)
		}
	}
	if lazy.Evaluations >= plain.Evaluations {
		t.Fatalf("lazy evaluations %d not fewer than plain %d", lazy.Evaluations, plain.Evaluations)
	}
}

func TestLazyApproxMatchesPlainApprox(t *testing.T) {
	// The index oracle's gains are submodular sample-by-sample, so CELF is
	// exact for the approximate algorithm too: identical selections, fewer
	// evaluations.
	g := smallGraph(t)
	opts := optsFor(8, 5, 120)
	plain, err := ApproxF1(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	lazyOpts := opts
	lazyOpts.Lazy = true
	lazy, err := ApproxF1(g, lazyOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Nodes {
		if plain.Nodes[i] != lazy.Nodes[i] {
			t.Fatalf("selections differ: %v vs %v", plain.Nodes, lazy.Nodes)
		}
	}
	if lazy.Evaluations >= plain.Evaluations {
		t.Fatalf("lazy evals %d not fewer than plain %d", lazy.Evaluations, plain.Evaluations)
	}
}

// approxQuality asserts the paper's central effectiveness claim (Figs 2, 3):
// the approximate greedy solution's exact objective value is within a few
// percent of the DP greedy solution's.
func TestApproxF1TracksDPF1(t *testing.T) {
	g := smallGraph(t)
	const L, k = 5, 8
	dp, err := DPF1(g, optsFor(k, L, 0))
	if err != nil {
		t.Fatal(err)
	}
	ap, err := ApproxF1(g, optsFor(k, L, 200))
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := hitting.NewEvaluator(g, L)
	dpVal, _ := ev.F1(dp.Nodes)
	apVal, _ := ev.F1(ap.Nodes)
	if apVal < 0.93*dpVal {
		t.Fatalf("ApproxF1 exact value %v below 93%% of DPF1 value %v", apVal, dpVal)
	}
}

func TestApproxF2TracksDPF2(t *testing.T) {
	g := smallGraph(t)
	const L, k = 5, 8
	dp, err := DPF2(g, optsFor(k, L, 0))
	if err != nil {
		t.Fatal(err)
	}
	ap, err := ApproxF2(g, optsFor(k, L, 200))
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := hitting.NewEvaluator(g, L)
	dpVal, _ := ev.F2(dp.Nodes)
	apVal, _ := ev.F2(ap.Nodes)
	if apVal < 0.93*dpVal {
		t.Fatalf("ApproxF2 exact value %v below 93%% of DPF2 value %v", apVal, dpVal)
	}
}

func TestSampleGreedyTracksDP(t *testing.T) {
	// The intermediate sampling-based greedy should also track DP closely.
	g, _ := graph.BarabasiAlbert(60, 2, 9)
	const L, k = 4, 4
	dp, err := DPF1(g, optsFor(k, L, 0))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SampleF1(g, optsFor(k, L, 120))
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := hitting.NewEvaluator(g, L)
	dpVal, _ := ev.F1(dp.Nodes)
	spVal, _ := ev.F1(sp.Nodes)
	if spVal < 0.9*dpVal {
		t.Fatalf("SampleF1 exact value %v below 90%% of DPF1 value %v", spVal, dpVal)
	}
	sp2, err := SampleF2(g, optsFor(k, L, 120))
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := DPF2(g, optsFor(k, L, 0))
	if err != nil {
		t.Fatal(err)
	}
	dp2Val, _ := ev.F2(dp2.Nodes)
	sp2Val, _ := ev.F2(sp2.Nodes)
	if sp2Val < 0.9*dp2Val {
		t.Fatalf("SampleF2 exact value %v below 90%% of DPF2 value %v", sp2Val, dp2Val)
	}
}

func TestGreedyBeatsBaselines(t *testing.T) {
	// Figs 6/7: ApproxF1/ApproxF2 outperform Degree and Dominate on both
	// metrics on power-law graphs. At modest k the gap is already visible.
	g, err := graph.BarabasiAlbert(400, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	const L, k, R = 6, 20, 150
	ev, _ := hitting.NewEvaluator(g, L)

	ap1, err := ApproxF1(g, optsFor(k, L, R))
	if err != nil {
		t.Fatal(err)
	}
	ap2, err := ApproxF2(g, optsFor(k, L, R))
	if err != nil {
		t.Fatal(err)
	}
	deg, err := Degree(g, k)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := Dominate(g, k)
	if err != nil {
		t.Fatal(err)
	}

	ahtAp, _ := ev.AverageHittingTime(ap1.Nodes)
	ahtDeg, _ := ev.AverageHittingTime(deg.Nodes)
	ahtDom, _ := ev.AverageHittingTime(dom.Nodes)
	if ahtAp > ahtDeg || ahtAp > ahtDom {
		t.Errorf("AHT: ApproxF1 %v should beat Degree %v and Dominate %v", ahtAp, ahtDeg, ahtDom)
	}
	ehnAp, _ := ev.F2(ap2.Nodes)
	ehnDeg, _ := ev.F2(deg.Nodes)
	ehnDom, _ := ev.F2(dom.Nodes)
	if ehnAp < ehnDeg || ehnAp < ehnDom {
		t.Errorf("EHN: ApproxF2 %v should beat Degree %v and Dominate %v", ehnAp, ehnDeg, ehnDom)
	}
}

func TestSelectionPrefixProperty(t *testing.T) {
	// Greedy selections for smaller k are prefixes of larger-k runs with the
	// same parameters — the experiments rely on this to sweep k cheaply.
	g := smallGraph(t)
	a, err := ApproxF1(g, optsFor(4, 5, 100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ApproxF1(g, optsFor(8, 5, 100))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("prefix property broken: %v vs %v", a.Nodes, b.Nodes)
		}
	}
}

func TestDegreeBaseline(t *testing.T) {
	g, _ := graph.Star(10)
	sel, err := Degree(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Nodes[0] != 0 {
		t.Fatalf("Degree first pick %d, want hub 0", sel.Nodes[0])
	}
	if sel.Gains[0] != 9 {
		t.Fatalf("Degree hub gain %v, want 9", sel.Gains[0])
	}
}

func TestDominateBaseline(t *testing.T) {
	// Two disjoint stars: Dominate must pick both hubs first.
	b := graph.NewBuilder(12, graph.Undirected)
	for i := 1; i <= 5; i++ {
		b.AddEdge(0, i)
	}
	for i := 7; i <= 11; i++ {
		b.AddEdge(6, i)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Dominate(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{sel.Nodes[0]: true, sel.Nodes[1]: true}
	if !got[0] || !got[6] {
		t.Fatalf("Dominate selected %v, want the two hubs {0, 6}", sel.Nodes)
	}
}

func TestCoreBaseline(t *testing.T) {
	// Triangle (core 2) plus big star (core 1): Core picks the triangle.
	b := graph.NewBuilder(10, graph.Undirected)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	for leaf := 4; leaf < 10; leaf++ {
		b.AddEdge(3, leaf)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Core(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 1: true, 2: true}
	for _, u := range sel.Nodes {
		if !want[u] {
			t.Fatalf("Core selected %v, want triangle", sel.Nodes)
		}
	}
	if sel.Gains[0] != 2 {
		t.Fatalf("Core gain %v, want core number 2", sel.Gains[0])
	}
	if _, err := Core(nil, 1); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Core(g, -1); err == nil {
		t.Error("negative k accepted")
	}
}

func TestKClampAndZero(t *testing.T) {
	g, _ := graph.Path(5)
	sel, err := ApproxF1(g, optsFor(100, 3, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Nodes) != 5 {
		t.Fatalf("k>n should clamp to n: got %d", len(sel.Nodes))
	}
	sel, err = DPF1(g, optsFor(0, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Nodes) != 0 {
		t.Fatalf("k=0 selected %v", sel.Nodes)
	}
}

func TestOptionValidation(t *testing.T) {
	g, _ := graph.Path(3)
	if _, err := DPF1(nil, optsFor(1, 2, 0)); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := DPF1(g, Options{K: -1, L: 2}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := DPF1(g, Options{K: 1, L: -2}); err == nil {
		t.Error("negative L accepted")
	}
	if _, err := ApproxF1(g, Options{K: 1, L: 2, R: 0}); err == nil {
		t.Error("R=0 accepted for approximate algorithm")
	}
	if _, err := SampleF1(g, Options{K: 1, L: 2, R: 0}); err == nil {
		t.Error("R=0 accepted for sampling algorithm")
	}
	if _, err := Degree(g, -1); err == nil {
		t.Error("Degree negative k accepted")
	}
	if _, err := Dominate(g, -1); err == nil {
		t.Error("Dominate negative k accepted")
	}
	if _, err := Degree(nil, 1); err == nil {
		t.Error("Degree nil graph accepted")
	}
	if _, err := Dominate(nil, 1); err == nil {
		t.Error("Dominate nil graph accepted")
	}
}

func TestSelectionString(t *testing.T) {
	g, _ := graph.Star(5)
	sel, _ := Degree(g, 2)
	if s := sel.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := smallGraph(t)
	a, _ := ApproxF1(g, optsFor(5, 4, 80))
	b, _ := ApproxF1(g, optsFor(5, 4, 80))
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("same seed, different selections: %v vs %v", a.Nodes, b.Nodes)
		}
	}
}

func TestApproxWithIndexReuse(t *testing.T) {
	// Sharing one index across both problems and several budgets.
	g := smallGraph(t)
	opts := optsFor(6, 5, 100)
	full, err := ApproxF1(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := buildIndexForTest(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaIx, err := ApproxWithIndex(context.Background(), ix, 1, opts.K, greedy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Nodes {
		if full.Nodes[i] != viaIx.Nodes[i] {
			t.Fatalf("index reuse changed selection: %v vs %v", full.Nodes, viaIx.Nodes)
		}
	}
	if _, err := ApproxWithIndex(context.Background(), ix, 2, -1, greedy.Options{}); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := ApproxWithIndex(context.Background(), ix, 9, 3, greedy.Options{}); err == nil {
		t.Error("invalid problem accepted")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Algorithms must run on disconnected graphs; with k=2 the two
	// components' hubs are the right picks for F2.
	b := graph.NewBuilder(14, graph.Undirected)
	for i := 1; i <= 6; i++ {
		b.AddEdge(0, i)
	}
	for i := 8; i <= 13; i++ {
		b.AddEdge(7, i)
	}
	g, _ := b.Build()
	sel, err := DPF2(g, optsFor(2, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{sel.Nodes[0]: true, sel.Nodes[1]: true}
	if !got[0] || !got[7] {
		t.Fatalf("selected %v, want hubs {0,7}", sel.Nodes)
	}
}
