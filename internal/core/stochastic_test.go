package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/index"
)

func hittingEval(g *graph.Graph, L int) (*hitting.Evaluator, error) {
	return hitting.NewEvaluator(g, L)
}

func TestApproxStochasticQuality(t *testing.T) {
	// Stochastic greedy over the index should land close to full approx
	// greedy on the exact objective.
	g, err := graph.BarabasiAlbert(300, 3, 23)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 10, L: 5, R: 100, Seed: 6}
	full, err := ApproxF2(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ApproxStochastic(g, opts, index.Problem2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 10 {
		t.Fatalf("stochastic selected %d nodes", len(st.Nodes))
	}
	evFull := exactF2(t, g, 5, full.Nodes)
	evSt := exactF2(t, g, 5, st.Nodes)
	if evSt < 0.92*evFull {
		t.Fatalf("stochastic exact F2 %v below 92%% of full approx %v", evSt, evFull)
	}
}

func TestApproxStochasticValidation(t *testing.T) {
	g, _ := graph.Path(5)
	if _, err := ApproxStochastic(g, Options{K: 1, L: 2, R: 10}, index.Problem1, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := ApproxStochastic(g, Options{K: 1, L: 2, R: 0}, index.Problem1, 0.1); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := ApproxStochastic(g, Options{K: 1, L: 2, R: 10}, index.Problem(9), 0.1); err == nil {
		t.Error("bad problem accepted")
	}
}

func exactF2(t *testing.T, g *graph.Graph, L int, S []int) float64 {
	t.Helper()
	ev, err := hittingEval(g, L)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ev.F2(S)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
