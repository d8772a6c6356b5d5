package index

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// BenchmarkIncrementalRepair measures Repair proper (the graph-side
// ApplyDelta copy runs outside the timer) along the two axes of the claim
// "repair cost scales with the delta, not the graph": the delta axis grows
// the toggled-edge batch on a fixed graph, the graph axis grows the graph
// under a fixed batch. Each iteration toggles the same k edges (remove on
// even epochs, re-add on odd), so every iteration disturbs the same walk
// population; one warm-up toggle before the timer pays the one-off
// compact→patched transition. Contrast with BenchmarkIncrementalRepair/
// rebuild, which pays the full nRL build a repair avoids.
//
// The graph is Erdős–Rényi with fixed average degree, where each node is
// visited by ≈ R·L walks regardless of n, so the affected-walk population
// per toggled edge is n-independent and the axes isolate the algorithm. (On
// a scale-free graph, toggling a hub edge is intrinsically expensive: the
// affected population is every walk that traverses the hub, which grows
// with the graph — that cost is the workload's, not the repair's.)
func BenchmarkIncrementalRepair(b *testing.B) {
	const L, R, seed = 8, 8, 42

	spreadEdges := func(g *graph.Graph, k int) []graph.Edge {
		total := g.M()
		if total < k {
			b.Fatalf("graph has only %d edges, need %d", total, k)
		}
		stride := total / k
		edges := make([]graph.Edge, 0, k)
		i := 0
		g.Edges(func(u, v int, w float64) bool {
			if i%stride == 0 && len(edges) < k {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
			i++
			return len(edges) < k
		})
		return edges
	}

	repairLoop := func(b *testing.B, n, k int) {
		g, err := graph.ErdosRenyi(n, 4*n, 1)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := Build(g, L, R, seed)
		if err != nil {
			b.Fatal(err)
		}
		edges := spreadEdges(g, k)
		present := true
		toggle := func() (*graph.Graph, []int) {
			var d graph.Delta
			if present {
				d = graph.Delta{RemoveEdges: edges}
			} else {
				d = graph.Delta{AddEdges: edges}
			}
			present = !present
			ng, touched, err := g.ApplyDelta(d)
			if err != nil {
				b.Fatal(err)
			}
			return ng, touched
		}
		ng, touched := toggle()
		if err := ix.Repair(ng, touched); err != nil { // warm up: enter patched layout
			b.Fatal(err)
		}
		g = ng
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ng, touched := toggle()
			b.StartTimer()
			if err := ix.Repair(ng, touched); err != nil {
				b.Fatal(err)
			}
			g = ng
		}
	}

	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("delta/n=20000/k=%d", k), func(b *testing.B) { repairLoop(b, 20000, k) })
	}
	for _, n := range []int{5000, 20000, 80000} {
		b.Run(fmt.Sprintf("graph/k=8/n=%d", n), func(b *testing.B) { repairLoop(b, n, 8) })
	}
	// The serving benchmark's churn shape: each delta adds one node with
	// edges to 2 distinct random existing nodes, on the CAGrQc stand-in at
	// L=6, R=200.
	b.Run("churn/CAGrQc/L=6/R=200", func(b *testing.B) {
		g, err := dataset.Load("CAGrQc", 1)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := BuildWorkers(g, 6, 200, seed, 2)
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(7)
		n0 := g.N()
		grow := func() (*graph.Graph, []int) {
			u := r.Intn(n0)
			v := r.Intn(n0 - 1)
			if v >= u {
				v++
			}
			n := g.N()
			ng, touched, err := g.ApplyDelta(graph.Delta{AddNodes: 1, AddEdges: []graph.Edge{{U: n, V: u}, {U: n, V: v}}})
			if err != nil {
				b.Fatal(err)
			}
			return ng, touched
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ng, touched := grow()
			b.StartTimer()
			if err := ix.Repair(ng, touched); err != nil {
				b.Fatal(err)
			}
			g = ng
		}
	})
	// The alternative a repair displaces: a from-scratch rebuild at each
	// graph size (delta-independent).
	for _, n := range []int{5000, 20000, 80000} {
		b.Run(fmt.Sprintf("rebuild/n=%d", n), func(b *testing.B) {
			g, err := graph.ErdosRenyi(n, 4*n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, L, R, seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
