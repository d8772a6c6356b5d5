// Mutation: evolving a served graph without losing the warm caches.
//
// Real networks change: users join, friendships form and dissolve. This
// example opens a query Engine over a social graph, warms its walk index
// with a selection, then applies a batch of edge changes with ApplyDelta.
// The Engine bumps the graph's mutation epoch and repairs the resident walk
// index incrementally — only the walks the delta touched are regenerated,
// so the repair cost scales with the size of the change, not the graph —
// and the post-mutation selection is bit-identical to what a cold Engine
// opened over the already-mutated graph would compute.
//
// It also shows the optimistic-concurrency handle: a mutation carrying
// BaseEpoch applies only if the graph is still at that epoch, so
// read-modify-write callers never clobber a concurrent writer.
//
// Run with: go run ./examples/mutation
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	g, err := rwdom.GeneratePowerLaw(5000, 30000, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(g)

	en, err := rwdom.Open(g)
	if err != nil {
		log.Fatal(err)
	}
	defer en.Close()
	ctx := context.Background()
	req := rwdom.SelectRequest{Problem: rwdom.Problem2, K: 8, L: 6, R: 100, Seed: 1}

	// Warm: the first selection materializes the walk index.
	before, err := en.Select(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbefore mutation: targets %v (index build %v)\n", before.Nodes, before.IndexBuild)

	// The network evolves at its periphery: one new user joins and befriends
	// a recent arrival, two friendships form, one dissolves. (Peripheral
	// churn is the common case — and the cheap one: few walks visit these
	// nodes, so few walk rows need repair. Rewiring a heavily-walked hub
	// would legitimately touch most walks.)
	per := g.N() - 1
	add := []rwdom.Edge{{U: g.N(), V: per}}
	for u := g.N() - 10; len(add) < 3; u++ {
		for v := u - 100; v < g.N(); v++ {
			if u != v && !g.HasEdge(u, v) {
				add = append(add, rwdom.Edge{U: u, V: v})
				break
			}
		}
	}
	delta := rwdom.Delta{
		AddNodes:    1,
		AddEdges:    add,
		RemoveEdges: []rwdom.Edge{{U: per, V: int(g.Neighbors(per)[0])}},
	}
	start := time.Now()
	res, err := en.ApplyDelta(ctx, rwdom.ApplyDeltaRequest{Delta: delta})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplied delta in %v: epoch %d, %d nodes / %d edges, %d adjacencies touched\n",
		time.Since(start).Round(time.Microsecond), res.Epoch, res.Nodes, res.Edges, res.Touched)
	fmt.Printf("cached artifacts: %d indexes repaired (copy-on-write), %d dropped, %d memos invalidated\n",
		res.IndexesRepaired, res.IndexesDropped, res.MemosDropped)

	// The repaired index serves immediately — no rebuild.
	after, err := en.Select(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter mutation:  targets %v (index cached: %v)\n", after.Nodes, after.IndexCached)

	// Optimistic concurrency: this writer believes the graph is still at
	// epoch 0, but the mutation above moved it to 1 — the Engine refuses
	// with the typed conflict code instead of silently clobbering.
	staleBase := uint64(0)
	_, err = en.ApplyDelta(ctx, rwdom.ApplyDeltaRequest{
		Delta:     rwdom.Delta{AddEdges: []rwdom.Edge{{U: 1, V: 2}}},
		BaseEpoch: &staleBase,
	})
	if rwdom.ErrorCodeOf(err) != rwdom.ErrConflict {
		log.Fatalf("expected a conflict, got %v", err)
	}
	fmt.Printf("\nstale writer rejected: %v\n", err)

	// Cross-check against a cold Engine on the mutated graph: the warm,
	// incrementally-repaired path answers bit-identically.
	mg, _, err := g.ApplyDelta(delta)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := rwdom.Open(mg)
	if err != nil {
		log.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Select(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want.Nodes {
		if after.Nodes[i] != want.Nodes[i] {
			log.Fatalf("repair diverged from rebuild at pick %d", i)
		}
	}
	fmt.Println("parity: repaired index selection == cold-rebuild selection, bit for bit")
}
