package shard

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/index"
)

// BenchmarkShardIndexBuild measures what sharding buys: the wall time and
// resident bytes of the partial index ONE worker process materializes,
// versus shard count. A shard owns [s·R/N, (s+1)·R/N), so both should
// scale down ~linearly in N — that is the whole case for the topology,
// since the merged answers are bit-identical regardless.
func BenchmarkShardIndexBuild(b *testing.B) {
	const (
		n    = 20000
		L    = 5
		R    = 48
		seed = 7
	)
	g, err := graph.BarabasiAlbert(n, 3, seed)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			// Shard 0's slice of the balanced split [s·R/N, (s+1)·R/N).
			r0, r1 := 0, R/shards
			var bytes int64
			for i := 0; i < b.N; i++ {
				ix, err := index.BuildRangeWorkers(g, L, seed, r0, r1, 0)
				if err != nil {
					b.Fatal(err)
				}
				bytes = ix.MemoryBytes()
			}
			b.ReportMetric(float64(bytes), "index_bytes/proc")
		})
	}
}

// BenchmarkShardedSelect measures a warm k=10 selection through an
// in-process coordinator over 2 shards, for both greedy strategies: the
// engine's drivers over the scatter oracle, one scatter per gain batch.
// Warm means the partial indexes and the round-by-round memo tables are
// resident, so the figure is the coordinator's greedy and merge cost.
func BenchmarkShardedSelect(b *testing.B) {
	g, err := graph.BarabasiAlbert(5000, 3, 7)
	if err != nil {
		b.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"bench": g}
	co, err := NewLocal(Config{Graphs: graphs}, 2, engine.Config{Graphs: graphs})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()
	for _, strategy := range []engine.Strategy{engine.Lazy, engine.Plain} {
		name := "lazy"
		if strategy == engine.Plain {
			name = "plain"
		}
		b.Run("strategy="+name, func(b *testing.B) {
			req := engine.SelectRequest{Graph: "bench", K: 10, L: 6, R: 100, Seed: 1, Strategy: strategy}
			if _, err := co.Select(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := co.Select(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
