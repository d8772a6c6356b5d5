package index

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// BenchmarkWarmRestart measures what a daemon restart pays per warm index:
// opening a compressed v8 file read onto the heap against the same file
// mmap'd (CRC verification + mapping, rows page in on demand). disk_bytes
// reports the file's on-disk size; either way the open stays
// O(file bytes)/CRC-speed with no deserialize.
func BenchmarkWarmRestart(b *testing.B) {
	g, _ := graph.BarabasiAlbert(8000, 5, 1)
	ix, _ := Build(g, 6, 20, 1)
	v8 := filepath.Join(b.TempDir(), "ix.v8")
	if err := ix.SaveStore(v8, true); err != nil {
		b.Fatal(err)
	}
	size := func(path string) float64 {
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		return float64(fi.Size())
	}
	// ReportMetric after the loop: ResetTimer deletes user-reported metrics.
	for _, arm := range []struct {
		name string
		opt  StoreOptions
	}{{"v8-heap", StoreOptions{}}, {"v8-mmap", StoreOptions{Mmap: true}}} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LoadAny(v8, g, arm.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(size(v8), "disk_bytes")
		})
	}
}

// BenchmarkStoreBackedGain is BenchmarkGainAllNodes served store-backed in
// the production hybrid mode (compressed v8 + mmap + hot-row cache) instead
// of off the heap — the decode-on-read overhead the benchcheck gate holds
// against the heap baseline. One warmup sweep fills the hot-row cache first,
// so the steady serving state is what's measured.
func BenchmarkStoreBackedGain(b *testing.B) {
	g, _ := graph.BarabasiAlbert(2000, 5, 1)
	heap, _ := Build(g, 6, 20, 1)
	path := filepath.Join(b.TempDir(), "ix.v8")
	if err := heap.SaveStore(path, true); err != nil {
		b.Fatal(err)
	}
	ix, err := LoadAny(path, g, StoreOptions{Mmap: true})
	if err != nil {
		b.Fatal(err)
	}
	d, _ := ix.NewDTable(Problem1)
	r := rng.New(7)
	for i := 0; i < 5; i++ {
		d.Update(r.Intn(g.N()))
	}
	for u := 0; u < g.N(); u++ { // warmup: populate the hot-row cache
		_ = d.Gain(u)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		for u := 0; u < g.N(); u++ {
			sink += d.Gain(u)
		}
		_ = sink
	}
}
