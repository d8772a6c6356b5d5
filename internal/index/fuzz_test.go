package index

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// FuzzLoadAny asserts the index loader never panics and never accepts a
// file whose contents would later break a greedy run: whatever LoadAny
// accepts must answer Gain for every node, Update and EmptySetGains.
func FuzzLoadAny(f *testing.F) {
	g, err := graph.BarabasiAlbert(30, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	one, err := Build(g, 3, 3, 7)
	if err != nil {
		f.Fatal(err)
	}
	three, err := BuildChunkedWorkers(g, 3, 3, 7, 1, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, ix := range []*Index{one, three} {
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			if _, err := ix.WriteStore(&buf, compress); err != nil {
				f.Fatal(err)
			}
			valid := buf.Bytes()
			f.Add(valid)
			f.Add(valid[:len(valid)/2])
			f.Add(valid[:len(valid)-1])
			// Bit flips in the header, the directory, and the sections.
			for _, pos := range []int{0, 8, 40, 120, 4096, len(valid) - 1} {
				if pos < len(valid) {
					mut := bytes.Clone(valid)
					mut[pos] ^= 0x01
					f.Add(mut)
				}
			}
		}
	}
	f.Add([]byte("RWDOMST8 garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ix.rwdomidx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadAny(path, g, StoreOptions{})
		if err != nil {
			return
		}
		for _, p := range []Problem{Problem1, Problem2} {
			if _, err := loaded.EmptySetGains(p); err != nil {
				t.Fatalf("accepted index rejects EmptySetGains: %v", err)
			}
			d, err := loaded.NewDTable(p)
			if err != nil {
				t.Fatalf("accepted index rejects DTable: %v", err)
			}
			for u := 0; u < g.N(); u++ {
				_ = d.Gain(u)
			}
			d.Update(0)
			_ = d.Gain(1)
		}
	})
}
