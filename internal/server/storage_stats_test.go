package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/client"
	"repro/internal/graph"
)

// TestStatsStorageBlock checks the /stats "storage" block: absent without a
// spill directory, present (with the configured format and mmap flag) when
// spilling is on — and that a warm restart over the same spill directory
// reports its page-in loads through it.
func TestStatsStorageBlock(t *testing.T) {
	getStats := func(url string) client.Stats {
		t.Helper()
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr client.Stats
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	// No spill dir: no storage block.
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	if sr := getStats(ts.URL); sr.Storage != nil {
		t.Fatalf("storage block present without a spill dir: %+v", sr.Storage)
	}
	ts.Close()

	// Spill dir + mmap: block present with the effective config, and after
	// a cold select + restart the warm daemon reports page-in restarts.
	dir := t.TempDir()
	g := testGraph(t, 400, 2)
	cold := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}, SpillDir: dir, MmapSpills: true})
	ts = httptest.NewServer(cold.Handler())
	if _, resp := postSelect(t, ts.URL, `{"graph":"test","k":3,"L":3,"R":20}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("select status %d", resp.StatusCode)
	}
	sr := getStats(ts.URL)
	if sr.Storage == nil {
		t.Fatal("storage block missing with a spill dir")
	}
	if sr.Storage.SpillFormat != "v8" || !sr.Storage.Mmap {
		t.Fatalf("storage = %+v, want v8 + mmap", sr.Storage)
	}
	ts.Close()
	cold.Close() // spills the resident index

	warm := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}, SpillDir: dir, MmapSpills: true})
	ts = httptest.NewServer(warm.Handler())
	defer ts.Close()
	if _, resp := postSelect(t, ts.URL, `{"graph":"test","k":3,"L":3,"R":20}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm select status %d", resp.StatusCode)
	}
	sr = getStats(ts.URL)
	if sr.Storage == nil {
		t.Fatal("storage block missing on warm daemon")
	}
	if sr.Cache.SpillLoads != 1 {
		t.Fatalf("warm cache = %+v, want 1 spill load", sr.Cache)
	}
	if sr.Storage.PageInRestarts == 0 {
		t.Skip("mmap unavailable on this platform")
	}
	if sr.Cache.MmapLoads != 1 || sr.Storage.MappedIndexes != 1 || sr.Storage.MappedBytes <= 0 {
		t.Fatalf("warm storage = %+v (mmap_loads=%d), want one mapped index", sr.Storage, sr.Cache.MmapLoads)
	}
}
