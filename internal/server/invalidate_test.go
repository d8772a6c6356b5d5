package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/client"
	"repro/internal/graph"
	"repro/internal/index"
)

// The regression this PR exists for: memo entries hold *index.Index
// references, so before cross-cache invalidation an index evicted from the
// index cache stayed on the heap until every dependent D-table happened to
// be evicted too — daemon memory was bounded by traffic history, not the
// working set. Evicting an index must now drop its dependent memo tables
// and actually return the index's heap to the collector.
func TestIndexEvictionDropsMemoTablesAndReleasesHeap(t *testing.T) {
	g := testGraph(t, 300, 5)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, set := range []string{"1", "1,2", "7,9"} {
		resp, err := http.Get(ts.URL + "/v1/gain?graph=test&L=4&R=10&nodes=0&set=" + set)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gain set=%s: status %d", set, resp.StatusCode)
		}
	}
	if ms := s.Engine().MemoStats(); ms.Resident != 3 || ms.ResidentBytes == 0 {
		t.Fatalf("memo after traffic: %+v, want 3 resident tables", ms)
	}

	// Pin the resident index just long enough to attach a finalizer — the
	// witness that its heap really becomes collectable. The closure scope
	// keeps the *Index off this frame's locals so only the caches can be
	// left referencing it.
	fin := make(chan struct{})
	func() {
		key := index.CacheKey{Graph: "test", L: 4, R: 10, Seed: 1}
		h, err := s.Cache().Acquire(key, g, func() (*index.Index, error) {
			return nil, errors.New("index must already be resident")
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(h.Index(), func(*index.Index) { close(fin) })
		h.Release()
	}()

	if got := s.Cache().EvictIdle(s.Cache().Clock()); got != 1 {
		t.Fatalf("EvictIdle evicted %d indexes, want 1", got)
	}
	ms := s.Engine().MemoStats()
	if ms.Invalidated != 3 {
		t.Fatalf("invalidated = %d, want all 3 dependent tables: %+v", ms.Invalidated, ms)
	}
	if ms.Resident != 0 || ms.ResidentBytes != 0 {
		t.Fatalf("memo still resident after index eviction: %+v", ms)
	}

	// /stats serializes the linkage counter.
	var stats client.Stats
	if resp := getJSONT(t, ts.URL+"/stats?buckets=0", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: %d", resp.StatusCode)
	}
	if stats.Memo.Invalidated != 3 || stats.Memo.ResidentBytes != 0 {
		t.Fatalf("/stats memo = %+v, want invalidated=3 resident_bytes=0", stats.Memo)
	}

	// With the tables dropped, nothing references the index: the finalizer
	// must fire. (Finalizers can need more than one GC cycle; poll briefly.)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-fin:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted index still reachable: its memo tables pin the heap")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
