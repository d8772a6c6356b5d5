package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/graph"
)

func TestMemoEvictionBound(t *testing.T) {
	g := testGraph(t, 300, 5)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}, MemoSize: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, set := range []string{"1", "2", "3", "4", "5"} {
		resp, err := http.Get(ts.URL + "/v1/gain?graph=test&L=4&R=10&nodes=0&set=" + set)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gain set=%s: status %d", set, resp.StatusCode)
		}
	}
	ms := s.Engine().MemoStats()
	if ms.Resident > 2 {
		t.Fatalf("resident %d exceeds MemoSize 2", ms.Resident)
	}
	if ms.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3: %+v", ms.Evictions, ms)
	}
	if s.engine.MemoPinnedRefs() != 0 {
		t.Fatalf("%d refs still pinned after traffic stopped", s.engine.MemoPinnedRefs())
	}
}

// The memo bytes budget evicts LRU tables once their summed footprint
// exceeds it, keeping /stats resident_bytes under the configured budget.
func TestMemoBytesBudget(t *testing.T) {
	g := testGraph(t, 300, 7)
	// Measure one table's footprint on an unbudgeted server, then budget a
	// second server for two and a half tables.
	probe := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	tsProbe := httptest.NewServer(probe.Handler())
	defer tsProbe.Close()
	resp, err := http.Get(tsProbe.URL + "/v1/gain?graph=test&L=4&R=10&nodes=0&set=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	per := probe.Engine().MemoStats().ResidentBytes
	if per <= 0 {
		t.Fatalf("probe table bytes = %d", per)
	}

	budget := 2*per + per/2
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}, MemoBytes: budget})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, set := range []string{"1", "2", "3", "4", "5"} {
		resp, err := http.Get(ts.URL + "/v1/gain?graph=test&L=4&R=10&nodes=0&set=" + set)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gain set=%s: status %d", set, resp.StatusCode)
		}
	}
	ms := s.Engine().MemoStats()
	if ms.ResidentBytes > budget {
		t.Fatalf("resident bytes %d over the %d budget", ms.ResidentBytes, budget)
	}
	if ms.Resident != 2 || ms.Evictions != 3 {
		t.Fatalf("stats = %+v, want 2 resident tables and 3 evictions", ms)
	}
	if s.engine.MemoPinnedRefs() != 0 {
		t.Fatalf("%d refs still pinned after traffic stopped", s.engine.MemoPinnedRefs())
	}
}

// TestMemoConcurrentStress floods one graph with mixed gain / objective /
// topgains / select traffic from many goroutines (run under -race in CI and
// bench.sh). Afterwards every refcount must be back to zero — no table was
// freed in use, none stayed pinned — and the hit/miss/empty counters must
// add up to exactly the memoized lookups issued.
func TestMemoConcurrentStress(t *testing.T) {
	g := testGraph(t, 400, 8)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}, MemoSize: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A small pool of sets (some prefixes of each other, plus the empty
	// set) keeps hit, miss, extension and eviction paths all busy at once.
	sets := []string{"", "1", "1,2", "1,2,3", "7", "7,9", "250,4,199,4", "42"}
	const (
		clients        = 8
		perClient      = 30
		selectsPer     = 2
		expectRequests = clients * perClient
	)

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	var emptyIssued, memoIssued int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(c)))
			localEmpty, localMemo := int64(0), int64(0)
			for i := 0; i < perClient; i++ {
				set := sets[rnd.Intn(len(sets))]
				problem := []string{"1", "2"}[rnd.Intn(2)]
				var path string
				switch rnd.Intn(3) {
				case 0:
					path = fmt.Sprintf("/v1/gain?graph=test&problem=%s&L=4&R=15&set=%s&nodes=%d", problem, set, rnd.Intn(400))
				case 1:
					path = fmt.Sprintf("/v1/objective?graph=test&problem=%s&L=4&R=15&set=%s", problem, set)
				default:
					path = fmt.Sprintf("/v1/topgains?graph=test&problem=%s&L=4&R=15&set=%s&b=5", problem, set)
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if set == "" {
					localEmpty++
				} else {
					localMemo++
				}
			}
			// A couple of selections interleave whole-index work with the
			// memoized reads.
			for i := 0; i < selectsPer; i++ {
				body := fmt.Sprintf(`{"graph":"test","k":3,"L":4,"R":15,"workers":1,"problem":%q}`, []string{"hitting", "coverage"}[i%2])
				resp, err := http.Post(ts.URL+"/v1/select", "application/json", bytes.NewBufferString(body))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("select: status %d", resp.StatusCode)
					return
				}
			}
			mu.Lock()
			emptyIssued += localEmpty
			memoIssued += localMemo
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	ms := s.Engine().MemoStats()
	if got := ms.Hits + ms.Misses; got != memoIssued {
		t.Fatalf("hits(%d) + misses(%d) = %d, want %d memoized lookups: %+v",
			ms.Hits, ms.Misses, got, memoIssued, ms)
	}
	if ms.EmptyHits != emptyIssued {
		t.Fatalf("empty hits = %d, want %d", ms.EmptyHits, emptyIssued)
	}
	if ms.PopulateErrors != 0 {
		t.Fatalf("%d populate errors", ms.PopulateErrors)
	}
	if ms.Resident > 4 {
		t.Fatalf("resident %d exceeds MemoSize 4", ms.Resident)
	}
	if refs := s.engine.MemoPinnedRefs(); refs != 0 {
		t.Fatalf("%d refs still pinned after traffic stopped", refs)
	}
	if emptyIssued+memoIssued != expectRequests {
		t.Fatalf("accounting bug in the test itself: %d+%d != %d", emptyIssued, memoIssued, expectRequests)
	}

	// /stats must serialize the same counters.
	var stats client.Stats
	if resp := getJSONT(t, ts.URL+"/stats?buckets=0", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: %d", resp.StatusCode)
	}
	if !stats.Memo.Enabled {
		t.Fatal("/stats reports memo disabled")
	}
	if stats.Memo.Hits != ms.Hits || stats.Memo.Misses != ms.Misses || stats.Memo.EmptyHits != ms.EmptyHits {
		t.Fatalf("/stats memo counters %+v disagree with snapshot %+v", stats.Memo, ms)
	}
	if stats.Memo.Resident > 0 && stats.Memo.ResidentBytes <= 0 {
		t.Fatalf("resident tables but zero bytes: %+v", stats.Memo)
	}
}

func getJSONT(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// Coalesced populations: many concurrent first requests for one set must
// build its table exactly once.
func TestMemoCoalescesConcurrentPopulations(t *testing.T) {
	g := testGraph(t, 400, 3)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the index so the memo population is the only miss in play.
	resp, err := http.Get(ts.URL + "/v1/gain?graph=test&L=5&R=30&nodes=1&set=")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/gain?graph=test&L=5&R=30&nodes=1,2,3&set=10,20,30")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	ms := s.Engine().MemoStats()
	if ms.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (coalesced %d, hits %d)", ms.Misses, ms.Coalesced, ms.Hits)
	}
	if ms.Hits != clients-1 {
		t.Fatalf("hits = %d, want %d", ms.Hits, clients-1)
	}
}

// The /v1/topgains default B (10) must respect a tighter operator MaxK.
func TestTopGainsDefaultBClampedByMaxK(t *testing.T) {
	g := testGraph(t, 200, 6)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}, MaxK: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var tr client.TopGainsResponse
	if resp := getJSONT(t, ts.URL+"/v1/topgains?graph=test&L=4&R=10", &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("topgains: status %d", resp.StatusCode)
	}
	if tr.B != 3 || len(tr.Nodes) != 3 {
		t.Fatalf("default b = %d with %d nodes, want MaxK clamp to 3", tr.B, len(tr.Nodes))
	}
	resp, err := http.Get(ts.URL + "/v1/topgains?graph=test&L=4&R=10&b=4")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("b above MaxK: status %d, want 400", resp.StatusCode)
	}
}

func TestMemoDisabled(t *testing.T) {
	g := testGraph(t, 200, 4)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}, DisableMemo: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var gr client.GainResponse
	if resp := getJSONT(t, ts.URL+"/v1/gain?graph=test&L=4&R=10&nodes=1&set=2,3", &gr); resp.StatusCode != http.StatusOK {
		t.Fatalf("gain: status %d", resp.StatusCode)
	}
	if gr.Memo != engine.MemoOff {
		t.Fatalf("memo = %q, want %q", gr.Memo, engine.MemoOff)
	}
	var stats client.Stats
	if resp := getJSONT(t, ts.URL+"/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: status %d", resp.StatusCode)
	}
	if stats.Memo.Enabled {
		t.Fatal("/stats reports memo enabled on a DisableMemo server")
	}
}
