package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/index"
)

// The parity suite locks the memoized read path to the fresh-D-table path:
// every /v1/gain, /v1/objective and /v1/topgains answer served from the
// memo cache (or the index's empty-set vectors) must be bit-for-bit
// identical to what a daemon with memoization disabled computes — for both
// problems, across empty/singleton/large/unsorted/duplicated seed sets, and
// along the selection prefixes a lazy or plain greedy run produces.

// parityHarness runs one graph behind two servers that differ only in
// memoization.
type parityHarness struct {
	g     *graph.Graph
	memo  *httptest.Server
	fresh *httptest.Server
	srv   *Server // the memoized server, for stats assertions
}

func newParityHarness(t *testing.T) *parityHarness {
	t.Helper()
	g := testGraph(t, 500, 42)
	graphs := func() map[string]*graph.Graph { return map[string]*graph.Graph{"test": g} }
	memoSrv := newTestServer(t, Config{Graphs: graphs()})
	freshSrv := newTestServer(t, Config{Graphs: graphs(), DisableMemo: true})
	memo := httptest.NewServer(memoSrv.Handler())
	t.Cleanup(memo.Close)
	fresh := httptest.NewServer(freshSrv.Handler())
	t.Cleanup(fresh.Close)
	return &parityHarness{g: g, memo: memo, fresh: fresh, srv: memoSrv}
}

func getJSON(t *testing.T, base, path string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(base + path)
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

func setParam(set []int) string {
	if len(set) == 0 {
		return ""
	}
	parts := make([]string, len(set))
	for i, u := range set {
		parts[i] = strconv.Itoa(u)
	}
	return url.QueryEscape(strings.Join(parts, ","))
}

// parityCases are the seed-set shapes the suite sweeps. Node ids are valid
// for the 500-node test graph.
func parityCases() map[string][]int {
	return map[string][]int{
		"empty":     {},
		"singleton": {7},
		"pair":      {444, 3},
		"large":     {12, 400, 9, 77, 123, 256, 31, 498, 60, 205, 18, 350},
		"unsorted":  {250, 4, 199, 4, 250, 0, 499, 4},
		"dupsonly":  {33, 33, 33},
	}
}

func assertBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d gains, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: gain[%d] = %x (%v), want %x (%v)",
				label, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func TestParityGainMemoizedVsFresh(t *testing.T) {
	h := newParityHarness(t)
	probe := []int{0, 7, 33, 444, 250, 499, 123} // mix of set members and outsiders
	for _, problem := range []string{"1", "2"} {
		for name, set := range parityCases() {
			path := fmt.Sprintf("/v1/gain?graph=test&problem=%s&L=5&R=25&seed=9&set=%s&nodes=%s",
				problem, setParam(set), setParam(probe))
			var got, want client.GainResponse
			if resp := getJSON(t, h.memo.URL, path, &got); resp.StatusCode != http.StatusOK {
				t.Fatalf("memo gain %s/%s: status %d", problem, name, resp.StatusCode)
			}
			if resp := getJSON(t, h.fresh.URL, path, &want); resp.StatusCode != http.StatusOK {
				t.Fatalf("fresh gain %s/%s: status %d", problem, name, resp.StatusCode)
			}
			assertBitIdentical(t, "gain "+problem+"/"+name, got.Gains, want.Gains)
			if want.Memo != engine.MemoOff {
				t.Fatalf("fresh server reported memo=%q", want.Memo)
			}
			if got.Memo == engine.MemoOff || got.Memo == "" {
				t.Fatalf("memo server reported memo=%q", got.Memo)
			}
			if len(set) == 0 && got.Memo != engine.MemoEmpty {
				t.Fatalf("empty set served via %q, want %q", got.Memo, engine.MemoEmpty)
			}
			// In-process reference: fresh table, raw (uncanonicalized) replay.
			ix, err := index.Build(h.g, 5, 25, 9)
			if err != nil {
				t.Fatal(err)
			}
			p := index.Problem2
			if problem == "1" {
				p = index.Problem1
			}
			d, err := ix.NewDTable(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range set {
				d.Update(u)
			}
			ref := d.GainBatch(probe, nil)
			assertBitIdentical(t, "gain-vs-direct "+problem+"/"+name, got.Gains, ref)
		}
	}
}

func TestParityObjectiveMemoizedVsFresh(t *testing.T) {
	h := newParityHarness(t)
	for _, problem := range []string{"1", "2"} {
		for name, set := range parityCases() {
			path := fmt.Sprintf("/v1/objective?graph=test&problem=%s&L=5&R=25&seed=9&set=%s",
				problem, setParam(set))
			var got, want client.ObjectiveResponse
			if resp := getJSON(t, h.memo.URL, path, &got); resp.StatusCode != http.StatusOK {
				t.Fatalf("memo objective %s/%s: status %d", problem, name, resp.StatusCode)
			}
			if resp := getJSON(t, h.fresh.URL, path, &want); resp.StatusCode != http.StatusOK {
				t.Fatalf("fresh objective %s/%s: status %d", problem, name, resp.StatusCode)
			}
			if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Fatalf("objective %s/%s: memo %v, fresh %v", problem, name, got.Objective, want.Objective)
			}
		}
	}
}

func TestParityTopGainsMemoizedVsFresh(t *testing.T) {
	h := newParityHarness(t)
	for _, problem := range []string{"1", "2"} {
		for name, set := range parityCases() {
			for _, b := range []int{1, 10, 600} { // 600 > n exercises clamping
				path := fmt.Sprintf("/v1/topgains?graph=test&problem=%s&L=5&R=25&seed=9&set=%s&b=%d",
					problem, setParam(set), b)
				var got, want client.TopGainsResponse
				if resp := getJSON(t, h.memo.URL, path, &got); resp.StatusCode != http.StatusOK {
					t.Fatalf("memo topgains %s/%s b=%d: status %d", problem, name, b, resp.StatusCode)
				}
				if resp := getJSON(t, h.fresh.URL, path, &want); resp.StatusCode != http.StatusOK {
					t.Fatalf("fresh topgains %s/%s b=%d: status %d", problem, name, b, resp.StatusCode)
				}
				if len(got.Nodes) != len(want.Nodes) {
					t.Fatalf("topgains %s/%s b=%d: %d nodes vs %d", problem, name, b, len(got.Nodes), len(want.Nodes))
				}
				for i := range want.Nodes {
					if got.Nodes[i] != want.Nodes[i] {
						t.Fatalf("topgains %s/%s b=%d: nodes %v vs %v", problem, name, b, got.Nodes, want.Nodes)
					}
				}
				assertBitIdentical(t, fmt.Sprintf("topgains %s/%s b=%d", problem, name, b), got.Gains, want.Gains)
				// Set members never appear among the winners.
				members := map[int]bool{}
				for _, u := range set {
					members[u] = true
				}
				for _, u := range got.Nodes {
					if members[u] {
						t.Fatalf("topgains %s/%s: set member %d in results", problem, name, u)
					}
				}
			}
		}
	}
}

// TestParityAlongGreedyPrefixes drives both greedy algorithms through
// /v1/select and asserts the memoized read path agrees with the fresh one
// on every prefix of the selection — the sets a client following a greedy
// run would actually query, including the memo's prefix-extension path.
func TestParityAlongGreedyPrefixes(t *testing.T) {
	h := newParityHarness(t)
	probe := []int{0, 50, 100, 499}
	for _, algorithm := range []string{"lazy", "plain"} {
		for _, problem := range []string{"hitting", "coverage"} {
			body := fmt.Sprintf(`{"graph":"test","problem":%q,"k":6,"L":5,"R":25,"seed":9,"algorithm":%q}`,
				problem, algorithm)
			memoSel, resp := postSelect(t, h.memo.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("memo select %s/%s: status %d", algorithm, problem, resp.StatusCode)
			}
			freshSel, resp := postSelect(t, h.fresh.URL, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("fresh select %s/%s: status %d", algorithm, problem, resp.StatusCode)
			}
			if len(memoSel.Nodes) != len(freshSel.Nodes) {
				t.Fatalf("select %s/%s: %d nodes vs %d", algorithm, problem, len(memoSel.Nodes), len(freshSel.Nodes))
			}
			for i := range memoSel.Nodes {
				if memoSel.Nodes[i] != freshSel.Nodes[i] {
					t.Fatalf("select %s/%s: nodes %v vs %v", algorithm, problem, memoSel.Nodes, freshSel.Nodes)
				}
			}
			for plen := 0; plen <= len(memoSel.Nodes); plen++ {
				prefix := memoSel.Nodes[:plen]
				gainPath := fmt.Sprintf("/v1/gain?graph=test&problem=%s&L=5&R=25&seed=9&set=%s&nodes=%s",
					problem, setParam(prefix), setParam(probe))
				var got, want client.GainResponse
				if resp := getJSON(t, h.memo.URL, gainPath, &got); resp.StatusCode != http.StatusOK {
					t.Fatalf("memo prefix gain: status %d", resp.StatusCode)
				}
				if resp := getJSON(t, h.fresh.URL, gainPath, &want); resp.StatusCode != http.StatusOK {
					t.Fatalf("fresh prefix gain: status %d", resp.StatusCode)
				}
				assertBitIdentical(t, fmt.Sprintf("prefix %s/%s len=%d", algorithm, problem, plen), got.Gains, want.Gains)

				objPath := fmt.Sprintf("/v1/objective?graph=test&problem=%s&L=5&R=25&seed=9&set=%s",
					problem, setParam(prefix))
				var gotO, wantO client.ObjectiveResponse
				if resp := getJSON(t, h.memo.URL, objPath, &gotO); resp.StatusCode != http.StatusOK {
					t.Fatalf("memo prefix objective: status %d", resp.StatusCode)
				}
				if resp := getJSON(t, h.fresh.URL, objPath, &wantO); resp.StatusCode != http.StatusOK {
					t.Fatalf("fresh prefix objective: status %d", resp.StatusCode)
				}
				if math.Float64bits(gotO.Objective) != math.Float64bits(wantO.Objective) {
					t.Fatalf("prefix objective %s/%s len=%d: %v vs %v",
						algorithm, problem, plen, gotO.Objective, wantO.Objective)
				}
			}
		}
	}
	// The ascending prefix sweep is exactly the shape prefix extension
	// serves; the gain+objective pairs also hit the cache.
	ms := h.srv.Engine().MemoStats()
	if ms.PrefixExtended == 0 {
		t.Fatalf("prefix sweep never extended a cached table: %+v", ms)
	}
	if ms.Hits == 0 {
		t.Fatalf("prefix sweep never hit the cache: %+v", ms)
	}
}

// TestMemoStatuses pins the status lifecycle: miss on first sight, hit on
// repeat, extended when a cached proper prefix exists, empty for set-free
// requests.
func TestMemoStatuses(t *testing.T) {
	h := newParityHarness(t)
	get := func(set string) string {
		var gr client.GainResponse
		path := "/v1/gain?graph=test&L=4&R=10&nodes=1,2&set=" + set
		if resp := getJSON(t, h.memo.URL, path, &gr); resp.StatusCode != http.StatusOK {
			t.Fatalf("gain set=%q: status %d", set, resp.StatusCode)
		}
		return gr.Memo
	}
	if st := get(""); st != engine.MemoEmpty {
		t.Fatalf("empty set: memo=%q", st)
	}
	if st := get("5,9"); st != engine.MemoMiss {
		t.Fatalf("first {5,9}: memo=%q", st)
	}
	if st := get("9,5,9"); st != engine.MemoHit {
		t.Fatalf("repeat {5,9} (permuted, dup): memo=%q", st)
	}
	if st := get("5,9,300"); st != engine.MemoExtended {
		t.Fatalf("superset {5,9,300}: memo=%q", st)
	}
	if st := get("300,5,9"); st != engine.MemoHit {
		t.Fatalf("repeat {5,9,300}: memo=%q", st)
	}
	ms := h.srv.Engine().MemoStats()
	if ms.EmptyHits != 1 || ms.Misses != 2 || ms.Hits != 2 || ms.PrefixExtended != 1 {
		t.Fatalf("stats after status walk: %+v", ms)
	}
}
