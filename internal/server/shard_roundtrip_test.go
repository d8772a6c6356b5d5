package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/client"
	"repro/internal/graph"
)

// The multi-process topology end to end over real HTTP: worker daemons
// serve /v1/partial, a coordinator daemon built with Config.Peers
// scatter-gathers them, and every public answer is bit-identical to an
// unsharded daemon serving the same graph.

// startWorkers launches n worker daemons over g and returns their base
// URLs. Each worker is a complete ordinary server — the partial endpoints
// ride along on every daemon.
func startWorkers(t *testing.T, g *graph.Graph, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		w := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
		ws := httptest.NewServer(w.Handler())
		t.Cleanup(ws.Close)
		urls[i] = ws.URL
	}
	return urls
}

func TestCoordinatorWorkerRoundTrip(t *testing.T) {
	g := testGraph(t, 500, 42)

	plain := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()

	coord := newTestServer(t, Config{
		Graphs: map[string]*graph.Graph{"test": g},
		Peers:  startWorkers(t, g, 2),
	})
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()

	for _, body := range []string{
		`{"graph":"test","problem":"hitting","k":5,"L":4,"R":25,"seed":7}`,
		`{"graph":"test","problem":"coverage","k":5,"L":4,"R":25,"seed":7,"algorithm":"plain"}`,
	} {
		want, wresp := postSelect(t, plainTS.URL, body)
		got, gresp := postSelect(t, coordTS.URL, body)
		if wresp.StatusCode != http.StatusOK || gresp.StatusCode != http.StatusOK {
			t.Fatalf("select status %d/%d", wresp.StatusCode, gresp.StatusCode)
		}
		if len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("%s: %d nodes vs %d", body, len(got.Nodes), len(want.Nodes))
		}
		for i := range want.Nodes {
			if got.Nodes[i] != want.Nodes[i] {
				t.Fatalf("%s: nodes %v, want %v", body, got.Nodes, want.Nodes)
			}
			if math.Float64bits(got.Gains[i]) != math.Float64bits(want.Gains[i]) {
				t.Fatalf("%s: gain %d diverges: %v vs %v", body, i, got.Gains[i], want.Gains[i])
			}
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("%s: objective %v, want %v", body, got.Objective, want.Objective)
		}
	}

	// Read endpoints through the coordinator agree with the plain daemon.
	for _, path := range []string{
		"/v1/gain?graph=test&problem=2&L=4&R=25&seed=7&set=1,2&nodes=0,5,9",
		"/v1/objective?graph=test&problem=1&L=4&R=25&seed=7&set=1,2",
		"/v1/topgains?graph=test&problem=2&L=4&R=25&seed=7&set=1&b=3",
	} {
		var want, got map[string]any
		for _, probe := range []struct {
			url string
			dst *map[string]any
		}{{plainTS.URL, &want}, {coordTS.URL, &got}} {
			resp, err := http.Get(probe.url + path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", path, resp.StatusCode)
			}
			if err := json.NewDecoder(resp.Body).Decode(probe.dst); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		for _, key := range []string{"gains", "objective", "nodes"} {
			w, ok := want[key]
			if !ok {
				continue
			}
			if wj, gj := mustJSON(t, w), mustJSON(t, got[key]); wj != gj {
				t.Fatalf("%s: %s %s, want %s", path, key, gj, wj)
			}
		}
	}

	// The coordinator daemon's /stats carries the shards block.
	st := getStats(t, coordTS.URL)
	if st.Shards == nil {
		t.Fatal("coordinator /stats has no shards block")
	}
	if st.Shards.Shards != 2 || st.Shards.Merges == 0 {
		t.Fatalf("shards block %+v", st.Shards)
	}
	if len(st.Shards.PerShard) != 2 {
		t.Fatalf("per_shard has %d entries", len(st.Shards.PerShard))
	}
	for i, ps := range st.Shards.PerShard {
		if ps.Requests == 0 {
			t.Fatalf("shard %d served no requests: %+v", i, ps)
		}
		if ps.Addr == "" {
			t.Fatalf("shard %d has no address", i)
		}
	}
	if st.Shards.MergeLatency.Count == 0 {
		t.Fatal("merge latency histogram is empty")
	}

	// The plain daemon's /stats must not grow a shards block.
	if st := getStats(t, plainTS.URL); st.Shards != nil {
		t.Fatalf("unsharded daemon reports shards: %+v", st.Shards)
	}
}

// In-process sharding (-shards) behaves identically, minus the HTTP hop.
func TestInProcessShardsMode(t *testing.T) {
	g := testGraph(t, 500, 42)

	plain := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()

	sharded := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}, Shards: 3})
	shardedTS := httptest.NewServer(sharded.Handler())
	defer shardedTS.Close()

	body := `{"graph":"test","problem":"coverage","k":6,"L":4,"R":25,"seed":7}`
	want, _ := postSelect(t, plainTS.URL, body)
	got, resp := postSelect(t, shardedTS.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded select status %d", resp.StatusCode)
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] || math.Float64bits(got.Gains[i]) != math.Float64bits(want.Gains[i]) {
			t.Fatalf("sharded %v/%v, want %v/%v", got.Nodes, got.Gains, want.Nodes, want.Gains)
		}
	}

	st := getStats(t, shardedTS.URL)
	if st.Shards == nil || st.Shards.Shards != 3 {
		t.Fatalf("shards block %+v", st.Shards)
	}

	// Shards and Peers cannot be combined.
	if _, err := New(Config{
		Graphs: map[string]*graph.Graph{"test": g},
		Shards: 2,
		Peers:  []string{"http://localhost:1"},
	}); err == nil {
		t.Fatal("Shards+Peers accepted")
	}
}

func getStats(t *testing.T, url string) *client.Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	var st client.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
