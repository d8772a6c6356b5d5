package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/graph"
)

// TestSelectAccuracyHTTP pins the wire contract of the accuracy block: a
// select body with an epsilon target gets an "accuracy" object carrying the
// run's evidence, and a plain select stays byte-compatible (no block at all).
func TestSelectAccuracyHTTP(t *testing.T) {
	s := newTestServer(t, Config{AccuracyChunk: 10})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sr, resp := postSelect(t, ts.URL, `{"graph":"test","k":3,"L":5,"R":40,"seed":2,"epsilon":1e-9,"delta":0.1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select status %d", resp.StatusCode)
	}
	acc := sr.Accuracy
	if acc == nil {
		t.Fatal("epsilon-targeted select reply has no accuracy block")
	}
	if acc.Epsilon != 1e-9 || acc.Delta != 0.1 {
		t.Fatalf("accuracy echoes epsilon=%v delta=%v", acc.Epsilon, acc.Delta)
	}
	// An unreachable epsilon spends the whole cap: the evidence must say so.
	if acc.EarlyStopped || acc.ReplicatesUsed != 40 || acc.ChunksBuilt != 4 || acc.CIWidth <= 0 {
		t.Fatalf("capped-run evidence inconsistent: %+v", acc)
	}

	plain, resp := postSelect(t, ts.URL, `{"graph":"test","k":3,"L":5,"R":40,"seed":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain select status %d", resp.StatusCode)
	}
	if plain.Accuracy != nil {
		t.Fatalf("plain select reply grew an accuracy block: %+v", plain.Accuracy)
	}
	if len(plain.Nodes) != len(sr.Nodes) {
		t.Fatalf("capped adaptive picked %d nodes, fixed-R picked %d", len(sr.Nodes), len(plain.Nodes))
	}
	for i := range plain.Nodes {
		if sr.Nodes[i] != plain.Nodes[i] {
			t.Fatalf("capped adaptive nodes %v diverge from fixed-R %v", sr.Nodes, plain.Nodes)
		}
	}
}

// TestSelectAccuracyStream pins the NDJSON side: every round line of an
// epsilon-targeted stream carries ci_width/replicates, and the final result
// line repeats the same accuracy block as the blocking reply.
func TestSelectAccuracyStream(t *testing.T) {
	g, err := graph.BarabasiAlbert(400, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"easy": g}, AccuracyChunk: 25})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"graph":"easy","k":3,"L":6,"R":200,"seed":7,"epsilon":25,"delta":0.05}`
	rounds, done, errLine, _ := postSelectStream(t, ts.URL, body)
	if errLine != nil {
		t.Fatalf("stream error: %+v", errLine)
	}
	if done == nil || done.Accuracy == nil {
		t.Fatal("stream result line has no accuracy block")
	}
	if !done.Accuracy.EarlyStopped || done.Accuracy.ReplicatesUsed >= 200 {
		t.Fatalf("easy graph did not early-stop: %+v", done.Accuracy)
	}
	if len(rounds) != len(done.Nodes) {
		t.Fatalf("%d round lines for %d nodes", len(rounds), len(done.Nodes))
	}
	for i, rd := range rounds {
		if rd.Replicates < 1 || rd.Replicates > done.Accuracy.ReplicatesUsed {
			t.Fatalf("round %d: replicates=%d outside [1,%d]", i, rd.Replicates, done.Accuracy.ReplicatesUsed)
		}
		if rd.CIWidth > done.Accuracy.Epsilon {
			t.Fatalf("round %d: ci_width %v exceeds epsilon", i, rd.CIWidth)
		}
	}

	blocking, resp := postSelect(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blocking select status %d", resp.StatusCode)
	}
	if *blocking.Accuracy != *done.Accuracy {
		t.Fatalf("stream accuracy %+v != blocking %+v", done.Accuracy, blocking.Accuracy)
	}
}

// TestStatsAccuracyBlock pins /stats: absent until adaptive traffic exists,
// then a counter block with the 5-bucket CI-width histogram.
func TestStatsAccuracyBlock(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getStats := func() client.Stats {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st client.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	if st := getStats(); st.Accuracy != nil {
		t.Fatalf("accuracy stats present before any adaptive select: %+v", st.Accuracy)
	}
	if _, resp := postSelect(t, ts.URL, `{"graph":"test","k":2,"L":4,"R":20,"seed":1,"epsilon":1e-9}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("select status %d", resp.StatusCode)
	}
	st := getStats()
	if st.Accuracy == nil {
		t.Fatal("no accuracy stats after an adaptive select")
	}
	if st.Accuracy.AdaptiveSelects < 1 || st.Accuracy.ChunksBuilt < 1 {
		t.Fatalf("counters not recorded: %+v", st.Accuracy)
	}
	if len(st.Accuracy.CIWidthHist) != 5 {
		t.Fatalf("ci_width_hist has %d buckets, want 5", len(st.Accuracy.CIWidthHist))
	}
	var total int64
	for _, c := range st.Accuracy.CIWidthHist {
		total += c
	}
	if total != st.Accuracy.AdaptiveSelects {
		t.Fatalf("histogram holds %d runs, want %d", total, st.Accuracy.AdaptiveSelects)
	}
}

// TestShardedAccuracyUnsupported pins the sharding boundary: per-request
// epsilon on a sharded daemon is 501 "unsupported" (no shard holds the full
// replicate range), and a default epsilon refuses to even start sharded.
func TestShardedAccuracyUnsupported(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/select", "application/json",
		strings.NewReader(`{"graph":"test","k":2,"L":4,"R":20,"epsilon":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("sharded accuracy select status %d, want 501", resp.StatusCode)
	}
	var er client.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "unsupported" {
		t.Fatalf("error code %q, want unsupported", er.Error.Code)
	}

	if _, err := New(Config{
		Graphs:         map[string]*graph.Graph{"test": testGraph(t, 100, 1)},
		Shards:         2,
		DefaultEpsilon: 0.5,
	}); err == nil {
		t.Fatal("sharded server with DefaultEpsilon started")
	}
}
