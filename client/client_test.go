package client_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/testleak"
)

// The round-trip suite runs the typed client against the real daemon
// handler (httptest.Server over internal/server), locking the SDK to the
// same v1 contract the golden files pin. It is an external test package:
// internal/server imports this package (via the shard coordinator's remote
// connections), so in-package tests could not import the server back.

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.BarabasiAlbert(500, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func harness(t testing.TB, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	testleak.Check(t)
	if cfg.Graphs == nil {
		cfg.Graphs = map[string]*graph.Graph{"test": testGraph(t)}
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestSelectRoundTrip(t *testing.T) {
	g := testGraph(t)
	_, c := harness(t, server.Config{Graphs: map[string]*graph.Graph{"test": g}})
	ctx := context.Background()

	seed := uint64(9)
	res, err := c.Select(ctx, client.SelectRequest{
		Graph: "test", Problem: client.ProblemHitting, K: 6, L: 4, R: 30, Seed: &seed, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(g, 4, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ApproxWithIndex(context.Background(), ix, index.Problem1, 6, greedy.Options{Lazy: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != len(want.Nodes) {
		t.Fatalf("%d nodes, want %d", len(res.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		if res.Nodes[i] != want.Nodes[i] {
			t.Fatalf("nodes %v, want %v", res.Nodes, want.Nodes)
		}
		if math.Float64bits(res.Gains[i]) != math.Float64bits(want.Gains[i]) {
			t.Fatalf("gain[%d] diverges", i)
		}
	}
	if res.Problem != "F1" || res.Algorithm != "lazy" || res.Seed != 9 || res.R != 30 {
		t.Fatalf("echo fields %+v", res)
	}
}

func TestReadEndpointsRoundTrip(t *testing.T) {
	_, c := harness(t, server.Config{})
	ctx := context.Background()

	gr, err := c.Gain(ctx, client.GainRequest{Graph: "test", L: 4, R: 20, Set: []int{1, 2}, Nodes: []int{0, 5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Gains) != 3 || gr.Memo != "miss" {
		t.Fatalf("first gain %+v", gr)
	}
	gr2, err := c.Gain(ctx, client.GainRequest{Graph: "test", L: 4, R: 20, Set: []int{2, 1}, Nodes: []int{0, 5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if gr2.Memo != "hit" {
		t.Fatalf("repeat gain memo %q, want hit", gr2.Memo)
	}
	for i := range gr.Gains {
		if math.Float64bits(gr.Gains[i]) != math.Float64bits(gr2.Gains[i]) {
			t.Fatal("memoized gains diverge")
		}
	}

	or, err := c.Objective(ctx, client.ObjectiveRequest{Graph: "test", L: 4, R: 20, Set: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if or.Objective <= 0 {
		t.Fatalf("objective %v", or.Objective)
	}

	tg, err := c.TopGains(ctx, client.TopGainsRequest{Graph: "test", L: 4, R: 20, Set: []int{1}, B: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tg.Nodes) != 5 || tg.B != 5 {
		t.Fatalf("topgains %+v", tg)
	}

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Graphs != 1 {
		t.Fatalf("health %+v err %v", h, err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Memo.Enabled || st.Memo.Hits < 1 || st.Cache.Resident != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestWireStatsEndpoints reads the per-route block of /stats through the
// typed client: the daemon encodes client.Stats itself, so every block it
// sends reaches the SDK.
func TestWireStatsEndpoints(t *testing.T) {
	_, c := harness(t, server.Config{})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Gain(ctx, client.GainRequest{Graph: "test", L: 4, R: 20, Nodes: []int{3}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Gain(ctx, client.GainRequest{Graph: "nope", L: 4, Nodes: []int{3}}); client.CodeOf(err) != client.CodeNotFound {
		t.Fatalf("unknown graph: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gain, ok := st.Endpoints["gain"]
	if !ok || gain.Requests != 3 || gain.Errors != 1 || gain.Latency.Count != 3 {
		t.Fatalf("gain endpoint %+v (present %v), want 3 requests, 1 error", gain, ok)
	}
	if len(gain.Latency.Buckets) != 0 {
		t.Fatalf("Stats asks for buckets=0, got %d buckets", len(gain.Latency.Buckets))
	}
	for _, route := range []string{"select", "objective", "topgains", "mutate", "partial_gain", "partial_topgains", "healthz", "stats"} {
		if _, ok := st.Endpoints[route]; !ok {
			t.Errorf("no %q entry in %v", route, st.Endpoints)
		}
	}
}

// The streaming iterator must reassemble bit-identically into the blocking
// reply — the SDK half of the streaming parity criterion.
func TestSelectStreamRoundTrip(t *testing.T) {
	_, c := harness(t, server.Config{})
	ctx := context.Background()
	req := client.SelectRequest{Graph: "test", K: 6, L: 4, R: 25, Algorithm: client.AlgorithmPlain, Workers: 2}

	blocking, err := c.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SelectStream(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var rounds []client.Round
	for st.Next() {
		rounds = append(rounds, st.Round())
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != len(blocking.Nodes) {
		t.Fatalf("%d rounds for %d picks", len(rounds), len(blocking.Nodes))
	}
	for i, rd := range rounds {
		if rd.Round != i+1 || rd.Node != blocking.Nodes[i] {
			t.Fatalf("round %d: %+v, want node %d", i+1, rd, blocking.Nodes[i])
		}
		if math.Float64bits(rd.Gain) != math.Float64bits(blocking.Gains[i]) {
			t.Fatalf("round %d gain diverges", i+1)
		}
	}
	for i := range blocking.Nodes {
		if res.Nodes[i] != blocking.Nodes[i] {
			t.Fatalf("stream result nodes %v, want %v", res.Nodes, blocking.Nodes)
		}
	}
	if math.Float64bits(res.Objective) != math.Float64bits(blocking.Objective) {
		t.Fatalf("stream objective %v, want %v", res.Objective, blocking.Objective)
	}
}

// TestWireStreamErrorLine feeds the stream decoder a round line, a line of
// an unknown shape, and a terminal error envelope: the round is delivered,
// the unknown line skipped, and the envelope surfaces as a typed *Error.
func TestWireStreamErrorLine(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write([]byte(`{"round":1,"node":4,"gain":2.5,"objective":2.5}` + "\n" +
			`{"progress":0.5}` + "\n" +
			`{"error":{"code":"timeout","message":"deadline exceeded"}}` + "\n"))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SelectStream(context.Background(), client.SelectRequest{Graph: "test", K: 2, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var rounds []client.Round
	for st.Next() {
		rounds = append(rounds, st.Round())
	}
	if want := (client.Round{Round: 1, Node: 4, Gain: 2.5, Objective: 2.5}); len(rounds) != 1 || rounds[0] != want {
		t.Fatalf("rounds %+v, want [%+v]", rounds, want)
	}
	_, err = st.Result()
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != client.CodeTimeout || ce.Message != "deadline exceeded" || ce.HTTPStatus != http.StatusOK {
		t.Fatalf("stream error %#v, want a typed timeout", err)
	}
}

func TestTypedErrors(t *testing.T) {
	_, c := harness(t, server.Config{})
	ctx := context.Background()

	_, err := c.Select(ctx, client.SelectRequest{Graph: "nope", K: 3, L: 4})
	if client.CodeOf(err) != client.CodeNotFound {
		t.Fatalf("unknown graph: %v (code %q)", err, client.CodeOf(err))
	}
	var ce *client.Error
	if !asError(err, &ce) || ce.HTTPStatus != http.StatusNotFound {
		t.Fatalf("unknown graph error %#v", err)
	}

	if _, err := c.Select(ctx, client.SelectRequest{Graph: "test", K: 0, L: 4}); client.CodeOf(err) != client.CodeBadRequest {
		t.Fatalf("k=0: code %q", client.CodeOf(err))
	}
	if _, err := c.Gain(ctx, client.GainRequest{Graph: "test", L: 4, Nodes: []int{999999}}); client.CodeOf(err) != client.CodeBadRequest {
		t.Fatalf("out-of-range node: code %q", client.CodeOf(err))
	}

	// Draining (emulated at the wire — the real drain window is exercised
	// in internal/server's lifecycle tests): with retries disabled the
	// typed, Temporary error surfaces immediately.
	drain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"draining","message":"server is draining"}}`))
	}))
	t.Cleanup(drain.Close)
	noRetry, err := client.New(drain.URL, client.WithRetry(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var de *client.Error
	if _, err := noRetry.Select(ctx, client.SelectRequest{Graph: "test", K: 3, L: 4}); client.CodeOf(err) != client.CodeDraining || !asError(err, &de) || !de.Temporary() {
		t.Fatalf("draining: %#v (code %q)", err, client.CodeOf(err))
	}
}

// A daemon mid-rolling-restart answers 503/draining for a moment; the
// client must ride it out and succeed against the recovered backend.
func TestRetryOnDrain(t *testing.T) {
	g := testGraph(t)
	s, err := server.New(server.Config{Graphs: map[string]*graph.Graph{"test": g}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"draining","message":"server is draining"}}`))
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	c, err := client.New(flaky.URL, client.WithRetry(3, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Select(context.Background(), client.SelectRequest{Graph: "test", K: 3, L: 4, R: 20})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("%d nodes", len(res.Nodes))
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3 (2 drains + 1 success)", got)
	}

	// Retries exhausted: the typed drain error surfaces.
	calls.Store(-100)
	if _, err := c.Select(context.Background(), client.SelectRequest{Graph: "test", K: 3, L: 4, R: 20}); client.CodeOf(err) != client.CodeDraining {
		t.Fatalf("exhausted retries: code %q (%v)", client.CodeOf(err), err)
	}
}

// An overload shed carries Retry-After; the client must honor the hint over
// its own backoff. Here the base backoff is deliberately enormous (10s) and
// the daemon says "Retry-After: 0" — the call must recover immediately, not
// after the local schedule.
func TestRetryOnOverloadHonorsRetryAfterZero(t *testing.T) {
	testleak.Check(t)
	g := testGraph(t)
	s, err := server.New(server.Config{Graphs: map[string]*graph.Graph{"test": g}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":{"code":"overloaded","message":"admission queue full"}}`))
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	c, err := client.New(flaky.URL, client.WithRetry(3, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	res, err := c.Select(ctx, client.SelectRequest{Graph: "test", K: 3, L: 4, R: 20})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if len(res.Nodes) != 3 || calls.Load() != 3 {
		t.Fatalf("nodes=%d calls=%d, want 3/3", len(res.Nodes), calls.Load())
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("recovery took %v — Retry-After: 0 was not honored over the 10s backoff", elapsed)
	}

	// Retries exhausted: the typed overloaded error surfaces, Temporary and
	// carrying the parsed hint.
	calls.Store(-100)
	var oe *client.Error
	_, err = c.Select(ctx, client.SelectRequest{Graph: "test", K: 3, L: 4, R: 20})
	if client.CodeOf(err) != client.CodeOverloaded || !asError(err, &oe) || !oe.Temporary() || !oe.HasRetryAfter || oe.RetryAfter != 0 {
		t.Fatalf("exhausted retries: %#v (code %q)", err, client.CodeOf(err))
	}
}

// Two real clients hammering an always-overloaded daemon concurrently
// exercise the jittered retry path under the race detector; the schedule
// divergence itself is asserted in-package (retry_test.go).
func TestConcurrentRetryingClientsDoNotSynchronize(t *testing.T) {
	testleak.Check(t)
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"admission queue full"}}`))
	}))
	t.Cleanup(shed.Close)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.New(shed.URL, client.WithRetry(4, time.Millisecond))
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = c.Objective(context.Background(), client.ObjectiveRequest{Graph: "test", L: 4, Set: []int{1}})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if client.CodeOf(err) != client.CodeOverloaded {
			t.Fatalf("client %d: code %q (%v), want overloaded", i, client.CodeOf(err), err)
		}
	}
}

// asError is errors.As specialized to *client.Error without importing errors.
func asError(err error, target **client.Error) bool {
	ce, ok := err.(*client.Error)
	if ok {
		*target = ce
	}
	return ok
}

func TestApplyDeltaRoundTrip(t *testing.T) {
	g := testGraph(t)
	_, c := harness(t, server.Config{Graphs: map[string]*graph.Graph{"test": g}})
	ctx := context.Background()

	// Mutate through the SDK: remove one real edge, add one node wired in.
	u := 0
	for g.Degree(u) == 0 {
		u++
	}
	v := int(g.Neighbors(u)[0])
	base := uint64(0)
	res, err := c.ApplyDelta(ctx, client.ApplyDeltaRequest{
		Graph:     "test",
		AddNodes:  1,
		Add:       []client.Edge{{U: g.N(), V: u}},
		Remove:    []client.Edge{{U: u, V: v}},
		BaseEpoch: &base,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != "test" || res.Epoch != 1 || res.Nodes != g.N()+1 || res.Touched == 0 {
		t.Fatalf("mutation reply %+v", res)
	}

	// The mutation is visible to reads: the appended node is a valid
	// candidate now, and its gain reflects the new edge.
	gr, err := c.Gain(ctx, client.GainRequest{Graph: "test", L: 4, R: 20, Nodes: []int{g.N()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.Gains) != 1 || gr.Gains[0] <= 0 {
		t.Fatalf("post-mutation gain of the appended node: %+v", gr)
	}

	// Typed conflict on a stale base epoch, carried through the envelope.
	_, err = c.ApplyDelta(ctx, client.ApplyDeltaRequest{
		Graph: "test", Add: []client.Edge{{U: 1, V: 2}}, BaseEpoch: &base,
	})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != client.CodeConflict || ce.HTTPStatus != http.StatusConflict {
		t.Fatalf("stale base epoch: %v, want typed %s/409", err, client.CodeConflict)
	}

	// Epoch-pinned partial reads: the current pin answers, a stale pin is a
	// typed stale_epoch — the coordinator's mixed-epoch-merge guard on the
	// wire.
	pin := uint64(1)
	if _, err := c.PartialGain(ctx, client.PartialGainRequest{
		Graph: "test", L: 4, R0: 0, R1: 20, Nodes: []int{1}, Epoch: &pin,
	}); err != nil {
		t.Fatalf("current-epoch pin: %v", err)
	}
	stale := uint64(0)
	_, err = c.PartialGain(ctx, client.PartialGainRequest{
		Graph: "test", L: 4, R0: 0, R1: 20, Nodes: []int{1}, Epoch: &stale,
	})
	if !errors.As(err, &ce) || ce.Code != client.CodeStaleEpoch {
		t.Fatalf("stale-epoch pin: %v, want typed %s", err, client.CodeStaleEpoch)
	}
}
