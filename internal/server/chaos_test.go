package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/graph"
)

// The chaos suite hammers the full HTTP stack with deterministic faults
// armed at every injection site and checks the robustness contract from the
// outside: every response is either a success whose payload is bit-identical
// to the fault-free answer, or a failure with a stable typed code; no
// goroutine leaks (newTestServer wires testleak into every test); and once
// traffic stops, cache refcounts conserve — nothing stays pinned.

// chaosCanon is the deterministic part of a response: node choices, gain
// values and objectives are exact for a given (graph, L, R, seed, set)
// regardless of caching, coalescing, degradation or faults. Timing fields
// and cache markers legitimately vary and are not compared.
type chaosCanon struct {
	nodes     []int
	gains     []float64
	objective float64
}

type chaosItem struct{ name, method, path, body string }

// chaosWorkload is the fixed request mix. Three select seeds defeat
// coalescing and — against a CacheSize=2 server — force continuous index
// eviction, spill and rebuild churn, so the spill fault sites see traffic.
var chaosWorkload = []chaosItem{
	{"select-s1", http.MethodPost, "/v1/select", `{"graph":"test","k":5,"L":4,"R":25,"seed":1,"workers":2}`},
	{"select-s2", http.MethodPost, "/v1/select", `{"graph":"test","k":5,"L":4,"R":25,"seed":2,"workers":2}`},
	{"select-s3", http.MethodPost, "/v1/select", `{"graph":"test","k":5,"L":4,"R":25,"seed":3,"workers":2}`},
	{"gain", http.MethodGet, "/v1/gain?graph=test&L=4&R=25&seed=1&set=1,2&nodes=0,5,9", ""},
	{"objective", http.MethodGet, "/v1/objective?graph=test&L=4&R=25&seed=1&set=1,2", ""},
	{"topgains", http.MethodGet, "/v1/topgains?graph=test&L=4&R=25&seed=1&set=1&b=5", ""},
}

// chaosDo issues one workload request. A 200 parses into its canonical
// payload; any other status must carry the JSON error envelope, whose code
// is returned.
func chaosDo(hc *http.Client, base string, it chaosItem) (status int, canon *chaosCanon, code string, err error) {
	var resp *http.Response
	if it.method == http.MethodPost {
		resp, err = hc.Post(base+it.path, "application/json", strings.NewReader(it.body))
	} else {
		resp, err = hc.Get(base + it.path)
	}
	if err != nil {
		return 0, nil, "", fmt.Errorf("%s: %w", it.name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", fmt.Errorf("%s: reading body: %w", it.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		var env client.ErrorResponse
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
			return resp.StatusCode, nil, "", fmt.Errorf("%s: HTTP %d with malformed error envelope: %q", it.name, resp.StatusCode, raw)
		}
		return resp.StatusCode, nil, env.Error.Code, nil
	}
	c := &chaosCanon{}
	switch {
	case strings.HasPrefix(it.name, "select"):
		var r client.SelectResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return resp.StatusCode, nil, "", fmt.Errorf("%s: %w", it.name, err)
		}
		c.nodes, c.gains, c.objective = r.Nodes, r.Gains, r.Objective
	case it.name == "gain":
		var r client.GainResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return resp.StatusCode, nil, "", fmt.Errorf("%s: %w", it.name, err)
		}
		c.gains = r.Gains
	case it.name == "objective":
		var r client.ObjectiveResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return resp.StatusCode, nil, "", fmt.Errorf("%s: %w", it.name, err)
		}
		c.objective = r.Objective
	case it.name == "topgains":
		var r client.TopGainsResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return resp.StatusCode, nil, "", fmt.Errorf("%s: %w", it.name, err)
		}
		c.nodes, c.gains = r.Nodes, r.Gains
	}
	return resp.StatusCode, c, "", nil
}

// canonDiff reports the first bit-level divergence between two canonical
// payloads, or "".
func canonDiff(want, got *chaosCanon) string {
	if len(want.nodes) != len(got.nodes) || len(want.gains) != len(got.gains) {
		return fmt.Sprintf("shape %d nodes/%d gains, want %d/%d", len(got.nodes), len(got.gains), len(want.nodes), len(want.gains))
	}
	for i := range want.nodes {
		if want.nodes[i] != got.nodes[i] {
			return fmt.Sprintf("node[%d] = %d, want %d", i, got.nodes[i], want.nodes[i])
		}
	}
	for i := range want.gains {
		if math.Float64bits(want.gains[i]) != math.Float64bits(got.gains[i]) {
			return fmt.Sprintf("gain[%d] = %v, want %v (bits diverge)", i, got.gains[i], want.gains[i])
		}
	}
	if math.Float64bits(want.objective) != math.Float64bits(got.objective) {
		return fmt.Sprintf("objective = %v, want %v (bits diverge)", got.objective, want.objective)
	}
	return ""
}

// chaosBaseline answers the whole workload against a fault-free server and
// returns the canonical payloads.
func chaosBaseline(t *testing.T, g *graph.Graph) map[string]*chaosCanon {
	t.Helper()
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	baseline := make(map[string]*chaosCanon, len(chaosWorkload))
	for _, it := range chaosWorkload {
		status, canon, code, err := chaosDo(ts.Client(), ts.URL, it)
		if err != nil || status != http.StatusOK {
			t.Fatalf("baseline %s: status %d code %q err %v", it.name, status, code, err)
		}
		baseline[it.name] = canon
	}
	return baseline
}

// waitForZeroRefs asserts refcount conservation: once traffic stops, every
// index and memo pin taken by the request paths — including the ones that
// raced injected failures — must be released.
func waitForZeroRefs(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ix, memo := s.Cache().PinnedRefs(), s.Engine().MemoPinnedRefs()
		if ix == 0 && memo == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("refs still pinned after traffic stopped: index=%d memo=%d", ix, memo)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosFaultInjectionFullStack arms every fault site at once and hammers
// the stack concurrently. SiteSpillSave and SiteGreedyStride are armed in
// their only safe modes (error and latency respectively — the spill writer
// runs on a detached goroutine with no recover boundary, and strides run
// inside worker pools).
func TestChaosFaultInjectionFullStack(t *testing.T) {
	g := testGraph(t, 500, 11)
	baseline := chaosBaseline(t, g)

	s := newTestServer(t, Config{
		Graphs:    map[string]*graph.Graph{"test": g},
		CacheSize: 2,
		SpillDir:  t.TempDir(),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	disable := faultinject.Enable(faultinject.Plan{
		Seed: 42,
		Sites: map[string]faultinject.Fault{
			faultinject.SiteSpillSave:     {P: 0.5, Err: true},
			faultinject.SiteSpillLoad:     {P: 0.5, Err: true},
			faultinject.SiteIndexPopulate: {P: 0.3, Err: true, Latency: 200 * time.Microsecond},
			faultinject.SiteMemoPopulate:  {P: 0.3, Err: true},
			faultinject.SiteGreedyStride:  {P: 0.05, Latency: 200 * time.Microsecond},
		},
	})
	defer disable()

	const goroutines, iters = 6, 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*iters*len(chaosWorkload))
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			hc := ts.Client()
			for i := 0; i < iters; i++ {
				for wi := range chaosWorkload {
					// Stagger the mix per goroutine so distinct requests overlap.
					it := chaosWorkload[(wi+gi)%len(chaosWorkload)]
					status, canon, code, err := chaosDo(hc, ts.URL, it)
					if err != nil {
						errCh <- err
						continue
					}
					if status == http.StatusOK {
						if diff := canonDiff(baseline[it.name], canon); diff != "" {
							errCh <- fmt.Errorf("%s: success under faults diverges from fault-free run: %s", it.name, diff)
						}
						continue
					}
					switch code {
					case "internal", "overloaded", "timeout":
					default:
						errCh <- fmt.Errorf("%s: unexpected error code %q (HTTP %d)", it.name, code, status)
						continue
					}
					if want := engine.HTTPStatus(engine.Code(code)); want != status {
						errCh <- fmt.Errorf("%s: code %q served with HTTP %d, want %d", it.name, code, status, want)
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errCh)
	reported := 0
	for err := range errCh {
		if reported++; reported > 10 {
			t.Fatalf("...and more (suppressed after 10 of %d failures)", len(errCh)+reported)
		}
		t.Error(err)
	}

	// Coverage proof: every site saw traffic, and every armed fault actually
	// fired — a chaos run where a site went silent tests nothing.
	stats := faultinject.Stats()
	for _, site := range []string{
		faultinject.SiteSpillSave,
		faultinject.SiteSpillLoad,
		faultinject.SiteIndexPopulate,
		faultinject.SiteMemoPopulate,
		faultinject.SiteGreedyStride,
	} {
		st := stats[site]
		if st.Hits == 0 {
			t.Errorf("site %s saw no traffic", site)
		}
		if st.Fired == 0 {
			t.Errorf("site %s never fired (hits %d)", site, st.Hits)
		}
	}

	waitForZeroRefs(t, s)

	// Recovery: with faults disarmed, the same server answers the full
	// workload correctly — no poisoned cache entries, no stuck state.
	disable()
	for _, it := range chaosWorkload {
		status, canon, code, err := chaosDo(ts.Client(), ts.URL, it)
		if err != nil || status != http.StatusOK {
			t.Fatalf("recovery %s: status %d code %q err %v", it.name, status, code, err)
		}
		if diff := canonDiff(baseline[it.name], canon); diff != "" {
			t.Fatalf("recovery %s diverges: %s", it.name, diff)
		}
	}
	waitForZeroRefs(t, s)
}

// TestChaosOverloadBurstShedsCleanly saturates a one-slot, one-queue server
// with a burst of non-coalescable selections (distinct seeds) slowed by
// injected stride latency. The shedding contract: every response is a 200 or
// a 503 with code "overloaded" and a Retry-After header — never a hang,
// never a 500 — and the admission Shed counter accounts for every 503.
func TestChaosOverloadBurstShedsCleanly(t *testing.T) {
	g := testGraph(t, 400, 7)
	s := newTestServer(t, Config{
		Graphs:        map[string]*graph.Graph{"test": g},
		MaxConcurrent: 1,
		MaxQueue:      1,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	disable := faultinject.Enable(faultinject.Plan{
		Seed: 7,
		Sites: map[string]faultinject.Fault{
			faultinject.SiteGreedyStride: {P: 1, Latency: 2 * time.Millisecond},
		},
	})
	defer disable()

	const burst = 16
	var ok200, shed503 atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	errCh := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			<-start
			body := fmt.Sprintf(`{"graph":"test","k":4,"L":4,"R":20,"seed":%d,"workers":1}`, seed)
			resp, err := ts.Client().Post(ts.URL+"/v1/select", "application/json", strings.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusServiceUnavailable:
				var env struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "overloaded" {
					errCh <- fmt.Errorf("seed %d: 503 with code %q, want overloaded: %s", seed, env.Error.Code, raw)
					return
				}
				if resp.Header.Get("Retry-After") == "" {
					errCh <- fmt.Errorf("seed %d: overloaded shed without Retry-After header", seed)
					return
				}
				shed503.Add(1)
			default:
				errCh <- fmt.Errorf("seed %d: unexpected HTTP %d under burst: %s", seed, resp.StatusCode, raw)
			}
		}(i + 1)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if ok200.Load() == 0 {
		t.Error("burst produced no successes — the admitted work should still complete")
	}
	if shed503.Load() == 0 {
		t.Error("burst produced no sheds — the gate was never saturated, the test proves nothing")
	}
	if got := ok200.Load() + shed503.Load(); got != burst {
		t.Errorf("%d responses accounted for, want %d", got, burst)
	}
	st := s.Engine().AdmissionStats()
	if st.Shed != shed503.Load() {
		t.Errorf("admission Shed = %d, but %d overloaded responses were served — every rejection must be counted exactly once", st.Shed, shed503.Load())
	}
	waitForZeroRefs(t, s)
}

// TestChaosMemoPopulatePanicIsContained arms a guaranteed panic in memo
// population — the one site with a recover boundary — and checks the blast
// radius: the request gets a typed internal error, the daemon survives, and
// the next fault-free request succeeds (no deadlocked coalescing waiters, no
// leaked pins).
func TestChaosMemoPopulatePanicIsContained(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	disable := faultinject.Enable(faultinject.Plan{
		Seed: 3,
		Sites: map[string]faultinject.Fault{
			faultinject.SiteMemoPopulate: {P: 1, Panic: true},
		},
	})
	defer disable()

	it := chaosItem{"gain", http.MethodGet, "/v1/gain?graph=test&L=4&R=20&set=1,2&nodes=0,5,9", ""}
	status, _, code, err := chaosDo(ts.Client(), ts.URL, it)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusInternalServerError || code != "internal" {
		t.Fatalf("panicking populate: HTTP %d code %q, want 500 internal", status, code)
	}

	disable()
	status, canon, code, err := chaosDo(ts.Client(), ts.URL, it)
	if err != nil || status != http.StatusOK {
		t.Fatalf("request after contained panic: status %d code %q err %v", status, code, err)
	}
	if len(canon.gains) != 3 {
		t.Fatalf("recovered gains %+v", canon)
	}
	waitForZeroRefs(t, s)
}
