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
	"testing"
	"time"

	"repro/client"
	"repro/internal/graph"
)

// postDelta issues one POST /v1/graph/{name}/edges and decodes either reply
// shape.
func postDelta(t *testing.T, hc *http.Client, base, name, body string) (int, *client.ApplyDeltaResponse, string) {
	t.Helper()
	resp, err := hc.Post(base+"/v1/graph/"+name+"/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var env client.ErrorResponse
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
			t.Fatalf("mutate HTTP %d with malformed error envelope: %q", resp.StatusCode, raw)
		}
		return resp.StatusCode, nil, env.Error.Code
	}
	var out client.ApplyDeltaResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("mutate reply: %v (%q)", err, raw)
	}
	return resp.StatusCode, &out, ""
}

// TestGoldenMutateShapes pins the mutation endpoint's wire contract: the
// success reply (with incremental-repair accounting against a warm server)
// and the two mutation-specific error codes, conflict and stale_epoch.
func TestGoldenMutateShapes(t *testing.T) {
	_, ts := goldenHarness(t)
	// Warm exactly one index and one memoized table so the success reply's
	// repair accounting is deterministic and nonzero.
	warm, err := http.Get(ts.URL + "/v1/gain?graph=golden&L=4&R=25&seed=7&set=1,2&nodes=0,5,9")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()

	// The same deterministic graph the harness serves, to pick a real edge.
	g := testGraph(t, 500, 42)
	u, v := 0, int(g.Neighbors(0)[0])
	body := fmt.Sprintf(`{"add_nodes":1,"add":[{"u":3,"v":500}],"remove":[{"u":%d,"v":%d}],"base_epoch":0}`, u, v)
	resp, err := http.Post(ts.URL+"/v1/graph/golden/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	checkGolden(t, "mutate_ok", resp.StatusCode, http.StatusOK, raw)

	// conflict: the graph moved to epoch 1 above; a stale base_epoch loses.
	resp, err = http.Post(ts.URL+"/v1/graph/golden/edges", "application/json",
		strings.NewReader(`{"add":[{"u":1,"v":3}],"base_epoch":7}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	checkGolden(t, "error_conflict", resp.StatusCode, http.StatusConflict, raw)

	// stale_epoch: a partial read pinned to an epoch the graph is not at.
	resp, err = http.Get(ts.URL + "/v1/partial/gain?graph=golden&L=4&R=25&seed=7&r0=0&r1=25&nodes=1&epoch=9")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	checkGolden(t, "partial_error_stale_epoch", resp.StatusCode, http.StatusConflict, raw)
}

// TestMutateEpochPinWire drives the epoch query parameter through the HTTP
// codec: a partial read pinned to the current epoch answers, and after a
// mutation the same pin fails typed while the new epoch's pin answers.
// Regression test for the worker boundary dropping the coordinator's pin:
// before parseEpoch was wired into the partial handlers, the epoch=N
// parameter was silently ignored and the stale pin below answered 200 from
// post-mutation state.
func TestMutateEpochPinWire(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	read := func(epoch string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/partial/gain?graph=test&L=4&R=20&r0=0&r1=20&nodes=1,2" + epoch)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusOK {
			return resp.StatusCode, ""
		}
		var env client.ErrorResponse
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("bad envelope %q", raw)
		}
		return resp.StatusCode, env.Error.Code
	}

	if status, _ := read("&epoch=0"); status != http.StatusOK {
		t.Fatalf("pre-mutation read pinned to epoch 0: HTTP %d", status)
	}
	if status, code := read("&epoch=3"); status != http.StatusConflict || code != "stale_epoch" {
		t.Fatalf("read pinned to a future epoch: HTTP %d code %q, want 409 stale_epoch", status, code)
	}
	if status, code := read("&epoch=x"); status != http.StatusBadRequest || code != "bad_request" {
		t.Fatalf("unparseable epoch: HTTP %d code %q, want 400 bad_request", status, code)
	}

	g := testGraph(t, 600, 1) // the default graph newTestServer serves
	status, res, code := postDelta(t, ts.Client(), ts.URL, "test",
		fmt.Sprintf(`{"remove":[{"u":1,"v":%d}],"base_epoch":0}`, int(g.Neighbors(1)[0])))
	if status != http.StatusOK || res.Epoch != 1 {
		t.Fatalf("mutation: HTTP %d code %q res %+v", status, code, res)
	}

	if status, code := read("&epoch=0"); status != http.StatusConflict || code != "stale_epoch" {
		t.Fatalf("stale pin after mutation: HTTP %d code %q, want 409 stale_epoch", status, code)
	}
	if status, _ := read("&epoch=1"); status != http.StatusOK {
		t.Fatalf("current pin after mutation: HTTP %d", status)
	}
	if status, _ := read(""); status != http.StatusOK {
		t.Fatalf("unpinned read after mutation: HTTP %d", status)
	}
}

// mutateChaosGainItem is the read the mutation chaos suite hammers; its node
// list includes node 5, whose adjacency every chain delta edits, so distinct
// epochs answer distinct gains.
var mutateChaosGainItem = chaosItem{"gain", http.MethodGet, "/v1/gain?graph=test&L=4&R=30&seed=3&set=1,2&nodes=0,5,9", ""}

// mutateChain builds a deterministic chain of single-edge deltas (each
// removing one surviving edge of node 5) and the resulting per-epoch graphs:
// graphs[e] is the state at epoch e, deltas[e] moves it to e+1.
func mutateChain(t *testing.T, g0 *graph.Graph, epochs int) ([]*graph.Graph, []graph.Delta) {
	t.Helper()
	graphs := []*graph.Graph{g0}
	deltas := make([]graph.Delta, 0, epochs)
	cur := g0
	for e := 0; e < epochs; e++ {
		if cur.Degree(5) == 0 {
			t.Fatalf("epoch %d: node 5 ran out of edges; lower the epoch count", e)
		}
		d := graph.Delta{RemoveEdges: []graph.Edge{{U: 5, V: int(cur.Neighbors(5)[0])}}}
		ng, _, err := cur.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
		graphs = append(graphs, ng)
		cur = ng
	}
	return graphs, deltas
}

// epochBaselines answers the chaos gain read against a fault-free unsharded
// server per epoch graph, over HTTP so float serialization matches the run
// under test bit for bit.
func epochBaselines(t *testing.T, graphs []*graph.Graph) [][]float64 {
	t.Helper()
	out := make([][]float64, len(graphs))
	for e, g := range graphs {
		s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
		ts := httptest.NewServer(s.Handler())
		status, canon, code, err := chaosDo(ts.Client(), ts.URL, mutateChaosGainItem)
		ts.Close()
		if err != nil || status != http.StatusOK {
			t.Fatalf("baseline epoch %d: status %d code %q err %v", e, status, code, err)
		}
		out[e] = canon.gains
	}
	for e := 1; e < len(out); e++ {
		if matchEpoch(out, out[e]) != e {
			t.Fatalf("epoch %d baseline is not distinct from earlier epochs — the chain deltas must change the queried gains", e)
		}
	}
	return out
}

// matchEpoch returns the first epoch whose baseline the gains vector equals
// bit for bit, or -1.
func matchEpoch(baselines [][]float64, gains []float64) int {
	for e, want := range baselines {
		if len(want) != len(gains) {
			continue
		}
		same := true
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(gains[i]) {
				same = false
				break
			}
		}
		if same {
			return e
		}
	}
	return -1
}

// TestChaosMutateUnderLoad hammers reads while a mutator walks the graph
// through a chain of epochs, unsharded and sharded. The epoch-consistency
// contract: every successful read is bit-identical to the fault-free answer
// of exactly one epoch — never a blend of pre- and post-mutation state — and
// the only acceptable failure is the sharded coordinator's typed stale_epoch
// (a read whose epoch pin lost the race to a concurrent mutation, retried
// but not infinitely). Regression test for mixed-epoch merges: an applier
// that kept serving a stale cached artifact after ApplyDelta would answer
// gains matching no single epoch.
func TestChaosMutateUnderLoad(t *testing.T) {
	const epochs = 3
	g0 := testGraph(t, 300, 11)
	chain, deltas := mutateChain(t, g0, epochs)
	baselines := epochBaselines(t, chain)

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unsharded", Config{Graphs: map[string]*graph.Graph{"test": g0}}},
		{"sharded", Config{Graphs: map[string]*graph.Graph{"test": g0}, Shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)

			// Warm the read path so mutations exercise incremental repair of
			// live artifacts, not cold rebuilds.
			if status, _, code, err := chaosDo(ts.Client(), ts.URL, mutateChaosGainItem); err != nil || status != http.StatusOK {
				t.Fatalf("warm read: status %d code %q err %v", status, code, err)
			}

			done := make(chan struct{})
			errCh := make(chan error, 256)
			seen := make([]int64, len(baselines))
			var seenMu sync.Mutex
			var wg sync.WaitGroup
			const readers = 4
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					hc := ts.Client()
					for {
						select {
						case <-done:
							return
						default:
						}
						status, canon, code, err := chaosDo(hc, ts.URL, mutateChaosGainItem)
						if err != nil {
							errCh <- err
							continue
						}
						if status != http.StatusOK {
							if code == "stale_epoch" {
								continue // typed, retryable: the pin lost a mutation race
							}
							errCh <- fmt.Errorf("read failed: HTTP %d code %q", status, code)
							continue
						}
						e := matchEpoch(baselines, canon.gains)
						if e < 0 {
							errCh <- fmt.Errorf("gains %v match no single epoch — mixed-epoch answer", canon.gains)
							continue
						}
						seenMu.Lock()
						seen[e]++
						seenMu.Unlock()
					}
				}()
			}

			for e, d := range deltas {
				time.Sleep(20 * time.Millisecond)
				body := fmt.Sprintf(`{"remove":[{"u":%d,"v":%d}],"base_epoch":%d}`, d.RemoveEdges[0].U, d.RemoveEdges[0].V, e)
				status, res, code := postDelta(t, ts.Client(), ts.URL, "test", body)
				if status != http.StatusOK {
					t.Fatalf("mutation to epoch %d: HTTP %d code %q", e+1, status, code)
				}
				if res.Epoch != uint64(e+1) {
					t.Fatalf("mutation reply epoch %d, want %d", res.Epoch, e+1)
				}
			}
			time.Sleep(20 * time.Millisecond)
			close(done)
			wg.Wait()
			close(errCh)

			reported := 0
			for err := range errCh {
				if reported++; reported > 10 {
					t.Fatal("...and more (suppressed after 10)")
				}
				t.Error(err)
			}
			distinct := 0
			var total int64
			for _, n := range seen {
				if n > 0 {
					distinct++
				}
				total += n
			}
			if total == 0 {
				t.Fatal("no successful reads completed during the mutation storm")
			}
			if distinct < 2 {
				t.Errorf("reads observed %d distinct epochs (counts %v); the storm never caught a transition", distinct, seen)
			}
			if seen[len(seen)-1] == 0 {
				// The post-storm reads below must land on the final epoch.
				status, canon, code, err := chaosDo(ts.Client(), ts.URL, mutateChaosGainItem)
				if err != nil || status != http.StatusOK {
					t.Fatalf("post-storm read: status %d code %q err %v", status, code, err)
				}
				if e := matchEpoch(baselines, canon.gains); e != len(baselines)-1 {
					t.Fatalf("post-storm read matched epoch %d, want final %d", e, len(baselines)-1)
				}
			}
			waitForZeroRefs(t, s)
		})
	}
}
