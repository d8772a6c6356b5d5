package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/client"
	"repro/internal/graph"
)

// streamLine is the union of the three NDJSON line shapes, distinguished by
// which fields are present.
type streamLine struct {
	Round      int                    `json:"round"`
	Node       *int                   `json:"node"`
	Gain       float64                `json:"gain"`
	Objective  float64                `json:"objective"`
	CIWidth    float64                `json:"ci_width"`
	Replicates int                    `json:"replicates"`
	Done       bool                   `json:"done"`
	Result     *client.SelectResponse `json:"result"`
	client.ErrorResponse
}

// postSelectStream posts body with ?stream=1 and parses every NDJSON line.
func postSelectStream(t *testing.T, url, body string) (rounds []streamLine, done *client.SelectResponse, errLine *client.ErrorResponse, resp *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/select?stream=1", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er client.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("undecodable %d error body: %v", resp.StatusCode, err)
		}
		return nil, nil, &er, resp
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error.Code != "":
			errLine = &line.ErrorResponse
		case line.Done:
			done = line.Result
		default:
			rounds = append(rounds, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rounds, done, errLine, resp
}

// TestStreamSelectParity is the HTTP half of the streaming acceptance
// criterion: the NDJSON rounds of POST /v1/select?stream=1 concatenate
// bit-identically into the blocking /v1/select reply, for both problems,
// lazy and plain, across worker counts.
func TestStreamSelectParity(t *testing.T) {
	g := testGraph(t, 500, 21)
	s := newTestServer(t, Config{Graphs: map[string]*graph.Graph{"test": g}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, problem := range []string{"hitting", "coverage"} {
		for _, algorithm := range []string{"lazy", "plain"} {
			for _, workers := range []int{1, 2} {
				body := fmt.Sprintf(`{"graph":"test","problem":%q,"k":6,"L":5,"R":25,"seed":9,"algorithm":%q,"workers":%d}`,
					problem, algorithm, workers)
				want, resp := postSelect(t, ts.URL, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("blocking select: status %d", resp.StatusCode)
				}
				rounds, done, errLine, resp := postSelectStream(t, ts.URL, body)
				if errLine != nil {
					t.Fatalf("stream error: %+v", errLine)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
					t.Fatalf("stream content type %q", ct)
				}
				if done == nil {
					t.Fatal("stream ended without a done line")
				}
				if len(rounds) != len(want.Nodes) {
					t.Fatalf("%s/%s: %d rounds, want %d", problem, algorithm, len(rounds), len(want.Nodes))
				}
				total := 0.0
				for i, rd := range rounds {
					if rd.Round != i+1 || rd.Node == nil {
						t.Fatalf("%s/%s: malformed round line %+v at %d", problem, algorithm, rd, i)
					}
					if *rd.Node != want.Nodes[i] {
						t.Fatalf("%s/%s: round %d node %d, want %d", problem, algorithm, i+1, *rd.Node, want.Nodes[i])
					}
					if math.Float64bits(rd.Gain) != math.Float64bits(want.Gains[i]) {
						t.Fatalf("%s/%s: round %d gain %v, want %v", problem, algorithm, i+1, rd.Gain, want.Gains[i])
					}
					total += rd.Gain
					if math.Float64bits(rd.Objective) != math.Float64bits(total) {
						t.Fatalf("%s/%s: round %d objective %v, want %v", problem, algorithm, i+1, rd.Objective, total)
					}
				}
				// The done line carries the blocking reply shape with the same
				// payload (timings and coalescing legitimately differ run to run).
				if done.Graph != want.Graph || done.Problem != want.Problem || done.K != want.K ||
					done.L != want.L || done.R != want.R || done.Seed != want.Seed ||
					done.Algorithm != want.Algorithm || done.Workers != want.Workers {
					t.Fatalf("done echo %+v, want %+v", done, want)
				}
				for i := range want.Nodes {
					if done.Nodes[i] != want.Nodes[i] || math.Float64bits(done.Gains[i]) != math.Float64bits(want.Gains[i]) {
						t.Fatalf("done payload diverges from blocking reply at %d", i)
					}
				}
				if math.Float64bits(done.Objective) != math.Float64bits(want.Objective) {
					t.Fatalf("done objective %v, want %v", done.Objective, want.Objective)
				}
				if done.Evaluations != want.Evaluations {
					t.Fatalf("done evaluations %d, want %d", done.Evaluations, want.Evaluations)
				}
			}
		}
	}
}

// Validation failures on the streaming path must arrive as normal HTTP
// error envelopes, not NDJSON lines — the status is still uncommitted.
func TestStreamSelectValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown graph", `{"graph":"nope","k":3,"L":4}`, http.StatusNotFound, "not_found"},
		{"zero k", `{"graph":"test","k":0,"L":4}`, http.StatusBadRequest, "bad_request"},
	} {
		_, done, errLine, resp := postSelectStream(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if done != nil {
			t.Errorf("%s: unexpected done line", tc.name)
		}
		if errLine == nil || errLine.Error.Code != tc.code {
			t.Errorf("%s: error %+v, want code %q", tc.name, errLine, tc.code)
		}
	}
}
