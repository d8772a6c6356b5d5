package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// classesOf lists the request classes each workload sends, whose latency
// metrics its measured runs must print.
var classesOf = map[string][]string{
	"explore": {"gain_p50_us", "gain_p99_us", "topgains_p50_ms", "topgains_p99_ms", "objective_p50_us"},
	"place":   {"select_p50_ms", "select_p90_ms"},
	"churn":   {"gain_p50_us", "gain_p99_us", "topgains_p50_ms", "select_p50_ms", "mutate_p50_ms", "mutate_p90_ms"},
	"sharded": {"gain_p50_us", "gain_p99_us", "topgains_p50_ms", "select_p50_ms", "select_p90_ms"},
}

// TestSmoke runs every workload at a tiny size, measured and traced, and
// checks that each named metric is printed with its unit and sample count,
// that no request failed, and that the last line is the result object.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			var out bytes.Buffer
			o := options{workload: name, seed: 7, seconds: 1, trace: trace, scale: 0.05, dir: t.TempDir()}
			if err := run(o, &out); err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			printed := map[string][]string{}
			for _, l := range lines {
				if f := strings.Fields(l); len(f) >= 5 && f[0] == "metric" {
					printed[f[1]] = f[2:]
				}
			}
			want := append([]string(nil), endToEnd...)
			want = append(want, "error_rate", "p50_ms", "tail_ms", "ops_rps", "peak_rss_mb", "retained_mb")
			want = append(want, classesOf[name]...)
			if trace == 1 {
				want = want[:0]
				for m := range layerMoves {
					want = append(want, m)
				}
			}
			for _, m := range want {
				f, ok := printed[m]
				if !ok {
					t.Errorf("%s trace=%d: metric %s not printed", name, trace, m)
					continue
				}
				if f[1] == "" || !strings.HasPrefix(f[2], "samples=") {
					t.Errorf("%s trace=%d: metric %s lacks unit or sample count: %v", name, trace, m, f)
				}
				if trace == 1 && !strings.Contains(strings.Join(f, " "), "moves=") {
					t.Errorf("%s trace=%d: metric %s is not tagged with what it moves", name, trace, m)
				}
			}
			if trace == 0 && printed["error_rate"][0] != "0" {
				t.Errorf("%s: error_rate = %s, want 0", name, printed["error_rate"][0])
			}

			var res struct {
				Correct   *bool                                        `json:"correct"`
				Attempted *int                                         `json:"attempted"`
				Failed    *int                                         `json:"failed"`
				Metrics   map[string]struct{ Value, Unit interface{} } `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result object: %v", name, trace, err)
			}
			if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
				t.Errorf("%s trace=%d: result %s", name, trace, lines[len(lines)-1])
				for _, l := range lines {
					if strings.HasPrefix(l, "record ") {
						t.Log(l)
					}
				}
			}
			wantN := len(endToEnd)
			if trace == 1 {
				wantN = len(layerMoves)
			}
			if len(res.Metrics) != wantN {
				t.Errorf("%s trace=%d: result has %d metrics, want %d", name, trace, len(res.Metrics), wantN)
			}
		}
	}
}
