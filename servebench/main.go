// Command servebench measures rwdomd as its callers see it. It starts a
// server.New stack behind a loopback listener, drives one traffic workload
// through the client SDK from this process, checks a sample of the answers
// bit for bit against an independent in-process reference, and prints every
// metric by name with its unit and sample count. The last line of standard
// output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the workload's request sequence is replayed on a fresh
// stack at each depth — client round trip, ServeHTTP, the engine method,
// the kernel calls — with spans recorded around each call, and the metrics
// are the per-layer ones.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash servebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64 // dataset.Load scale: 1, or below 1 in the smoke test
	dir      string  // scratch space for spills and trace files
}

func main() {
	o := options{scale: 1}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 replays the workload traced and reports per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for spill files and traces")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move; Path says whether it was measured on this workload's
	// traffic or by a probe of a layer the traffic does not reach.
	Moves string `json:"moves,omitempty"`
	Path  string `json:"path,omitempty"`
}

// result is what one run reports.
type result struct {
	attempted, failed int
	checked           map[string]*classCheck // replies verified, per request class
	mismatches        int
	errCodes          map[string]int
	metrics           []metric
	notes             []string
}

func (r *result) add(m metric) { r.metrics = append(r.metrics, m) }

func (r *result) fold(o *outcome) {
	r.attempted += o.attempted
	r.failed += o.failed
	for c, n := range o.errCodes {
		r.errCodes[c] += n
	}
}

func run(o options, w io.Writer) error {
	wl := workloads[o.workload]
	if wl == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	g, err := dataset.Load(graphName, o.scale)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{o: o, wl: wl, g: g, dir: dir}
	res := &result{errCodes: map[string]int{}, checked: map[string]*classCheck{}}
	if o.trace == 0 {
		err = b.measured(res)
	} else {
		err = b.traced(res)
	}
	if err != nil {
		return err
	}
	return report(w, o, g, res)
}

// bench holds one run's inputs.
type bench struct {
	o   options
	wl  *workload
	g   *graph.Graph
	dir string
	n   int // stack directories made so far
}

func (b *bench) window() time.Duration { return time.Duration(b.o.seconds * float64(time.Second)) }

// stackDir returns a fresh directory for one stack's spill files.
func (b *bench) stackDir() string {
	b.n++
	return filepath.Join(b.dir, "stack"+strconv.Itoa(b.n))
}

// setupRuns is how many times a run measures set-up; setup_s is the median.
const setupRuns = 5

// setupOp is the request set-up waits on: a gain against the first chain
// prefix, or for selection-only traffic a k=10 select.
func (b *bench) setupOp() *op {
	ws := b.wl.walkSeeds(b.o.seed)[0]
	if b.wl.primary == opSelect {
		return &op{kind: opSelect, problem: 2, k: 10, walkSeed: ws}
	}
	return &op{kind: opGain, problem: 2, walkSeed: ws, set: []int{0, 1}, nodes: []int{2, 3, 4}}
}

// warm sends the set-up op until the reply says the index was resident.
func warm(tg target, o *op) (*reply, error) {
	for i := 0; i < 100; i++ {
		r, err := tg.call(withRequest(context.Background(), 0), o)
		if err != nil {
			return nil, fmt.Errorf("set-up %s: %w", o.kind, err)
		}
		if r.cached {
			return r, nil
		}
	}
	return nil, errors.New("set-up: index never became resident")
}

// touchAll brings a workload over several walk seeds to its steady state
// before the window opens: it selects on every seed, least popular first,
// pass after pass, until a pass builds nothing. The cache then holds only
// indexes paged in from spill files, and every seed has one, so the
// window pays no builds and no first spill of a heap index.
func (b *bench) touchAll(tg target) error {
	seeds := b.wl.walkSeeds(b.o.seed)
	if len(seeds) < 2 {
		return nil
	}
	for pass := 0; pass < 6; pass++ {
		built := false
		for i := len(seeds) - 1; i >= 0; i-- {
			r, err := tg.call(withRequest(context.Background(), 0), &op{kind: opSelect, problem: 2, k: 10, walkSeed: seeds[i]})
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			built = built || !r.cached
		}
		if pass > 0 && !built {
			return nil
		}
	}
	return errors.New("warm-up: indexes still rebuilt after 6 passes")
}

// measured is the -trace 0 run: set-up timed setupRuns times on fresh
// stacks, then the workload on the last one for the window.
func (b *bench) measured(res *result) error {
	var setups []time.Duration
	var st *stack
	var first sample
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(b.g, b.wl.stack, b.stackDir(), nil); err != nil {
			return err
		}
		o := b.setupOp()
		r, err := warm(httpTarget{cl: st.cl}, o)
		if err != nil {
			st.close()
			return err
		}
		setups = append(setups, time.Since(t0))
		first = sample{o: o, r: r}
	}
	defer st.close()
	tg := httpTarget{cl: st.cl}
	if err := b.touchAll(tg); err != nil {
		return err
	}
	cpu0 := cpuTime()
	out := drive(tg, b.wl.newLanes(b.o.seed, b.g.N(), b.window()), driveOpts{window: b.window(), sample: true})
	cpu := cpuTime() - cpu0
	hwm, retained := procStatusMB("VmHWM:"), retainedMB()
	res.fold(out)
	out.samples = append(out.samples, first)
	if err := b.verify(res, out, b.window()); err != nil {
		return err
	}

	res.add(metric{Name: "setup_s", Value: median(setups).Seconds(), Unit: "s", Samples: len(setups)})
	all := out.all()
	res.add(metric{Name: "p50_ms", Value: ms(pct(all, 50)), Unit: "ms", Samples: len(all)})
	res.add(metric{Name: "tail_ms", Value: ms(pct(all, b.wl.tailPct)), Unit: "ms", Samples: len(all)})
	res.add(metric{Name: "ops_rps", Value: float64(len(all)) / out.elapsed.Seconds(), Unit: "1/s", Samples: len(all)})
	res.add(metric{Name: "cpu_ms_per_op", Value: ms(cpu) / float64(max(1, len(all))), Unit: "ms", Samples: len(all)})
	res.add(metric{Name: "retained_mb", Value: retained, Unit: "MB", Samples: 1})
	res.add(metric{Name: "peak_rss_mb", Value: hwm, Unit: "MB", Samples: 1})
	res.notes = append(res.notes, fmt.Sprintf("tail_ms is p%g: %d samples beyond it", b.wl.tailPct, beyond(len(all), b.wl.tailPct)),
		fmt.Sprintf("latency profile ms: p10=%.3f p25=%.3f p40=%.3f p60=%.3f p75=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f",
			ms(pct(all, 10)), ms(pct(all, 25)), ms(pct(all, 40)), ms(pct(all, 60)), ms(pct(all, 75)),
			ms(pct(all, 90)), ms(pct(all, 95)), ms(pct(all, 99)), ms(pct(all, 100))))
	classMetrics(res, out)
	return nil
}

// classMetrics reports the per-class latencies and the error rate, which
// counts wrong answers too, so it must run after verification. They are
// printed for every run but only the workload-wide numbers go in the
// result object, since each class exists on some workloads only.
func classMetrics(res *result, out *outcome) {
	type q struct {
		kind opKind
		pct  float64
		unit string
	}
	for _, c := range []q{{opGain, 50, "us"}, {opGain, 99, "us"}, {opTopGains, 50, "ms"}, {opTopGains, 99, "ms"},
		{opObjective, 50, "us"}, {opSelect, 50, "ms"}, {opSelect, 90, "ms"}, {opMutate, 50, "ms"}, {opMutate, 90, "ms"}} {
		xs := out.lat[c.kind]
		if len(xs) == 0 {
			continue
		}
		v := pct(xs, c.pct)
		val := ms(v)
		if c.unit == "us" {
			val = float64(v) / 1e3
		}
		name := fmt.Sprintf("%s_p%g_%s", c.kind, c.pct, c.unit)
		res.add(metric{Name: name, Value: val, Unit: c.unit, Samples: len(xs)})
		if c.pct > 50 && beyond(len(xs), c.pct) < 10 {
			res.notes = append(res.notes, fmt.Sprintf("%s: only %d samples beyond p%g", name, beyond(len(xs), c.pct), c.pct))
		}
	}
	res.add(metric{Name: "error_rate", Value: float64(res.failed) / float64(max(1, res.attempted)), Unit: "ratio", Samples: res.attempted})
}

// verify checks the sampled replies against the reference and counts
// every mismatch as a failed request.
func (b *bench) verify(res *result, out *outcome, window time.Duration) error {
	var deltas []*op
	for i, l := range b.wl.newLanes(b.o.seed, b.g.N(), window) {
		if l.name != "writer" {
			continue
		}
		for j := 0; j < out.taken[i]; j++ {
			deltas = append(deltas, l.gen())
		}
	}
	v := newVerifier(b.g, deltas)
	per, bad, err := v.check(out.samples)
	if err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	res.mismatches += bad
	res.failed += bad
	if bad > 0 {
		res.errCodes["wrong_answer"] += bad
	}
	for k := opKind(0); k < opMutate; k++ {
		c, want := per[k.String()], min(overlapPerClass, len(out.lat[k]))
		if c == nil && want == 0 {
			continue
		}
		if c == nil || c.Checked < want {
			return fmt.Errorf("verification: too few %s replies checked (want %d)", k, want)
		}
		t := res.checked[k.String()]
		if t == nil {
			t = &classCheck{}
			res.checked[k.String()] = t
		}
		t.Kept += c.Kept
		t.Checked += c.Checked
		t.KeptOverlap += c.KeptOverlap
		t.CheckedOverlap += c.CheckedOverlap
	}
	return nil
}

// report prints the metric lines, the run record and the result object.
func report(w io.Writer, o options, g *graph.Graph, res *result) error {
	for _, m := range res.metrics {
		line := fmt.Sprintf("metric %-28s %14.6g %-6s samples=%d", m.Name, m.Value, m.Unit, m.Samples)
		if m.Moves != "" {
			line += " moves=" + m.Moves
		}
		if m.Path != "" {
			line += " path=" + m.Path
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note", n)
	}
	rec := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"git_sha": gitSHA(), "source_sha256": sourceDigest(),
		"graph":           map[string]int{"nodes": g.N(), "edges": g.M()},
		"replies_checked": res.checked, "wrong_answers": res.mismatches, "errors": res.errCodes,
		"metrics": res.metrics,
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", recJSON)

	final := map[string]any{}
	for _, m := range res.metrics {
		if isResultMetric(o.trace, m.Name) {
			final[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	last, err := json.Marshal(map[string]any{
		"correct": res.mismatches == 0, "attempted": res.attempted, "failed": res.failed, "metrics": final,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// endToEnd lists the metrics of a -trace 0 result object: set-up time and
// the CPU cost per request, whose spread over ten seeds stayed within 8%
// on the 2-vCPU reference VM. Host CPU steal there moved the latencies and
// the closed-loop throughput by up to a quarter between runs, and memory
// swung by up to a factor of four on churn, so those are printed but not
// gated.
var endToEnd = []string{"setup_s", "cpu_ms_per_op"}

func isResultMetric(trace int, name string) bool {
	if trace == 0 {
		for _, n := range endToEnd {
			if n == name {
				return true
			}
		}
		return false
	}
	_, ok := layerMoves[name]
	return ok
}

func pct(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p/100*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []time.Duration) time.Duration { return pct(xs, 50) }

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return n - int(p/100*float64(n)+0.999999) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// procStatusMB reads one kB field of /proc/self/status, such as VmRSS or
// VmHWM, in MB.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedMB is the live heap once traffic has stopped: two collections
// (the second frees what finalizers released) and the runtime's count of
// the bytes the last one marked.
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return float64(m[0].Value.Uint64()) / (1 << 20)
}

// gitSHA returns the commit the checkout is at, read from .git without
// running git, or "none" when the checkout is not a repository.
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the checkout, so
// a record names the code it measured even where there is no .git.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
