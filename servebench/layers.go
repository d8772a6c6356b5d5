package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/rng"
)

// layerMoves names, for each per-layer metric, the end-to-end metric and
// workload it should move: first the printed latency or memory figure,
// then in parentheses the gated metric it feeds, when it costs CPU.
var layerMoves = map[string]string{
	"server.self_us":              "gain_p50_us@explore (cpu_ms_per_op@explore)",
	"server.resp_bytes":           "gain_p50_us@explore (cpu_ms_per_op@explore)",
	"server.net_us":               "gain_p50_us@explore (cpu_ms_per_op@explore)",
	"engine.memo_hit_ratio":       "gain_p99_us@explore (cpu_ms_per_op@explore)",
	"engine.memo_extended":        "gain_p99_us@explore (cpu_ms_per_op@explore)",
	"engine.memo_misses":          "gain_p99_us@explore (cpu_ms_per_op@explore)",
	"engine.memo_invalidated":     "gain_p99_us@churn (cpu_ms_per_op@churn)",
	"engine.degraded":             "gain_p99_us@churn (cpu_ms_per_op@churn)",
	"engine.admission_wait_ms":    "select_p90_ms@place, error_rate@place",
	"engine.shed":                 "select_p90_ms@place, error_rate@place",
	"engine.selects_coalesced":    "select_p50_ms@place (cpu_ms_per_op@place)",
	"cache.hit_ratio":             "select_p50_ms@place (cpu_ms_per_op@place)",
	"cache.evictions":             "select_p50_ms@place (cpu_ms_per_op@place)",
	"cache.spill_saves":           "select_p50_ms@place (cpu_ms_per_op@place)",
	"cache.mmap_loads":            "select_p50_ms@place (cpu_ms_per_op@place)",
	"index.build_ms":              "setup_s@all, select_p90_ms@churn (cpu_ms_per_op@churn)",
	"index.dtable_ms":             "gain_p99_us@explore (cpu_ms_per_op@explore)",
	"index.extend_ms":             "gain_p99_us@explore (cpu_ms_per_op@explore)",
	"index.gain_ns_per_candidate": "gain_p50_us@explore (cpu_ms_per_op@explore)",
	"index.repair_ms":             "mutate_p50_ms@churn (cpu_ms_per_op@churn)",
	"index.resident_bytes":        "peak_rss_mb@all",
	"store.load_ms":               "select_p50_ms@place (cpu_ms_per_op@place)",
	"store.decode_miss_ratio":     "select_p50_ms@place (cpu_ms_per_op@place)",
	"store.mapped_bytes":          "select_p50_ms@place, peak_rss_mb@place",
	"walk.walks_per_s":            "setup_s@all",
	"greedy.select_ms":            "select_p50_ms@place (cpu_ms_per_op@place)",
	"greedy.evals_per_pick":       "select_p50_ms@place (cpu_ms_per_op@place)",
	"core.topgains_ms":            "topgains_p50_ms@explore, gain_p99_us@explore (cpu_ms_per_op@explore)",
	"graph.apply_delta_ms":        "mutate_p50_ms@churn (cpu_ms_per_op@churn)",
	"graph.touched":               "mutate_p50_ms@churn (cpu_ms_per_op@churn)",
	"shard.scatter_ms":            "select_p50_ms@sharded (cpu_ms_per_op@sharded)",
	"shard.partials_per_select":   "select_p50_ms@sharded (cpu_ms_per_op@sharded)",
	"shard.merge_ms":              "select_p50_ms@sharded",
	"loadgen.late_p99_ms":         "tail_ms@explore",
	"trace.overhead_pct":          "none: tracing cost, traced minus untraced p50",
}

// traced is the -trace 1 run. Depth 1 runs the workload for a quarter of
// the window with tracing off and records how many requests each lane
// sent; depths 2 to 4 replay exactly those requests on fresh stacks with
// spans at the server, engine and kernel boundaries.
func (b *bench) traced(res *result) error {
	part := b.window() / 4
	if part < time.Second {
		part = time.Second
	}
	setup := b.setupOp()

	// Depth 1: client round trip only, tracing off.
	st, err := startStack(b.g, b.wl.stack, b.stackDir(), nil)
	if err != nil {
		return err
	}
	d1, err := b.depth(httpTarget{cl: st.cl}, setup, part, driveOpts{window: part, sample: true}, nil)
	st.close()
	if err != nil {
		return err
	}
	res.fold(d1)
	if err := b.verify(res, d1, part); err != nil {
		return err
	}
	replay := driveOpts{limit: d1.taken, pace: d1.sent}

	// Depth 2: client round trip and ServeHTTP.
	t2 := newTracer(2)
	st, err = startStack(b.g, b.wl.stack, b.stackDir(), t2)
	if err != nil {
		return err
	}
	d2, err := b.depth(httpTarget{cl: st.cl, t: t2}, setup, part, replay, nil)
	st.close()
	if err != nil {
		return err
	}
	res.fold(d2)

	// Depth 3: the engine (or shard coordinator) methods. Its counters are
	// read after the warm-up and after the replay, and reported as the
	// difference, so set-up and warm-up work stay out as they do in the
	// measured window.
	t3 := newTracer(3)
	es, err := newEngineStack(b.g, b.wl.stack, b.stackDir(), t3)
	if err != nil {
		return err
	}
	defer es.close()
	var warm counters
	d3, err := b.depth(engineTarget{es: es, t: t3}, setup, part, replay, func() { warm = es.counters() })
	if err != nil {
		return err
	}
	res.fold(d3)
	replayed := es.counters()

	// Depth 4: the kernel calls.
	t4 := newTracer(4)
	kt, err := newKernelTarget(b.g, b.wl.stack, b.stackDir(), t4)
	if err != nil {
		return err
	}
	d4, err := b.depth(kt, setup, part, replay, nil)
	if err != nil {
		return err
	}
	res.fold(d4)

	// Layers this workload's traffic does not reach are measured by probes,
	// so every per-layer metric is a measurement; the record marks which.
	est := replayed.since(warm)
	p, err := b.probe(kt, es, t3, t4, est.Admission.QueueWaits == 0)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if es.coord != nil {
		p.mergeMS = est.mergeMS
	}
	s2, s3, s4 := t2.snapshot(), t3.snapshot(), t4.snapshot()
	path := filepath.Join(b.o.dir, fmt.Sprintf("trace-%s-seed%d.jsonl", b.o.workload, b.o.seed))
	if err := writeSpans(path, s2, s3, s4, p.spans); err != nil {
		return err
	}
	b.layerMetrics(res, d1, d2, s2, s3, s4, p, est, es.counters().since(replayed))
	return nil
}

// depth sets one target up, calls warmed (if not nil) once it is warm, and
// drives the workload, generated for the given window, on it. Set-up and
// warm-up requests carry request id 0; traffic ids start at 1.
func (b *bench) depth(tg target, setup *op, window time.Duration, opt driveOpts, warmed func()) (*outcome, error) {
	if _, err := tg.call(withRequest(context.Background(), 0), setup); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := b.touchAll(tg); err != nil {
		return nil, err
	}
	if warmed != nil {
		warmed()
	}
	return drive(tg, b.wl.newLanes(b.o.seed, b.g.N(), window), opt), nil
}

// probes holds what the probes measured.
type probes struct {
	spans   []span
	mergeMS float64
}

// probe measures, on this workload's graph, every kernel the replay did
// not call: extension, gains, top-gains, selection, deltas with repair,
// a spill load, a 2-shard scatter, and admission under contention.
func (b *bench) probe(kt *kernelTarget, es *engineStack, t3, t4 *tracer, admission bool) (*probes, error) {
	seen := map[string]bool{}
	for _, s := range traffic(t4.snapshot()) {
		seen[s.Name] = true
		if s.Name == "index.Cache.Acquire" && s.Outcome == "load" {
			seen["load"] = true
		}
	}
	for _, s := range traffic(t3.snapshot()) {
		seen[s.Name] = true
	}
	pt := newTracer(5)
	p := &probes{}
	kp := newKernelOn(kt.cache, kt.current(), pt)
	r := rng.New(rng.Mix(b.o.seed, 500))
	ws := b.wl.walkSeeds(b.o.seed)[0]
	n := b.g.N()
	ctx := withRequest(context.Background(), -1)
	call := func(o *op) error {
		_, err := kp.call(ctx, o)
		return err
	}
	if !seen["index.DTable.ExtendFrom"] || !seen["index.NewDTable"] || !seen["index.DTable.GainBatch"] {
		for i := 0; i < 8; i++ {
			set := distinct(r, n, 4)
			sort.Ints(set)
			for j := 1; j <= len(set); j++ {
				if err := call(&op{kind: opGain, problem: 2, walkSeed: ws, set: set[:j], nodes: distinct(r, n, gainNodes)}); err != nil {
					return nil, err
				}
			}
		}
	}
	if !seen["core.TopGains"] {
		for i := 0; i < 3; i++ {
			if err := call(&op{kind: opTopGains, problem: 2, walkSeed: ws, set: distinct(r, n, 1), b: topB}); err != nil {
				return nil, err
			}
		}
	}
	if !seen["core.ApproxWithIndexStream"] {
		for i := 0; i < 3; i++ {
			if err := call(&op{kind: opSelect, problem: 1 + i%2, walkSeed: ws, k: 10}); err != nil {
				return nil, err
			}
		}
	}
	if !seen["graph.ApplyDelta"] || !seen["index.Repair"] {
		for i := 0; i < 5; i++ {
			e := distinct(r, n, 2)
			if err := call(&op{kind: opMutate, newNode: kp.current().N(), ends: [2]int{e[0], e[1]}}); err != nil {
				return nil, err
			}
			if err := call(&op{kind: opGain, problem: 2, walkSeed: ws, set: e[:1], nodes: e[1:]}); err != nil {
				return nil, err
			}
		}
	}
	if !seen["load"] {
		if err := b.probeLoad(pt, kp); err != nil {
			return nil, err
		}
	}
	if !seen["shard.Conn.PartialTopGains"] {
		ms, err := b.probeShards(pt, r, ws)
		if err != nil {
			return nil, err
		}
		p.mergeMS = ms
	}
	if admission {
		if err := b.probeAdmission(es, ws); err != nil {
			return nil, err
		}
	}
	p.spans = pt.snapshot()
	return p, nil
}

// probeLoad saves a resident index as a compressed v8 spill file and times
// mapping it back, as a cache miss with a spill on disk does.
func (b *bench) probeLoad(pt *tracer, kp *kernelTarget) error {
	g := kp.current()
	h, _, err := kp.acquire(withRequest(context.Background(), -1), indexKey(g, b.wl.walkSeeds(b.o.seed)[0]), g)
	if err != nil {
		return err
	}
	ix := h.Index()
	h.Release()
	path := filepath.Join(b.dir, "probe.rwdomidx")
	if err := ix.SaveStore(path, true); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		err := pt.do(withRequest(context.Background(), -1), "index.LoadAny", func(context.Context) error {
			_, err := index.LoadAny(path, g, index.StoreOptions{Mmap: true})
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeShards runs a few reads and a small select through a 2-shard
// coordinator, returning its mean merge time.
func (b *bench) probeShards(pt *tracer, r *rng.Source, ws uint64) (float64, error) {
	es, err := newEngineStack(b.g, stackSpec{shards: 2, cacheSize: 8}, b.stackDir(), pt)
	if err != nil {
		return 0, err
	}
	defer es.close()
	tg := engineTarget{es: es, t: pt}
	ops := []*op{{kind: opGain, problem: 2, walkSeed: ws, set: []int{0}, nodes: []int{1}}}
	for i := 0; i < 3; i++ {
		ops = append(ops, &op{kind: opTopGains, problem: 2, walkSeed: ws, set: distinct(r, b.g.N(), 2), b: topB})
	}
	ops = append(ops, &op{kind: opSelect, problem: 2, walkSeed: ws, k: 5})
	for _, o := range ops {
		if _, err := tg.call(withRequest(context.Background(), -1), o); err != nil {
			return 0, err
		}
	}
	return es.coord.Stats().MergeLatency.MeanMS, nil
}

// probeAdmission sends two selects at once to an engine with one heavy
// slot, so one of them waits at the gate.
func (b *bench) probeAdmission(es *engineStack, ws uint64) error {
	tg := engineTarget{es: &engineStack{q: es.engines[0], engines: es.engines[:1]}}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tg.call(withRequest(context.Background(), -1), &op{kind: opSelect, problem: 1 + i, walkSeed: ws, k: 5})
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// layerMetrics derives the per-layer metrics from the depth outcomes,
// spans and engine counters: est holds the counts of the depth-3 replay
// and probed those of the probes after it. Only traffic spans count, not
// those of set-up and warm-up (request id 0). Kernel spans come from the
// depth-4 replay; a kernel the replay never called is taken from the
// probe spans, and index builds, when the traffic builds none, from
// set-up.
func (b *bench) layerMetrics(res *result, d1, d2 *outcome, s2, s3, s4 []span, p *probes, est, probed counters) {
	setupSpans := s4
	s2, s3, s4 = traffic(s2), traffic(s3), traffic(s4)
	primary := b.wl.primary.String()
	add := func(name string, v float64, unit string, n int, fromProbe bool) {
		path := "traffic"
		if fromProbe {
			path = "probe"
		}
		res.add(metric{Name: name, Value: v, Unit: unit, Samples: n, Moves: layerMoves[name], Path: path})
	}
	kernel := func(name, outcome string) ([]span, bool) {
		if xs := named(s4, name, outcome); len(xs) > 0 {
			return xs, false
		}
		return named(p.spans, name, outcome), true
	}

	// server: ServeHTTP against the engine call, and the network around it.
	byID := map[int64]span{}
	for _, s := range s2 {
		byID[s.ID] = s
	}
	self := selfTimes(s2)
	var serve, net []time.Duration
	var bytes float64
	for _, s := range s2 {
		if s.Name != "server.ServeHTTP" || byID[s.Parent].Name != "client."+primary {
			continue
		}
		serve = append(serve, s.dur())
		net = append(net, self[s.Parent])
		bytes += float64(s.N)
	}
	eng := durs(named(s3, "engine."+primary, ""))
	add("server.self_us", float64(median(serve)-median(eng))/1e3, "us", len(serve), false)
	add("server.resp_bytes", bytes/float64(max(1, len(serve))), "bytes", len(serve), false)
	add("server.net_us", float64(median(net))/1e3, "us", len(net), false)

	// engine counters from the depth-3 replay.
	m := est.Memo
	acq := int(m.Hits + m.Misses)
	add("engine.memo_hit_ratio", float64(m.Hits)/float64(max(1, acq)), "ratio", acq, false)
	add("engine.memo_extended", float64(m.PrefixExtended), "count", acq, false)
	add("engine.memo_misses", float64(m.Misses-m.PrefixExtended), "count", acq, false)
	add("engine.memo_invalidated", float64(m.Invalidated), "count", acq, false)
	add("engine.degraded", float64(est.Degraded), "count", d2.attempted, false)
	a, fromProbe := est.Admission, est.Admission.QueueWaits == 0
	if fromProbe {
		a = probed.Admission
	}
	add("engine.admission_wait_ms", float64(a.QueueWaitNS)/1e6/float64(max(1, a.QueueWaits)), "ms", int(a.QueueWaits), fromProbe)
	add("engine.shed", float64(est.Admission.Shed), "count", int(est.Admission.Admitted+est.Admission.Shed), false)
	add("engine.selects_coalesced", float64(est.SelectsCoalesced), "count", d2.attempted, false)

	// cache and store counters.
	c := est.Cache
	add("cache.hit_ratio", float64(c.Hits)/float64(max(1, c.Hits+c.Misses)), "ratio", int(c.Hits+c.Misses), false)
	add("cache.evictions", float64(c.Evictions), "count", int(c.Hits+c.Misses), false)
	add("cache.spill_saves", float64(c.SpillSaves), "count", int(c.Evictions), false)
	add("cache.mmap_loads", float64(c.MmapLoads), "count", int(c.Misses), false)
	add("index.resident_bytes", float64(c.ResidentBytes), "bytes", 1, false)
	st := est.Storage
	add("store.decode_miss_ratio", float64(st.DecodeMisses)/float64(max(1, st.DecodeHits+st.DecodeMisses)), "ratio", int(st.DecodeHits+st.DecodeMisses), false)
	add("store.mapped_bytes", float64(st.MappedBytes), "bytes", 1, false)

	// kernels, timed from outside each call.
	timed := func(name, spanName, outcome string) []span {
		xs, probe := kernel(spanName, outcome)
		add(name, ms(median(durs(xs))), "ms", len(xs), probe)
		return xs
	}
	builds, buildPath := named(s4, "index.BuildWorkers", ""), "traffic"
	if len(builds) == 0 {
		builds, buildPath = named(setupSpans, "index.BuildWorkers", ""), "setup"
	}
	res.add(metric{Name: "index.build_ms", Value: ms(median(durs(builds))), Unit: "ms", Samples: len(builds),
		Moves: layerMoves["index.build_ms"], Path: buildPath})
	timed("index.dtable_ms", "index.NewDTable", "")
	timed("index.extend_ms", "index.DTable.ExtendFrom", "")
	timed("index.repair_ms", "index.Repair", "")
	timed("core.topgains_ms", "core.TopGains", "")
	deltas := timed("graph.apply_delta_ms", "graph.ApplyDelta", "")
	sels := timed("greedy.select_ms", "core.ApproxWithIndexStream", "")
	loads, probe := kernel("index.Cache.Acquire", "load")
	if len(loads) == 0 {
		loads, probe = named(p.spans, "index.LoadAny", ""), true
	}
	add("store.load_ms", ms(median(durs(loads))), "ms", len(loads), probe)

	gains, probe := kernel("index.DTable.GainBatch", "")
	var perCand []time.Duration
	for _, s := range gains {
		perCand = append(perCand, s.dur()/time.Duration(max(1, s.N)))
	}
	add("index.gain_ns_per_candidate", float64(median(perCand)), "ns", len(perCand), probe)
	var touched, evals, picks int64
	for _, s := range deltas {
		touched += s.N
	}
	for _, s := range sels {
		evals, picks = evals+s.N, picks+s.K
	}
	add("graph.touched", float64(touched)/float64(max(1, len(deltas))), "count", len(deltas), len(named(s4, "graph.ApplyDelta", "")) == 0)
	add("greedy.evals_per_pick", float64(evals)/float64(max(1, picks)), "count", int(picks), len(named(s4, "core.ApproxWithIndexStream", "")) == 0)
	walks := 0.0
	if mb := median(durs(builds)); mb > 0 {
		walks = float64(b.g.N()) * walkR / mb.Seconds()
	}
	res.add(metric{Name: "walk.walks_per_s", Value: walks, Unit: "1/s", Samples: len(builds),
		Moves: layerMoves["walk.walks_per_s"], Path: buildPath})

	// shard: the coordinator's self time is its scatter and merge work
	// outside the partial calls it waits on.
	shardSpans, shardProbe := s3, b.wl.stack.shards <= 1
	if shardProbe {
		shardSpans = p.spans
	}
	sself := selfTimes(shardSpans)
	kids := map[int64]int{}
	for _, s := range shardSpans {
		if strings.HasPrefix(s.Name, "shard.Conn.") {
			kids[s.Parent]++
		}
	}
	var scatter []time.Duration
	partials := 0
	for _, s := range shardSpans {
		if s.Name == "engine.select" && kids[s.ID] > 0 {
			scatter = append(scatter, sself[s.ID])
			partials += kids[s.ID]
		}
	}
	add("shard.scatter_ms", ms(median(scatter)), "ms", len(scatter), shardProbe)
	add("shard.partials_per_select", float64(partials)/float64(max(1, len(scatter))), "count", len(scatter), shardProbe)
	add("shard.merge_ms", p.mergeMS, "ms", len(scatter), shardProbe)

	// load generator and tracing cost.
	add("loadgen.late_p99_ms", ms(pct(d1.late, 99)), "ms", len(d1.late), false)
	u, t := median(d1.all()), median(d2.all())
	add("trace.overhead_pct", 100*float64(t-u)/float64(max(1, u)), "%", len(d2.all()), false)
	for k := opKind(0); k < numKinds; k++ {
		if len(d1.lat[k]) > 0 && len(d2.lat[k]) > 0 {
			res.notes = append(res.notes, fmt.Sprintf("tracing overhead %s p50: untraced %.1f us, traced %.1f us",
				k, float64(median(d1.lat[k]))/1e3, float64(median(d2.lat[k]))/1e3))
		}
	}
}

// traffic returns the spans of traffic requests, dropping set-up and
// warm-up (request id 0).
func traffic(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Req != 0 {
			out = append(out, s)
		}
	}
	return out
}

// named returns the spans called name (with that outcome, if given).
func named(spans []span, name, outcome string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && (outcome == "" || s.Outcome == outcome) {
			out = append(out, s)
		}
	}
	return out
}

func durs(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}
