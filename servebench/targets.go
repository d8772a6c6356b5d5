package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/shard"
)

// reply is one answer, reduced to what verification compares.
type reply struct {
	nodes     []int
	gains     []float64
	objective float64
	cached    bool   // the walk index was already resident
	epoch     uint64 // graph epoch after a mutation
}

// target answers ops at one depth of the stack: over HTTP through the
// client SDK, by calling the engine directly, or by calling the kernels.
type target interface {
	call(ctx context.Context, o *op) (*reply, error)
}

// maxConcurrent is the admission limit of every stack: one heavy
// computation at a time, using both CPUs of the 2-CPU reference box.
const maxConcurrent = 1

func engineConfig(g *graph.Graph, sp stackSpec, spillDir string) engine.Config {
	return engine.Config{
		Graphs:         map[string]*graph.Graph{graphName: g},
		CacheSize:      sp.cacheSize,
		SpillDir:       spillDir,
		MmapSpills:     sp.spill,
		MaxConcurrent:  maxConcurrent,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
	}
}

func spillDirFor(sp stackSpec, dir string) string {
	if !sp.spill {
		return ""
	}
	return filepath.Join(dir, "spill")
}

// stack is one rwdomd server behind a loopback listener, with a client.
type stack struct {
	srv  *server.Server
	http *http.Server
	tr   *http.Transport
	cl   *client.Client
	done chan error
}

// startStack starts server.New on 127.0.0.1:0. With a tracer, ServeHTTP
// calls and client round trips are recorded as spans.
func startStack(g *graph.Graph, sp stackSpec, dir string, t *tracer) (*stack, error) {
	srv, err := server.New(server.Config{
		Graphs:        map[string]*graph.Graph{graphName: g},
		CacheSize:     sp.cacheSize,
		SpillDir:      spillDirFor(sp, dir),
		MmapSpills:    sp.spill,
		MaxConcurrent: maxConcurrent,
		Shards:        sp.shards,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if t != nil {
		h = tracedHandler(t, h)
	}
	st := &stack{
		srv:  srv,
		http: &http.Server{Handler: h},
		tr:   &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true},
		done: make(chan error, 1),
	}
	go func() { st.done <- st.http.Serve(ln) }()
	var rt http.RoundTripper = st.tr
	if t != nil {
		rt = tracingTransport{base: st.tr}
	}
	st.cl, err = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: rt}), client.WithRetry(0, 0))
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.http.Shutdown(ctx) // a forced close is fine: the stack is discarded
	<-st.done
	st.tr.CloseIdleConnections()
	_ = st.srv.Close() // spill errors only affect the discarded spill dir
}

func problemName(p int) string {
	if p == 1 {
		return client.ProblemHitting
	}
	return client.ProblemCoverage
}

// httpTarget sends ops through the client SDK; with a tracer, each call
// is a client round-trip span.
type httpTarget struct {
	cl *client.Client
	t  *tracer
}

func (t httpTarget) call(ctx context.Context, o *op) (rep *reply, err error) {
	if t.t == nil {
		return t.send(ctx, o)
	}
	_ = t.t.do(ctx, "client."+o.kind.String(), func(ctx context.Context) error {
		rep, err = t.send(ctx, o)
		return err
	})
	return rep, err
}

func (t httpTarget) send(ctx context.Context, o *op) (*reply, error) {
	seed := o.walkSeed
	switch o.kind {
	case opGain:
		r, err := t.cl.Gain(ctx, client.GainRequest{Graph: graphName, Problem: problemName(o.problem),
			L: walkL, R: walkR, Seed: &seed, Set: o.set, Nodes: o.nodes})
		if err != nil {
			return nil, err
		}
		return &reply{gains: r.Gains, cached: r.IndexCached}, nil
	case opTopGains:
		r, err := t.cl.TopGains(ctx, client.TopGainsRequest{Graph: graphName, Problem: problemName(o.problem),
			L: walkL, R: walkR, Seed: &seed, Set: o.set, B: o.b})
		if err != nil {
			return nil, err
		}
		return &reply{nodes: r.Nodes, gains: r.Gains, cached: r.IndexCached}, nil
	case opObjective:
		r, err := t.cl.Objective(ctx, client.ObjectiveRequest{Graph: graphName, Problem: problemName(o.problem),
			L: walkL, R: walkR, Seed: &seed, Set: o.set})
		if err != nil {
			return nil, err
		}
		return &reply{objective: r.Objective, cached: r.IndexCached}, nil
	case opSelect:
		r, err := t.cl.Select(ctx, client.SelectRequest{Graph: graphName, Problem: problemName(o.problem),
			K: o.k, L: walkL, R: walkR, Seed: &seed})
		if err != nil {
			return nil, err
		}
		return &reply{nodes: r.Nodes, gains: r.Gains, objective: r.Objective, cached: r.IndexCached}, nil
	case opMutate:
		r, err := t.cl.ApplyDelta(ctx, client.ApplyDeltaRequest{Graph: graphName, AddNodes: 1,
			Add: []client.Edge{{U: o.newNode, V: o.ends[0]}, {U: o.newNode, V: o.ends[1]}}})
		if err != nil {
			return nil, err
		}
		return &reply{epoch: r.Epoch}, nil
	}
	return nil, fmt.Errorf("unknown op kind %d", o.kind)
}

// querier is the engine surface the server's public routes call: an
// engine.Engine, or a shard.Coordinator in sharded mode.
type querier interface {
	Select(context.Context, engine.SelectRequest) (*engine.SelectResult, error)
	Gain(context.Context, engine.GainRequest) (*engine.GainResult, error)
	Objective(context.Context, engine.ObjectiveRequest) (*engine.ObjectiveResult, error)
	TopGains(context.Context, engine.TopGainsRequest) (*engine.TopGainsResult, error)
	ApplyDelta(context.Context, engine.ApplyDeltaRequest) (*engine.ApplyDeltaResult, error)
}

// engineStack is the in-process engine (or coordinator over worker
// engines) a server would build, called directly.
type engineStack struct {
	q       querier
	engines []*engine.Engine
	coord   *shard.Coordinator
}

func newEngineStack(g *graph.Graph, sp stackSpec, dir string, t *tracer) (*engineStack, error) {
	ecfg := engineConfig(g, sp, spillDirFor(sp, dir))
	es := &engineStack{}
	if sp.shards <= 1 {
		eng, err := engine.New(ecfg)
		if err != nil {
			return nil, err
		}
		es.q, es.engines = eng, []*engine.Engine{eng}
		return es, nil
	}
	conns := make([]shard.Conn, sp.shards)
	for i := range conns {
		eng, err := engine.New(ecfg)
		if err != nil {
			es.close()
			return nil, err
		}
		es.engines = append(es.engines, eng)
		conns[i] = tracedConn{Conn: shard.NewLocalConn(eng, fmt.Sprintf("local/%d", i)), t: t}
	}
	co, err := shard.New(shard.Config{Graphs: ecfg.Graphs, DefaultTimeout: ecfg.DefaultTimeout,
		MaxTimeout: ecfg.MaxTimeout}, conns)
	if err != nil {
		es.close()
		return nil, err
	}
	es.q, es.coord = co, co
	return es, nil
}

func (es *engineStack) close() {
	if es.coord != nil {
		_ = es.coord.Close() // conns do not own their engines
	}
	for _, e := range es.engines {
		_ = e.Close() // spill errors only affect the discarded spill dir
	}
}

// counters are the public Stats() counts of every engine in a stack,
// summed, and the coordinator's merge latency.
type counters struct {
	engine.Stats
	merges  int64
	mergeMS float64 // mean
}

func (es *engineStack) counters() counters {
	var s counters
	for _, e := range es.engines {
		x := e.Stats()
		c, m, a, st := &s.Cache, &s.Memo, &s.Admission, &s.Storage
		c.Hits += x.Cache.Hits
		c.Misses += x.Cache.Misses
		c.Evictions += x.Cache.Evictions
		c.SpillSaves += x.Cache.SpillSaves
		c.SpillLoads += x.Cache.SpillLoads
		c.MmapLoads += x.Cache.MmapLoads
		c.ResidentBytes += x.Cache.ResidentBytes
		m.Hits += x.Memo.Hits
		m.Misses += x.Memo.Misses
		m.PrefixExtended += x.Memo.PrefixExtended
		m.Invalidated += x.Memo.Invalidated
		m.ResidentBytes += x.Memo.ResidentBytes
		a.Admitted += x.Admission.Admitted
		a.Shed += x.Admission.Shed
		a.QueueWaits += x.Admission.QueueWaits
		a.QueueWaitNS += x.Admission.QueueWaitNS
		st.MappedBytes += x.Storage.MappedBytes
		st.DecodeHits += x.Storage.DecodeHits
		st.DecodeMisses += x.Storage.DecodeMisses
		s.SelectsCoalesced += x.SelectsCoalesced
		s.Degraded += x.Degraded
	}
	if es.coord != nil {
		ml := es.coord.Stats().MergeLatency
		s.merges, s.mergeMS = ml.Count, ml.MeanMS
	}
	return s
}

// since returns the counts accumulated after w. Resident and mapped bytes
// are levels, not counts, and keep their current values.
func (s counters) since(w counters) counters {
	d := s
	c, m, a, st := &d.Cache, &d.Memo, &d.Admission, &d.Storage
	c.Hits -= w.Cache.Hits
	c.Misses -= w.Cache.Misses
	c.Evictions -= w.Cache.Evictions
	c.SpillSaves -= w.Cache.SpillSaves
	c.SpillLoads -= w.Cache.SpillLoads
	c.MmapLoads -= w.Cache.MmapLoads
	m.Hits -= w.Memo.Hits
	m.Misses -= w.Memo.Misses
	m.PrefixExtended -= w.Memo.PrefixExtended
	m.Invalidated -= w.Memo.Invalidated
	a.Admitted -= w.Admission.Admitted
	a.Shed -= w.Admission.Shed
	a.QueueWaits -= w.Admission.QueueWaits
	a.QueueWaitNS -= w.Admission.QueueWaitNS
	st.DecodeHits -= w.Storage.DecodeHits
	st.DecodeMisses -= w.Storage.DecodeMisses
	d.SelectsCoalesced -= w.SelectsCoalesced
	d.Degraded -= w.Degraded
	d.merges, d.mergeMS = s.merges-w.merges, 0
	if d.merges > 0 {
		d.mergeMS = (s.mergeMS*float64(s.merges) - w.mergeMS*float64(w.merges)) / float64(d.merges)
	}
	return d
}

// engineTarget calls the querier directly, one span per call.
type engineTarget struct {
	es *engineStack
	t  *tracer
}

func (et engineTarget) call(ctx context.Context, o *op) (*reply, error) {
	var rep *reply
	prob := index.Problem(o.problem)
	err := et.t.do(ctx, "engine."+o.kind.String(), func(ctx context.Context) error {
		q := et.es.q
		switch o.kind {
		case opGain:
			r, err := q.Gain(ctx, engine.GainRequest{Graph: graphName, Problem: prob, L: walkL, R: walkR,
				Seed: o.walkSeed, Set: o.set, Nodes: o.nodes})
			if err == nil {
				rep = &reply{gains: r.Gains, cached: r.IndexCached}
			}
			return err
		case opTopGains:
			r, err := q.TopGains(ctx, engine.TopGainsRequest{Graph: graphName, Problem: prob, L: walkL, R: walkR,
				Seed: o.walkSeed, Set: o.set, B: o.b})
			if err == nil {
				rep = &reply{nodes: r.Nodes, gains: r.Gains, cached: r.IndexCached}
			}
			return err
		case opObjective:
			r, err := q.Objective(ctx, engine.ObjectiveRequest{Graph: graphName, Problem: prob, L: walkL, R: walkR,
				Seed: o.walkSeed, Set: o.set})
			if err == nil {
				rep = &reply{objective: r.Objective, cached: r.IndexCached}
			}
			return err
		case opSelect:
			r, err := q.Select(ctx, engine.SelectRequest{Graph: graphName, Problem: prob, K: o.k, L: walkL, R: walkR,
				Seed: o.walkSeed})
			if err == nil {
				rep = &reply{nodes: r.Nodes, gains: r.Gains, objective: r.Objective(), cached: r.IndexCached}
			}
			return err
		case opMutate:
			r, err := q.ApplyDelta(ctx, engine.ApplyDeltaRequest{Graph: graphName, Delta: o.delta()})
			if err == nil {
				rep = &reply{epoch: r.Epoch}
			}
			return err
		}
		return fmt.Errorf("unknown op kind %d", o.kind)
	})
	return rep, err
}

func (o *op) delta() graph.Delta {
	return graph.Delta{AddNodes: 1, AddEdges: []graph.Edge{{U: o.newNode, V: o.ends[0]}, {U: o.newNode, V: o.ends[1]}}}
}

// tracedConn records each coordinator-to-worker read as a span.
type tracedConn struct {
	shard.Conn
	t *tracer
}

func (c tracedConn) PartialGain(ctx context.Context, req engine.PartialGainRequest) (res *engine.PartialGainResult, err error) {
	_ = c.t.do(ctx, "shard.Conn.PartialGain", func(ctx context.Context) error {
		res, err = c.Conn.PartialGain(ctx, req)
		return err
	})
	return res, err
}

func (c tracedConn) PartialTopGains(ctx context.Context, req engine.PartialTopGainsRequest) (res *engine.PartialTopGainsResult, err error) {
	_ = c.t.do(ctx, "shard.Conn.PartialTopGains", func(ctx context.Context) error {
		res, err = c.Conn.PartialTopGains(ctx, req)
		return err
	})
	return res, err
}

// kernelTarget answers ops by calling the kernels the engine calls — the
// index cache, D-table population and extension, gain batches, the top-
// gains sweep, the greedy driver, graph deltas and index repair — each
// timed from outside as a span. It follows the engine's paths:
//
//   - a read snapshots the graph, then pins its index at that epoch with no
//     lock held, so a delta that lands mid-read finds the index pinned;
//   - a delta repairs the unpinned indexes of the current epoch, drops the
//     pinned and older ones (they rebuild on next use), and invalidates
//     the D-tables memoized under every displaced key;
//   - D-tables are memoized per (index key, problem, set) in the same
//     refcounted LRU core as the engine memo, 128 entries, populated from
//     the longest resident prefix when there is one, with the objective
//     computed at population and the top-B winners kept per table;
//   - an index eviction drops the tables built on it.
//
// The memo key also names the index instance, where the engine's names
// the cache key alone. Repair rewrites an index in place, so a table built
// on it before a delta reads the post-delta walks; keyed by instance, such
// a table is reachable only by reads that pin that instance, which a delta
// never repairs.
//
// Unlike the engine it has no admission gate: acquires run one at a time
// instead, so an acquire's outcome (hit, build or load) is attributable.
// The engine's gate admits one select or build at a time on every stack.
type kernelTarget struct {
	t     *tracer
	cache *index.Cache
	memo  *cache.Cache[memoKey, *memoValue]

	// mu is the engine's graphs lock: a delta holds it exclusively from
	// ApplyDelta to the graph swap; a read holds it only to snapshot g.
	mu sync.RWMutex
	g  *graph.Graph

	acquireMu sync.Mutex
}

// memoKey identifies one memoized D-table: the engine's key plus the
// index instance the table was built on.
type memoKey struct {
	idx     index.CacheKey
	ix      *index.Index
	problem index.Problem
	set     string
}

// memoValue is one frozen table, its objective and its top-B winners.
type memoValue struct {
	set       []int
	d         *index.DTable
	objective float64

	topMu sync.Mutex
	top   map[int]topResult
}

type topResult struct {
	nodes []int
	gains []float64
}

const kernelMemoSize = 128

func newKernelTarget(g *graph.Graph, sp stackSpec, dir string, t *tracer) (*kernelTarget, error) {
	c, err := index.NewCacheWith(sp.cacheSize, 0, spillDirFor(sp, dir), index.SpillConfig{Mmap: sp.spill})
	if err != nil {
		return nil, err
	}
	return newKernelOn(c, g, t), nil
}

// newKernelOn returns a kernel target over an existing index cache, with a
// fresh memo linked to the cache's evictions.
func newKernelOn(c *index.Cache, g *graph.Graph, t *tracer) *kernelTarget {
	kt := &kernelTarget{t: t, cache: c, g: g,
		memo: cache.New(cache.Config[memoKey, *memoValue]{MaxEntries: kernelMemoSize})}
	c.OnEviction(func(keys []index.CacheKey) { kt.dropTables(keys) })
	return kt
}

// dropTables invalidates every memoized table built under one of keys.
func (kt *kernelTarget) dropTables(keys []index.CacheKey) {
	gone := make(map[index.CacheKey]bool, len(keys))
	for _, k := range keys {
		gone[k] = true
	}
	kt.memo.Invalidate(func(k memoKey) bool { return gone[k.idx] })
}

// current returns the current graph snapshot.
func (kt *kernelTarget) current() *graph.Graph {
	kt.mu.RLock()
	defer kt.mu.RUnlock()
	return kt.g
}

func indexKey(g *graph.Graph, walkSeed uint64) index.CacheKey {
	return index.CacheKey{Graph: graphName, L: walkL, R: walkR, Seed: walkSeed, Epoch: g.Epoch()}
}

// acquire pins the index for key on g and reports whether it had to be
// built.
func (kt *kernelTarget) acquire(ctx context.Context, key index.CacheKey, g *graph.Graph) (*index.Handle, bool, error) {
	kt.acquireMu.Lock()
	defer kt.acquireMu.Unlock()
	ctx, s, end := kt.t.start(ctx, "index.Cache.Acquire")
	defer end()
	loads := kt.cache.Stats().SpillLoads
	s.Outcome = "hit"
	h, err := kt.cache.Acquire(key, g, func() (ix *index.Index, err error) {
		s.Outcome = "build"
		_ = kt.t.do(ctx, "index.BuildWorkers", func(context.Context) error {
			ix, err = index.BuildWorkers(g, walkL, walkR, key.Seed, 0)
			return err
		})
		return ix, err
	})
	if err == nil && kt.cache.Stats().SpillLoads > loads {
		s.Outcome = "load"
	}
	return h, s.Outcome == "build", err
}

// table returns a pinned memoized table for set (canonical), populating it
// as the engine does: extend the longest resident prefix, else replay the
// set on a fresh table, then estimate the objective. The population,
// objective included, is one span.
func (kt *kernelTarget) table(ctx context.Context, key index.CacheKey, ix *index.Index, prob index.Problem, set []int) (*cache.Handle[memoKey, *memoValue], error) {
	var b strings.Builder
	for _, u := range set {
		b.WriteString(strconv.Itoa(u))
		b.WriteByte(',')
	}
	return kt.memo.Acquire(memoKey{idx: key, ix: ix, problem: prob, set: b.String()}, func() (*memoValue, int64, error) {
		prefix := kt.memo.PinBest(func(k memoKey, v *memoValue) int {
			if k.idx != key || k.ix != ix || k.problem != prob || !isPrefix(v.set, set) {
				return 0
			}
			return len(v.set)
		})
		name := "index.NewDTable"
		if prefix != nil {
			defer prefix.Release()
			name = "index.DTable.ExtendFrom"
		}
		m := &memoValue{set: set}
		err := kt.t.do(ctx, name, func(context.Context) error {
			d, err := ix.NewDTable(prob)
			if err != nil {
				return err
			}
			if prefix != nil {
				p := prefix.Value()
				if err := d.ExtendFrom(p.d.Snapshot(), set[len(p.set):]...); err != nil {
					return err
				}
			} else {
				for _, u := range set {
					d.Update(u)
				}
			}
			members := make([]bool, ix.Graph().N())
			for _, u := range set {
				members[u] = true
			}
			m.d, m.objective = d, d.EstimateObjective(members)
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		return m, m.d.MemoryBytes(), nil
	})
}

// isPrefix reports whether p is a proper leading prefix of set.
func isPrefix(p, set []int) bool {
	if len(p) >= len(set) {
		return false
	}
	for i, u := range p {
		if set[i] != u {
			return false
		}
	}
	return true
}

func (kt *kernelTarget) call(ctx context.Context, o *op) (*reply, error) {
	var rep *reply
	err := kt.t.do(ctx, "kernel."+o.kind.String(), func(ctx context.Context) error {
		var err error
		if o.kind == opMutate {
			rep, err = kt.mutate(ctx, o)
		} else {
			rep, err = kt.read(ctx, o)
		}
		return err
	})
	return rep, err
}

func (kt *kernelTarget) read(ctx context.Context, o *op) (*reply, error) {
	g := kt.current()
	key := indexKey(g, o.walkSeed)
	h, built, err := kt.acquire(ctx, key, g)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	ix, prob := h.Index(), index.Problem(o.problem)
	if o.kind == opSelect {
		_, s, end := kt.t.start(ctx, "core.ApproxWithIndexStream")
		sel, err := core.ApproxWithIndexStream(ctx, ix, prob, o.k, true, 0, nil)
		if err == nil {
			s.N, s.K = int64(sel.Evaluations), int64(len(sel.Nodes))
		}
		end()
		if err != nil {
			return nil, err
		}
		return &reply{nodes: sel.Nodes, gains: sel.Gains, objective: sel.Objective(), cached: !built}, nil
	}
	mh, err := kt.table(ctx, key, ix, prob, o.set)
	if err != nil {
		return nil, err
	}
	defer mh.Release()
	m := mh.Value()
	switch o.kind {
	case opGain:
		_, s, end := kt.t.start(ctx, "index.DTable.GainBatch")
		gains := m.d.GainBatch(o.nodes, make([]float64, 0, len(o.nodes)))
		s.N = int64(len(o.nodes))
		end()
		return &reply{gains: gains, cached: !built}, nil
	case opTopGains:
		m.topMu.Lock()
		top, ok := m.top[o.b]
		m.topMu.Unlock()
		if !ok {
			exclude := make([]bool, g.N())
			for _, u := range o.set {
				exclude[u] = true
			}
			err := kt.t.do(ctx, "core.TopGains", func(ctx context.Context) error {
				var err error
				top.nodes, top.gains, err = core.TopGains(ctx, m.d, o.b, exclude, 0)
				return err
			})
			if err != nil {
				return nil, err
			}
			m.topMu.Lock()
			if m.top == nil {
				m.top = map[int]topResult{}
			}
			m.top[o.b] = top
			m.topMu.Unlock()
		}
		return &reply{nodes: top.nodes, gains: top.gains, cached: !built}, nil
	case opObjective:
		return &reply{objective: m.objective, cached: !built}, nil
	}
	return nil, fmt.Errorf("unknown op kind %d", o.kind)
}

// mutate applies the delta as the engine does: under the exclusive graph
// lock, take every resident index of the graph, repair the unpinned ones
// of the pre-delta epoch and re-adopt them under the new key, drop the
// rest, and invalidate the tables memoized under every displaced key.
func (kt *kernelTarget) mutate(ctx context.Context, o *op) (*reply, error) {
	kt.mu.Lock()
	defer kt.mu.Unlock()
	g := kt.g
	_, s, end := kt.t.start(ctx, "graph.ApplyDelta")
	ng, touched, err := g.ApplyDelta(o.delta())
	s.N = int64(len(touched))
	end()
	if err != nil {
		return nil, err
	}
	taken, orphaned := kt.cache.TakeGraph(graphName)
	stale := orphaned
	for _, tk := range taken {
		stale = append(stale, tk.Key)
		if tk.Key.Epoch != g.Epoch() {
			continue
		}
		err := kt.t.do(ctx, "index.Repair", func(context.Context) error { return tk.Index.Repair(ng, touched) })
		if err == nil {
			key := tk.Key
			key.Epoch = ng.Epoch()
			_ = kt.cache.Adopt(key, tk.Index) // one that cannot be adopted is dropped, as in the engine
		}
	}
	kt.dropTables(stale)
	kt.g = ng
	return &reply{epoch: ng.Epoch()}, nil
}
