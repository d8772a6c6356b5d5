package main

import (
	"sort"
	"time"

	"repro/internal/rng"
)

// Index identity shared by every workload: the CAGrQc stand-in at the
// paper's walk length and a sample size large enough for stable estimates.
const (
	graphName = "CAGrQc"
	walkL     = 6
	walkR     = 200
)

// opKind is one request class. Its name is the prefix of the per-class
// latency metrics (gain_p50_us, select_p90_ms, ...).
type opKind int

const (
	opGain opKind = iota
	opTopGains
	opObjective
	opSelect
	opMutate
	numKinds
)

var kindNames = [numKinds]string{"gain", "topgains", "objective", "select", "mutate"}

func (k opKind) String() string { return kindNames[k] }

// op is one request of a workload's recorded sequence.
type op struct {
	kind     opKind
	due      time.Duration // open-loop send time after the window opens
	problem  int           // 1 (hitting time) or 2 (coverage)
	walkSeed uint64
	set      []int // canonical (sorted, distinct) seed set
	nodes    []int // gain candidates
	b, k     int
	// A mutation appends node newNode and links it to ends[0] and ends[1].
	newNode int
	ends    [2]int
}

// lane is one request stream: a deterministic generator consumed by
// senders goroutines. Open lanes carry due times; closed lanes send the
// next request as soon as a sender is free.
type lane struct {
	name    string
	open    bool
	senders int
	gen     func() *op
}

// stackSpec configures the rwdomd stack a workload runs against.
type stackSpec struct {
	shards    int
	cacheSize int
	spill     bool // SpillDir and MmapSpills on
}

// workload is one traffic mix. lanes must return a fresh, deterministic
// set of generators for the seed each time it is called, so a traced
// replay sees the same requests as the measured run.
type workload struct {
	// tailPct is the percentile tail_ms reports: the highest one with at
	// least ten samples beyond it at the request count of a 10 s run.
	tailPct float64
	stack   stackSpec
	// walkSeeds lists the walk-index seeds the traffic touches, most popular
	// first; setup warms the first, warm-up touches the rest.
	walkSeeds func(seed uint64) []uint64
	lanes     func(seed uint64, n int, walkSeeds []uint64, window time.Duration) []*lane
	// primary is the request class whose server-side cost the server.*
	// per-layer metrics describe.
	primary opKind
}

// Rates and mixes, recorded in BENCHMARK.json.
const (
	exploreRate = 60.0 // Poisson arrivals per second
	churnRate   = 20.0 // mutations per second
	chainCount  = 48   // explore seed-set chains
	chainLen    = 8    // prefixes per chain: 384 sets > the 128-entry memo
	gainNodes   = 16   // candidates per gain request
	topB        = 10
)

// workloads are the traffic mixes; README.md gives each one's reasons.
var workloads = map[string]*workload{
	// Independent what-if users: codec, memo, D-table extend/gain, top-gains.
	"explore": {
		tailPct:   98,
		stack:     stackSpec{cacheSize: 8},
		walkSeeds: func(seed uint64) []uint64 { return []uint64{rng.Mix(seed, 1)} },
		lanes:     exploreLanes,
		primary:   opGain,
	},
	// Placement jobs over a working set twice the index cache: cache,
	// v8 page-in, decode-on-read, D-table build and CELF; no memo.
	"place": {
		tailPct: 80,
		stack:   stackSpec{cacheSize: 2, spill: true},
		walkSeeds: func(seed uint64) []uint64 {
			return []uint64{rng.Mix(seed, 11), rng.Mix(seed, 12), rng.Mix(seed, 13), rng.Mix(seed, 14)}
		},
		lanes:   placeLanes,
		primary: opSelect,
	},
	// The explore layers with graph deltas beside the reads.
	"churn": {
		tailPct:   90,
		stack:     stackSpec{cacheSize: 8},
		walkSeeds: func(seed uint64) []uint64 { return []uint64{rng.Mix(seed, 21)} },
		lanes:     churnLanes,
		primary:   opGain,
	},
	// The only traffic through shard scatter and the TA merge.
	"sharded": {
		tailPct:   90,
		stack:     stackSpec{shards: 2, cacheSize: 8},
		walkSeeds: func(seed uint64) []uint64 { return []uint64{rng.Mix(seed, 31)} },
		lanes:     shardedLanes,
		primary:   opGain,
	},
}

// newLanes returns the workload's request streams for seed on an n-node
// graph and a window of the given length.
func (w *workload) newLanes(seed uint64, n int, window time.Duration) []*lane {
	return w.lanes(seed, n, w.walkSeeds(seed), window)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"explore", "place", "churn", "sharded"}

// chains draws chainCount sorted node chains; their leading prefixes are
// the seed sets reads ask about, so a longer prefix can extend a memoized
// shorter one.
func chains(r *rng.Source, n int) [][]int {
	out := make([][]int, chainCount)
	for i := range out {
		out[i] = distinct(r, n, chainLen)
		sort.Ints(out[i])
	}
	return out
}

// distinct draws k distinct nodes of [0, n).
func distinct(r *rng.Source, n, k int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		u := r.Intn(n)
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// readMix is the explore request mix per block of 50: 45 gains, 4
// top-gains, 1 objective. Drawing classes from shuffled blocks keeps the
// mix exact over any window while the order stays random.
var readMix = [...]opKind{
	opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain,
	opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain,
	opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain,
	opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain, opGain,
	opGain, opGain, opGain, opGain, opGain, opTopGains, opTopGains, opTopGains, opTopGains, opObjective,
}

// blocks deals items from shuffled copies of mix.
func blocks[T any](r *rng.Source, mix []T) func() T {
	var deck []T
	return func() T {
		if len(deck) == 0 {
			deck = append(deck[:0], mix...)
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		k := deck[0]
		deck = deck[1:]
		return k
	}
}

// readOp draws one explore-style read of the given kind against a prefix
// of a random chain.
func readOp(r *rng.Source, kind opKind, n int, pool [][]int, walkSeed uint64) *op {
	c := pool[r.Intn(len(pool))]
	o := &op{kind: kind, problem: 2, walkSeed: walkSeed, set: c[:1+r.Intn(len(c))]}
	switch kind {
	case opGain:
		o.nodes = distinct(r, n, gainNodes)
	case opTopGains:
		o.b = topB
	}
	return o
}

// poisson returns the send times of a Poisson process of the given rate
// conditioned on its count over the window: that many uniform times,
// sorted. Every seed then offers the same load.
func poisson(r *rng.Source, rate float64, window time.Duration) []time.Duration {
	ts := make([]time.Duration, int(rate*window.Seconds()+0.5))
	for i := range ts {
		ts[i] = time.Duration(r.Float64() * float64(window))
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

func exploreLanes(seed uint64, n int, walkSeeds []uint64, window time.Duration) []*lane {
	r := rng.New(rng.Mix(seed, 100))
	pool := chains(r, n)
	due := poisson(r, exploreRate, window)
	kind := blocks(r, readMix[:])
	return []*lane{{name: "explore", open: true, senders: 2, gen: func() *op {
		o := readOp(r, kind(), n, pool, walkSeeds[0])
		o.due = window
		if len(due) > 0 {
			o.due, due = due[0], due[1:]
		}
		return o
	}}}
}

// placeSeeds deals walk-seed ranks with Zipf popularity 1/(rank+1):
// 12, 6, 4 and 3 of every 25 selects.
var placeSeeds = [...]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3}

// placeJobs deals (problem, k) pairs evenly.
var placeJobs = [...][2]int{{1, 10}, {1, 50}, {2, 10}, {2, 50}}

// placeOrder seeds the order in which place deals walk-seed ranks. It is
// the same for every workload seed: the number of page-ins in a window
// follows that order, and a per-seed order moved cpu_ms_per_op by 13%
// between seeds. The seed still picks the walk seeds and the jobs.
const placeOrder = 200

func placeLanes(seed uint64, n int, walkSeeds []uint64, window time.Duration) []*lane {
	r := rng.New(rng.Mix(seed, 200))
	rank, job := blocks(rng.New(placeOrder), placeSeeds[:]), blocks(r, placeJobs[:])
	return []*lane{{name: "place", senders: 2, gen: func() *op {
		j := job()
		return &op{kind: opSelect, walkSeed: walkSeeds[rank()], problem: j[0], k: j[1]}
	}}}
}

// churnMix is the churn reader's mix per block of 5: 3 gains, 1 top-gains,
// 1 select.
var churnMix = [...]opKind{opGain, opGain, opGain, opTopGains, opSelect}

func churnLanes(seed uint64, n int, walkSeeds []uint64, window time.Duration) []*lane {
	w := rng.New(rng.Mix(seed, 300))
	r := rng.New(rng.Mix(seed, 301))
	pool := chains(r, n)
	ws := walkSeeds[0]
	muts := 0
	writer := &lane{name: "writer", open: true, senders: 1, gen: func() *op {
		o := &op{kind: opMutate, newNode: n + muts}
		muts++
		o.due = time.Duration(float64(muts) / churnRate * float64(time.Second))
		e := distinct(w, n, 2)
		o.ends = [2]int{e[0], e[1]}
		return o
	}}
	kind := blocks(r, churnMix[:])
	reader := &lane{name: "reader", senders: 1, gen: func() *op {
		if k := kind(); k != opSelect {
			return readOp(r, k, n, pool, ws)
		}
		return &op{kind: opSelect, problem: 2, walkSeed: ws, k: 10}
	}}
	return []*lane{writer, reader}
}

func shardedLanes(seed uint64, n int, walkSeeds []uint64, window time.Duration) []*lane {
	r := rng.New(rng.Mix(seed, 400))
	pool := chains(r, n)
	kind := blocks(r, readMix[:])
	i := 0
	return []*lane{{name: "sharded", senders: 2, gen: func() *op {
		i++
		if i%5 == 0 {
			return &op{kind: opSelect, walkSeed: walkSeeds[0], problem: 2, k: 10}
		}
		return readOp(r, kind(), n, pool, walkSeeds[0])
	}}}
}
