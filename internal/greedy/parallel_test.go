package greedy

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rng"
)

// coverOracle is a max-coverage instance whose Gain is a pure read of the
// covered bitmap — the same concurrency contract index.DTable offers — so it
// can exercise Run with several workers.
type coverOracle struct {
	sets    [][]int
	covered []bool
}

func (o *coverOracle) Gain(u int) float64 {
	gain := 0
	for _, v := range o.sets[u] {
		if !o.covered[v] {
			gain++
		}
	}
	return float64(gain)
}

func (o *coverOracle) Update(u int) {
	for _, v := range o.sets[u] {
		o.covered[v] = true
	}
}

// batchCoverOracle adds the GainBatch fast path.
type batchCoverOracle struct{ coverOracle }

func (o *batchCoverOracle) GainBatch(us []int, out []float64) []float64 {
	for _, u := range us {
		out = append(out, o.Gain(u))
	}
	return out
}

// randomCover builds a deterministic random coverage instance with plenty of
// gain ties, the case where tie-breaking rules could drift between drivers.
func randomCover(n, universe int, seed uint64) func() *coverOracle {
	r := rng.New(seed)
	sets := make([][]int, n)
	for u := range sets {
		size := 1 + r.Intn(12)
		for j := 0; j < size; j++ {
			sets[u] = append(sets[u], r.Intn(universe))
		}
	}
	return func() *coverOracle {
		return &coverOracle{sets: sets, covered: make([]bool, universe)}
	}
}

func TestRunWorkersMatchesSerial(t *testing.T) {
	mk := randomCover(300, 500, 5)
	const k = 25
	want, err := serial(300, k, mk(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 400} {
		got, err := run(300, k, mk(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("workers=%d: Selected %v != serial %v", workers, got.Selected, want.Selected)
		}
		if !reflect.DeepEqual(got.Gains, want.Gains) {
			t.Fatalf("workers=%d: Gains differ from serial", workers)
		}
	}
}

func TestRunLazyWorkersMatchesSerial(t *testing.T) {
	mk := randomCover(400, 600, 9)
	const k = 30
	want, err := serial(400, k, mk(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := run(400, k, mk(), Options{Lazy: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("workers=%d: Selected %v != serial %v", workers, got.Selected, want.Selected)
		}
		if !reflect.DeepEqual(got.Gains, want.Gains) {
			t.Fatalf("workers=%d: Gains differ from serial", workers)
		}
	}
	// The plain and lazy drivers must still agree with each other.
	plain, _ := serial(400, k, mk(), false)
	if !reflect.DeepEqual(plain.Selected, want.Selected) {
		t.Fatal("lazy and plain drivers disagree on the test instance")
	}
}

func TestParallelDriversUseGainBatch(t *testing.T) {
	mk := randomCover(200, 300, 13)
	const k = 12
	want, err := serial(200, k, mk(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := run(200, k, &batchCoverOracle{*mk()}, Options{Lazy: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("batch oracle workers=%d: Selected %v != %v", workers, got.Selected, want.Selected)
		}
		gotPlain, err := run(200, k, &batchCoverOracle{*mk()}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		plain, _ := serial(200, k, mk(), false)
		if !reflect.DeepEqual(gotPlain.Selected, plain.Selected) {
			t.Fatalf("batch oracle plain workers=%d: Selected %v != %v", workers, gotPlain.Selected, plain.Selected)
		}
	}
}

func TestRunLazyWorkersValidation(t *testing.T) {
	o := &coverOracle{sets: [][]int{{0}}, covered: make([]bool, 1)}
	if _, err := run(0, 1, o, Options{Lazy: true, Workers: 4}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := run(1, -1, o, Options{Workers: 4}); err == nil {
		t.Error("negative k accepted")
	}
	// k > n clamps, workers > n clamps.
	res, err := run(1, 5, o, Options{Lazy: true, Workers: 16})
	if err != nil || len(res.Selected) != 1 {
		t.Fatalf("clamped run: %v %v", res, err)
	}
}

// countingBatchOracle counts GainBatch calls and the candidates in them.
type countingBatchOracle struct {
	batchCoverOracle
	batches, batched int
}

func (o *countingBatchOracle) GainBatch(us []int, out []float64) []float64 {
	o.batches++
	o.batched += len(us)
	return o.batchCoverOracle.GainBatch(us, out)
}

// At one worker a BatchOracle's sweeps are still GainBatch calls rather
// than one Gain per candidate, and the run matches the serial reference's
// selections and Evaluations.
func TestOneWorkerBatchOracleSweepsInBatches(t *testing.T) {
	mk := randomCover(3000, 4000, 21)
	const n, k = 3000, 8
	for _, lazy := range []bool{false, true} {
		want, err := serial(n, k, mk(), lazy)
		if err != nil {
			t.Fatal(err)
		}
		o := &countingBatchOracle{batchCoverOracle: batchCoverOracle{*mk()}}
		got, err := run(n, k, o, Options{Lazy: lazy, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) || !reflect.DeepEqual(got.Gains, want.Gains) {
			t.Fatalf("lazy=%t: one-worker batch run diverged from serial", lazy)
		}
		if got.Evaluations != want.Evaluations {
			t.Fatalf("lazy=%t: Evaluations %d, serial %d", lazy, got.Evaluations, want.Evaluations)
		}
		// Every sweep covers the uncommitted candidates in ceil(n/stride)
		// batches: CELF sweeps once over all n, plain sweeps round r over
		// the n-r candidates not yet selected.
		sweeps, batched := 1, n
		if !lazy {
			sweeps, batched = k, k*n-k*(k-1)/2
		}
		if wantBatches := sweeps * ((n + cancelCheckStride - 1) / cancelCheckStride); o.batches != wantBatches || o.batched != batched {
			t.Fatalf("lazy=%t: %d GainBatch calls over %d candidates, want %d over %d",
				lazy, o.batches, o.batched, wantBatches, batched)
		}
	}
}

// recordingOracle wraps a coverOracle and records every gain call that
// receives an already-committed candidate. Gain calls may arrive
// concurrently; Update never overlaps them.
type recordingOracle struct {
	*coverOracle
	committed []bool
	mu        sync.Mutex
	bad       []int
}

func (o *recordingOracle) check(u int) {
	if o.committed[u] {
		o.mu.Lock()
		o.bad = append(o.bad, u)
		o.mu.Unlock()
	}
}

func (o *recordingOracle) Gain(u int) float64 {
	o.check(u)
	return o.coverOracle.Gain(u)
}

func (o *recordingOracle) Update(u int) {
	o.committed[u] = true
	o.coverOracle.Update(u)
}

// recordingBatchOracle adds GainBatch to recordingOracle.
type recordingBatchOracle struct{ *recordingOracle }

func (o recordingBatchOracle) GainBatch(us []int, out []float64) []float64 {
	for _, u := range us {
		out = append(out, o.Gain(u))
	}
	return out
}

// No flavor, worker count or oracle kind ever evaluates a candidate that is
// already in the set, and skipping them leaves selections, gains and
// Evaluations as the serial reference reports them.
func TestRunNeverEvaluatesCommittedCandidates(t *testing.T) {
	const n, k = 2500, 12
	mk := randomCover(n, 3000, 31)
	for _, lazy := range []bool{false, true} {
		want, err := serial(n, k, mk(), lazy)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, batch := range []bool{false, true} {
				rec := &recordingOracle{coverOracle: mk(), committed: make([]bool, n)}
				var o Oracle = rec
				if batch {
					o = recordingBatchOracle{rec}
				}
				got, err := run(n, k, o, Options{Lazy: lazy, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("lazy=%t workers=%d batch=%t", lazy, workers, batch)
				if len(rec.bad) > 0 {
					t.Errorf("%s: %d gain calls on committed candidates, first %d", name, len(rec.bad), rec.bad[0])
				}
				if !reflect.DeepEqual(got.Selected, want.Selected) || !reflect.DeepEqual(got.Gains, want.Gains) {
					t.Errorf("%s: diverged from the serial reference", name)
				}
				// CELF's batched refreshes make its Evaluations depend on
				// the worker count; plain's never do.
				if (!lazy || workers == 1) && got.Evaluations != want.Evaluations {
					t.Errorf("%s: Evaluations %d, serial %d", name, got.Evaluations, want.Evaluations)
				}
			}
		}
	}
}

// Observe sees every pick in order with the running objective, and its
// error aborts the run.
func TestRunObserve(t *testing.T) {
	const n, k = 400, 9
	mk := randomCover(n, 600, 17)
	for _, lazy := range []bool{false, true} {
		var picks []Pick
		res, err := run(n, k, mk(), Options{Lazy: lazy, Workers: 3, Observe: func(p Pick) error {
			picks = append(picks, p)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) != len(res.Selected) {
			t.Fatalf("lazy=%t: observed %d picks, selected %d", lazy, len(picks), len(res.Selected))
		}
		for i, p := range picks {
			if p.Round != i+1 || p.Node != res.Selected[i] || p.Gain != res.Gains[i] {
				t.Fatalf("lazy=%t: pick %d = %+v, want node %d gain %v", lazy, i, p, res.Selected[i], res.Gains[i])
			}
		}
		if last := picks[len(picks)-1].Total; last != res.Objective() {
			t.Fatalf("lazy=%t: last Total %v, Objective %v", lazy, last, res.Objective())
		}

		stop := errors.New("stop")
		res, err = run(n, k, mk(), Options{Lazy: lazy, Observe: func(p Pick) error {
			if p.Round == 3 {
				return stop
			}
			return nil
		}})
		if !errors.Is(err, stop) || res != nil {
			t.Fatalf("lazy=%t: observer error gave (%v, %v)", lazy, res, err)
		}
	}
}
