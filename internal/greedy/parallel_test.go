package greedy

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// coverOracle is a max-coverage instance whose Gain is a pure read of the
// covered bitmap — the same concurrency contract index.DTable offers — so it
// can exercise the parallel drivers.
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
	want, err := Run(300, k, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 400} {
		got, err := RunWorkers(300, k, mk(), workers)
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
	want, err := RunLazy(400, k, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := RunLazyWorkers(400, k, mk(), workers)
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
	plain, _ := Run(400, k, mk())
	if !reflect.DeepEqual(plain.Selected, want.Selected) {
		t.Fatal("lazy and plain drivers disagree on the test instance")
	}
}

func TestParallelDriversUseGainBatch(t *testing.T) {
	mk := randomCover(200, 300, 13)
	const k = 12
	want, err := RunLazy(200, k, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := RunLazyWorkers(200, k, &batchCoverOracle{*mk()}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("batch oracle workers=%d: Selected %v != %v", workers, got.Selected, want.Selected)
		}
		gotPlain, err := RunWorkers(200, k, &batchCoverOracle{*mk()}, workers)
		if err != nil {
			t.Fatal(err)
		}
		plain, _ := Run(200, k, mk())
		if !reflect.DeepEqual(gotPlain.Selected, plain.Selected) {
			t.Fatalf("batch oracle plain workers=%d: Selected %v != %v", workers, gotPlain.Selected, plain.Selected)
		}
	}
}

func TestRunLazyWorkersValidation(t *testing.T) {
	o := &coverOracle{sets: [][]int{{0}}, covered: make([]bool, 1)}
	if _, err := RunLazyWorkers(0, 1, o, 4); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RunWorkers(1, -1, o, 4); err == nil {
		t.Error("negative k accepted")
	}
	// k > n clamps, workers > n clamps.
	res, err := RunLazyWorkers(1, 5, o, 16)
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

// At one worker a BatchOracle stays on the parallel drivers, so its sweeps
// are GainBatch calls rather than one Gain per candidate, and the run
// matches the serial driver's selections and Evaluations.
func TestOneWorkerBatchOracleSweepsInBatches(t *testing.T) {
	mk := randomCover(3000, 4000, 21)
	const n, k = 3000, 8
	for _, lazy := range []bool{false, true} {
		serial, run := Run, RunWorkers
		if lazy {
			serial, run = RunLazy, RunLazyWorkers
		}
		want, err := serial(n, k, mk())
		if err != nil {
			t.Fatal(err)
		}
		o := &countingBatchOracle{batchCoverOracle: batchCoverOracle{*mk()}}
		got, err := run(n, k, o, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Selected, want.Selected) || !reflect.DeepEqual(got.Gains, want.Gains) {
			t.Fatalf("lazy=%t: one-worker batch run diverged from serial", lazy)
		}
		if got.Evaluations != want.Evaluations {
			t.Fatalf("lazy=%t: Evaluations %d, serial %d", lazy, got.Evaluations, want.Evaluations)
		}
		// Every sweep covers n candidates in ceil(n/stride) batches.
		sweeps := 1
		if !lazy {
			sweeps = k
		}
		if wantBatches := sweeps * ((n + cancelCheckStride - 1) / cancelCheckStride); o.batches != wantBatches || o.batched != sweeps*n {
			t.Fatalf("lazy=%t: %d GainBatch calls over %d candidates, want %d over %d",
				lazy, o.batches, o.batched, wantBatches, sweeps*n)
		}
	}
}
