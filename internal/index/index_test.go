package index

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/rng"
)

// paperWalks returns the fixed 2-length walks of Example 3.1, node v_i of
// the paper being node i−1: (v1,v2,v3), (v2,v3,v5), (v3,v2,v5), (v4,v7,v5),
// (v5,v2,v6), (v6,v7,v5), (v7,v5,v7), (v8,v7,v4).
func paperWalks() [][][]int32 {
	raw := [][]int32{
		{0, 1, 2},
		{1, 2, 4},
		{2, 1, 4},
		{3, 6, 4},
		{4, 1, 5},
		{5, 6, 4},
		{6, 4, 6},
		{7, 6, 3},
	}
	walks := make([][][]int32, len(raw))
	for w := range raw {
		walks[w] = [][]int32{raw[w]}
	}
	return walks
}

func paperIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := BuildFromWalks(graph.PaperExample(), 2, 1, paperWalks())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestPaperTable1InvertedIndex(t *testing.T) {
	// The index must reproduce Table 1 of the paper exactly.
	ix := paperIndex(t)
	want := map[int][]struct {
		id  int32
		hop uint16
	}{
		0: {},
		1: {{0, 1}, {2, 1}, {4, 1}},
		2: {{0, 2}, {1, 1}},
		3: {{7, 2}},
		4: {{1, 2}, {2, 2}, {3, 2}, {5, 2}, {6, 1}},
		5: {{4, 2}},
		6: {{3, 1}, {5, 1}, {7, 1}},
		7: {},
	}
	for v, entries := range want {
		ids, hops := ix.Row(0, v)
		if len(ids) != len(entries) {
			t.Fatalf("row v%d: %d entries, want %d (ids=%v)", v+1, len(ids), len(entries), ids)
		}
		got := map[int32]uint16{}
		for e := range ids {
			got[ids[e]] = hops[e]
		}
		for _, ent := range entries {
			if got[ent.id] != ent.hop {
				t.Errorf("row v%d: entry <v%d,%d> missing or wrong hop (got %d)", v+1, ent.id+1, ent.hop, got[ent.id])
			}
		}
	}
	// The repeated v7 in walk (v7, v5, v7) must not be indexed: v7's row in
	// I[1][7] has no self entry, checked above by the 3-entry count.
}

func TestPaperExample31GainsRound1(t *testing.T) {
	// Marginal gains at S=∅ must match the paper: σv1=2, σv2=5, σv3=3,
	// σv4=2, σv5=3, σv6=2, σv7=5, σv8=2.
	ix := paperIndex(t)
	d, err := ix.NewDTable(Problem1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 5, 3, 2, 3, 2, 5, 2}
	for u, w := range want {
		if got := d.Gain(u); got != w {
			t.Errorf("σ_v%d(∅) = %v, want %v", u+1, got, w)
		}
	}
}

func TestPaperExample31SelectionSequence(t *testing.T) {
	// Greedy on the fixed samples selects {v2, v7} (paper breaks the v2/v7
	// tie toward v2; our argmax keeps the first maximum, and v2 < v7).
	ix := paperIndex(t)
	d, _ := ix.NewDTable(Problem1)
	argmax := func() int {
		best, bestGain := -1, math.Inf(-1)
		for u := 0; u < ix.Graph().N(); u++ {
			if g := d.Gain(u); g > bestGain {
				best, bestGain = u, g
			}
		}
		return best
	}
	first := argmax()
	if first != 1 {
		t.Fatalf("round 1 selected v%d, want v2", first+1)
	}
	d.Update(first)
	second := argmax()
	if second != 6 {
		t.Fatalf("round 2 selected v%d, want v7", second+1)
	}
}

func TestPaperExample31DTableAfterUpdate(t *testing.T) {
	// After selecting v2: D[v2]=0 and D[v1], D[v3], D[v5] become 1; all
	// others stay 2 (paper, Example 3.1).
	ix := paperIndex(t)
	d, _ := ix.NewDTable(Problem1)
	d.Update(1)
	want := []uint16{1, 0, 1, 2, 1, 2, 2, 2}
	for u, w := range want {
		if d.cols[0].d[u] != w {
			t.Errorf("D[v%d] = %d, want %d", u+1, d.cols[0].d[u], w)
		}
	}
}

func TestGainEqualsObjectiveDelta(t *testing.T) {
	// For both problems, Gain(u) must equal the change in the sampled
	// objective caused by Update(u), at every greedy stage. This pins the
	// Algorithm 4 / Algorithm 5 arithmetic to the estimator semantics.
	g, err := graph.BarabasiAlbert(80, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, 5, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Problem{Problem1, Problem2} {
		d, err := ix.NewDTable(p)
		if err != nil {
			t.Fatal(err)
		}
		members := make([]bool, g.N())
		seq := []int{3, 17, 42, 5}
		for _, u := range seq {
			before := d.EstimateObjective(members)
			gain := d.Gain(u)
			d.Update(u)
			members[u] = true
			after := d.EstimateObjective(members)
			if math.Abs((after-before)-gain) > 1e-9 {
				t.Fatalf("%v: Δobjective=%v but gain=%v after adding %d", p, after-before, gain, u)
			}
		}
	}
}

func TestGainSubmodularOnSamples(t *testing.T) {
	// The sampled objective is submodular sample-by-sample, so gains must
	// never increase as the set grows (this is what justifies CELF on the
	// materialized samples).
	g, _ := graph.BarabasiAlbert(60, 3, 4)
	ix, err := Build(g, 4, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Problem{Problem1, Problem2} {
		d, _ := ix.NewDTable(p)
		const candidate = 30
		prev := d.Gain(candidate)
		for _, u := range []int{2, 9, 44, 51} {
			d.Update(u)
			cur := d.Gain(candidate)
			if cur > prev+1e-9 {
				t.Fatalf("%v: gain of %d grew from %v to %v after adding %d", p, candidate, prev, cur, u)
			}
			prev = cur
		}
	}
}

func TestIndexEstimatesMatchExactDP(t *testing.T) {
	// With generous R, the index-based objective estimate approximates the
	// exact DP objective for a fixed set.
	g, _ := graph.BarabasiAlbert(100, 3, 8)
	const L = 5
	ix, err := Build(g, L, 600, 17)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := hitting.NewEvaluator(g, L)
	S := []int{0, 13, 57}
	members := make([]bool, g.N())
	for _, p := range []Problem{Problem1, Problem2} {
		d, _ := ix.NewDTable(p)
		for i := range members {
			members[i] = false
		}
		for _, u := range S {
			d.Update(u)
			members[u] = true
		}
		got := d.EstimateObjective(members)
		var want float64
		if p == Problem1 {
			want, _ = ev.F1(S)
			if math.Abs(got-want) > 0.03*float64(g.N())*L {
				t.Errorf("F̂1=%v exact=%v", got, want)
			}
		} else {
			want, _ = ev.F2(S)
			if math.Abs(got-want) > 0.03*float64(g.N()) {
				t.Errorf("F̂2=%v exact=%v", got, want)
			}
		}
	}
}

func TestGainApproximatesExactMarginal(t *testing.T) {
	// With generous R, the index gain at a non-empty stage must approximate
	// the exact DP marginal gain for both problems (this is the statistical
	// core of the 1−1/e−ε claim).
	g, _ := graph.BarabasiAlbert(80, 3, 31)
	const L = 5
	ix, err := Build(g, L, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := hitting.NewEvaluator(g, L)
	base := []int{4, 61}
	candidates := []int{0, 17, 40, 79}
	for _, p := range []Problem{Problem1, Problem2} {
		d, _ := ix.NewDTable(p)
		for _, u := range base {
			d.Update(u)
		}
		for _, u := range candidates {
			got := d.Gain(u)
			withU := append(append([]int(nil), base...), u)
			var want, tol float64
			if p == Problem1 {
				fS, _ := ev.F1(base)
				fSu, _ := ev.F1(withU)
				want = fSu - fS
				tol = 0.05 * float64(g.N()) * L / 10 // generous: marginals are small differences
			} else {
				fS, _ := ev.F2(base)
				fSu, _ := ev.F2(withU)
				want = fSu - fS
				tol = 0.05 * float64(g.N()) / 2
			}
			if math.Abs(got-want) > tol {
				t.Errorf("%v gain(%d | %v) = %v, exact %v (tol %v)", p, u, base, got, want, tol)
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	g, _ := graph.Path(3)
	if _, err := Build(g, -1, 5, 1); err == nil {
		t.Error("negative L accepted")
	}
	if _, err := Build(g, 5, 0, 1); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := Build(g, 1<<17, 5, 1); err == nil {
		t.Error("oversized L accepted")
	}
}

func TestBuildFromWalksValidation(t *testing.T) {
	g, _ := graph.Path(3)
	mk := func(w ...[]int32) [][][]int32 {
		out := make([][][]int32, len(w))
		for i := range w {
			out[i] = [][]int32{w[i]}
		}
		return out
	}
	if _, err := BuildFromWalks(g, 2, 1, mk([]int32{0, 1}, []int32{1, 0})); err == nil {
		t.Error("wrong node count accepted")
	}
	if _, err := BuildFromWalks(g, 2, 1, mk([]int32{1, 0}, []int32{1, 0}, []int32{2, 1})); err == nil {
		t.Error("walk not starting at its node accepted")
	}
	if _, err := BuildFromWalks(g, 1, 1, mk([]int32{0, 1, 0}, []int32{1}, []int32{2})); err == nil {
		t.Error("overlong walk accepted")
	}
	if _, err := BuildFromWalks(g, 2, 1, mk([]int32{0, 9}, []int32{1}, []int32{2})); err == nil {
		t.Error("out-of-range visit accepted")
	}
	if _, err := BuildFromWalks(g, 2, 2, mk([]int32{0}, []int32{1}, []int32{2})); err == nil {
		t.Error("R mismatch accepted")
	}
	if _, err := BuildFromWalks(g, 2, 0, nil); err == nil {
		t.Error("R=0 accepted")
	}
}

func TestNewDTableValidation(t *testing.T) {
	g, _ := graph.Path(3)
	ix, _ := Build(g, 2, 2, 1)
	if _, err := ix.NewDTable(Problem(7)); err == nil {
		t.Error("unknown problem accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	g, _ := graph.BarabasiAlbert(50, 2, 3)
	a, _ := Build(g, 4, 5, 42)
	b, _ := Build(g, 4, 5, 42)
	if a.Entries() != b.Entries() {
		t.Fatalf("entry counts differ: %d vs %d", a.Entries(), b.Entries())
	}
	ac, bc := a.chunks[0], b.chunks[0]
	for i := range ac.ids {
		if ac.ids[i] != bc.ids[i] || ac.hops[i] != bc.hops[i] {
			t.Fatal("index contents differ for identical seed")
		}
	}
}

func TestEntriesBoundedByNRL(t *testing.T) {
	g, _ := graph.BarabasiAlbert(200, 3, 6)
	const L, R = 6, 10
	ix, _ := Build(g, L, R, 2)
	if ix.Entries() > int64(g.N())*L*R {
		t.Fatalf("entries %d exceed nRL=%d", ix.Entries(), g.N()*L*R)
	}
	if ix.MemoryBytes() <= 0 {
		t.Fatal("memory accounting broken")
	}
	if ix.L() != L || ix.R() != R || ix.Graph() != g {
		t.Fatal("accessors broken")
	}
}

func TestCloneIndependence(t *testing.T) {
	g, _ := graph.BarabasiAlbert(30, 2, 5)
	ix, _ := Build(g, 3, 4, 9)
	d, _ := ix.NewDTable(Problem1)
	c := d.Clone()
	c.Update(3)
	if d.Size() != 0 || c.Size() != 1 {
		t.Fatalf("clone sizes: original %d clone %d", d.Size(), c.Size())
	}
	if d.Gain(3) != float64(ixGainFresh(ix, 3)) {
		t.Fatal("original table mutated by clone update")
	}
}

func ixGainFresh(ix *Index, u int) float64 {
	d, _ := ix.NewDTable(Problem1)
	return d.Gain(u)
}

func TestProblemString(t *testing.T) {
	if Problem1.String() != "F1" || Problem2.String() != "F2" {
		t.Fatal("Problem.String wrong")
	}
	if Problem(5).String() == "" {
		t.Fatal("unknown problem string empty")
	}
}

func BenchmarkBuild(b *testing.B) {
	g, _ := graph.BarabasiAlbert(2000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, 6, 20, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGainAllNodes(b *testing.B) {
	g, _ := graph.BarabasiAlbert(2000, 5, 1)
	ix, _ := Build(g, 6, 20, 1)
	d, _ := ix.NewDTable(Problem1)
	r := rng.New(7)
	for i := 0; i < 5; i++ {
		d.Update(r.Intn(g.N()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink float64
		for u := 0; u < g.N(); u++ {
			sink += d.Gain(u)
		}
		_ = sink
	}
}

func TestBuildWorkersEquivalence(t *testing.T) {
	// The parallel builder must produce semantically identical indexes for
	// any worker count: same per-row entry multisets, hence identical gains
	// and selections at every greedy stage.
	g, _ := graph.BarabasiAlbert(150, 3, 11)
	const L, R = 5, 8
	seq, err := BuildWorkers(g, L, R, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BuildWorkers(g, L, R, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Entries() != par.Entries() {
		t.Fatalf("entry counts differ: %d vs %d", seq.Entries(), par.Entries())
	}
	dSeq, _ := seq.NewDTable(Problem1)
	dPar, _ := par.NewDTable(Problem1)
	picks := []int{10, 42, 99, 3}
	for _, u := range picks {
		for probe := 0; probe < g.N(); probe += 13 {
			if gs, gp := dSeq.Gain(probe), dPar.Gain(probe); gs != gp {
				t.Fatalf("gain(%d) differs after %d updates: %v vs %v", probe, dSeq.Size(), gs, gp)
			}
		}
		dSeq.Update(u)
		dPar.Update(u)
	}
	// Problem 2 as well.
	d2Seq, _ := seq.NewDTable(Problem2)
	d2Par, _ := par.NewDTable(Problem2)
	for probe := 0; probe < g.N(); probe += 7 {
		if gs, gp := d2Seq.Gain(probe), d2Par.Gain(probe); gs != gp {
			t.Fatalf("P2 gain(%d) differs: %v vs %v", probe, gs, gp)
		}
	}
}

func TestBuildWorkersDegenerate(t *testing.T) {
	g, _ := graph.Path(5)
	// workers > n and workers < 1 are both clamped.
	a, err := BuildWorkers(g, 3, 2, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWorkers(g, 3, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Entries() != b.Entries() {
		t.Fatal("clamped worker counts disagree")
	}
}
