package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// tinyConfig keeps the whole suite runnable in seconds for tests.
func tinyConfig() Config {
	return Config{Scale: 0.02, ScaleG: 0.002, Seed: 1}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Scale: 0, ScaleG: 0.5},
		{Scale: 1.5, ScaleG: 0.5},
		{Scale: 0.5, ScaleG: 0},
		{Scale: 0.5, ScaleG: 2},
	}
	for _, cfg := range bad {
		if _, err := Table2(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestDefaultAndFullConfigsValid(t *testing.T) {
	if err := DefaultConfig().validate(); err != nil {
		t.Fatal(err)
	}
	if err := FullConfig().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("registry has %d runners, want 13 (Table 2 + Figs 2–10 + ablations + extras)", len(all))
	}
	for _, r := range all {
		got, err := ByID(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Title != r.Title {
			t.Fatalf("ByID(%s) mismatched", r.ID)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestTable2(t *testing.T) {
	rep, err := Table2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 4 {
		t.Fatalf("Table2 shape wrong: %+v", rep.Tables)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"CAGrQc", "CAHepPh", "Brightkite", "Epinions"} {
		if !strings.Contains(out, name) {
			t.Errorf("rendered Table 2 missing %s", name)
		}
	}
}

func TestFig2ShapeAndConvergence(t *testing.T) {
	rep, err := Fig2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Panels) != 4 {
		t.Fatalf("Fig2 has %d panels, want 4", len(rep.Panels))
	}
	for _, p := range rep.Panels {
		if len(p.X) != len(rGrid) {
			t.Fatalf("panel %q X grid %v", p.Title, p.X)
		}
		if len(p.Series) != 2 {
			t.Fatalf("panel %q has %d series, want 2", p.Title, len(p.Series))
		}
		dp := p.Series[0]
		for i := 1; i < len(dp.Y); i++ {
			if dp.Y[i] != dp.Y[0] {
				t.Fatalf("DP series not flat in %q: %v", p.Title, dp.Y)
			}
		}
	}
}

func TestFig4HasTimingTables(t *testing.T) {
	rep, err := Fig4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("Fig4 tables = %d, want 2 (L=5, L=10)", len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		if len(tab.Rows) != 4 {
			t.Fatalf("Fig4 table rows = %d, want 4 algorithms", len(tab.Rows))
		}
	}
}

func TestFig5Panels(t *testing.T) {
	rep, err := Fig5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Panels) != 2 {
		t.Fatalf("Fig5 panels = %d, want 2", len(rep.Panels))
	}
	for _, p := range rep.Panels {
		for _, s := range p.Series {
			if len(s.Y) != len(rGrid) {
				t.Fatalf("series %s has %d points", s.Name, len(s.Y))
			}
			for _, v := range s.Y {
				if v < 0 {
					t.Fatalf("negative time in %s", s.Name)
				}
			}
		}
	}
}

func TestFig6GreedyWins(t *testing.T) {
	rep, err := Fig6(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Panels) != 4 {
		t.Fatalf("Fig6 panels = %d, want 4 datasets", len(rep.Panels))
	}
	// At the largest k, ApproxF1's AHT must not exceed either baseline's.
	// Tolerance: at tiny test scale the metric saturates and sampling noise
	// in the selection can move it by a hundredth of a hop.
	const tol = 0.02
	for _, p := range rep.Panels {
		vals := map[string]float64{}
		for _, s := range p.Series {
			vals[s.Name] = s.Y[len(s.Y)-1]
		}
		if vals["ApproxF1"] > vals["Degree"]+tol || vals["ApproxF1"] > vals["Dominate"]+tol {
			t.Errorf("%s: ApproxF1 AHT %v beaten by a baseline (Degree %v, Dominate %v)",
				p.Title, vals["ApproxF1"], vals["Degree"], vals["Dominate"])
		}
	}
}

func TestFig7GreedyWins(t *testing.T) {
	rep, err := Fig7(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Panels {
		vals := map[string]float64{}
		n := 0.0
		for _, s := range p.Series {
			vals[s.Name] = s.Y[len(s.Y)-1]
			if v := s.Y[len(s.Y)-1]; v > n {
				n = v
			}
		}
		// Tolerance of 0.5% of the best coverage: at tiny scale EHN
		// saturates near n and selection noise moves it by a fraction of a
		// node.
		tol := 0.005 * n
		if vals["ApproxF2"] < vals["Degree"]-tol || vals["ApproxF2"] < vals["Dominate"]-tol {
			t.Errorf("%s: ApproxF2 EHN %v beaten by a baseline (Degree %v, Dominate %v)",
				p.Title, vals["ApproxF2"], vals["Degree"], vals["Dominate"])
		}
	}
}

func TestFig8Shape(t *testing.T) {
	rep, err := Fig8(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Panels) != 2 {
		t.Fatalf("Fig8 panels = %d, want 2", len(rep.Panels))
	}
	if len(rep.Panels[0].Series) != 4 || len(rep.Panels[1].Series) != 4 {
		t.Fatal("Fig8 should time 4 algorithms")
	}
}

func TestFig9Linearity(t *testing.T) {
	rep, err := Fig9(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Panels) != 2 {
		t.Fatalf("Fig9 panels = %d, want 2", len(rep.Panels))
	}
	p := rep.Panels[0]
	if len(p.X) != 10 {
		t.Fatalf("Fig9 should cover G1..G10, got %d points", len(p.X))
	}
	// Loose linearity check: time at G10 should be no more than ~30× time
	// at G1 (10× work with generous constant-noise allowance at tiny scale).
	for _, s := range p.Series {
		if s.Y[9] > 30*s.Y[0]+0.05 {
			t.Errorf("series %s looks superlinear: first=%v last=%v", s.Name, s.Y[0], s.Y[9])
		}
	}
}

func TestFig10EffectOfL(t *testing.T) {
	rep, err := Fig10(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Panels) != 4 {
		t.Fatalf("Fig10 panels = %d, want 4", len(rep.Panels))
	}
	// EHN panels: every algorithm's coverage must be (near-)nondecreasing in
	// L. For the approximate algorithms the selection itself changes with L,
	// so in the saturated tiny-scale regime tiny dips from selection noise
	// are possible; allow 0.2% of the plateau.
	for _, p := range rep.Panels {
		if !strings.HasPrefix(p.Title, "EHN") {
			continue
		}
		for _, s := range p.Series {
			plateau := s.Y[len(s.Y)-1]
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1]-0.002*plateau {
					t.Errorf("%s/%s: EHN decreased with L: %v", p.Title, s.Name, s.Y)
				}
			}
		}
	}
}

func TestAblationsReport(t *testing.T) {
	rep, err := Ablations(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("ablations tables = %d, want 3", len(rep.Tables))
	}
	// Table (1): lazy must use strictly fewer evaluations than plain while
	// achieving the same exact F1.
	t1 := rep.Tables[0]
	if t1.Rows[0][3] != t1.Rows[1][3] {
		t.Fatalf("lazy F1 %s differs from plain %s", t1.Rows[1][3], t1.Rows[0][3])
	}
	var plainEvals, lazyEvals int
	fmt.Sscan(t1.Rows[0][1], &plainEvals)
	fmt.Sscan(t1.Rows[1][1], &lazyEvals)
	if lazyEvals >= plainEvals {
		t.Fatalf("lazy evals %d not fewer than plain %d", lazyEvals, plainEvals)
	}
}

func TestExtra1GuaranteeHolds(t *testing.T) {
	rep, err := Extra1OptimalityRatio(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Tables[0].Rows {
		for _, col := range []int{2, 3} {
			var ratio float64
			fmt.Sscan(row[col], &ratio)
			if ratio < 1-1/math.E-1e-9 {
				t.Fatalf("greedy ratio %v below 1-1/e on %s k=%s", ratio, row[0], row[1])
			}
			if ratio > 1+1e-9 {
				t.Fatalf("ratio %v above 1: optimum search broken", ratio)
			}
		}
	}
}

func TestExtra2BoundsHold(t *testing.T) {
	rep, err := Extra2EstimatorAccuracy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Fatalf("estimator error exceeded its Hoeffding bound: %v", rep.Notes)
		}
	}
	for _, row := range rep.Tables[0].Rows {
		var err1, bound1, err2, bound2 float64
		fmt.Sscan(row[1], &err1)
		fmt.Sscan(row[2], &bound1)
		fmt.Sscan(row[3], &err2)
		fmt.Sscan(row[4], &bound2)
		if err1 > bound1 || err2 > bound2 {
			t.Fatalf("row %v violates bound", row)
		}
	}
}

func TestRenderOutputsAllSeries(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "demo", Params: "p=1",
		Panels: []Panel{{
			Title: "panel", XLabel: "k", X: []float64{1, 2},
			Series: []Series{{Name: "A", Y: []float64{0.5, 1}}, {Name: "B", Y: []float64{2}}},
		}},
		Notes: []string{"a note"},
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "panel", "A", "B", "a note", "0.5", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}
