package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/index"
	"repro/internal/metrics"
)

// Shared paper parameters (Section 4).
var (
	rGrid = []float64{50, 100, 150, 200, 250} // Figs. 2, 3, 5
	kGrid = []float64{20, 40, 60, 80, 100}    // Figs. 6, 7, 8(a)
	lGrid = []float64{2, 4, 6, 8, 10}         // Figs. 8(b), 10
)

func secs(d time.Duration) float64 { return d.Seconds() }

// fig25Graph returns the small synthetic power-law graph of Figs. 2–5
// (paper: n=1000, m=9956), shrunk below the default scale for quick runs.
func fig25Graph(cfg Config) (*graph.Graph, error) {
	f := 4 * cfg.Scale // cfg.Scale 0.25 (the default) reproduces the paper's n=1000
	if f > 1 {
		f = 1
	}
	n := int(1000 * f)
	if n < 100 {
		n = 100
	}
	m := int(9956 * f)
	return dataset.PowerLawExact(n, m, 0x2345)
}

// scaleK clamps a budget to at most half the graph, keeping tiny quick-run
// graphs meaningful.
func scaleK(k, n int) int {
	if k > n/2 {
		return n / 2
	}
	return k
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

// Table2 regenerates the dataset summary: the paper's reported sizes next to
// the generated stand-in sizes and their degree statistics.
func Table2(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	t := Table{
		Title:   "Summary of the datasets (paper sizes vs generated stand-ins)",
		Columns: []string{"Name", "paper n", "paper m", "standin n", "standin m", "max deg", "gini", "connected"},
	}
	for _, d := range dataset.Paper {
		g, err := dataset.Load(d.Name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		s := g.ComputeStats()
		t.Rows = append(t.Rows, []string{
			d.Name,
			fmt.Sprint(d.Nodes), fmt.Sprint(d.Edges),
			fmt.Sprint(s.Nodes), fmt.Sprint(s.Edges),
			fmt.Sprint(s.MaxDegree), fmt.Sprintf("%.3f", s.DegreeGini),
			fmt.Sprint(s.Components == 1),
		})
	}
	return &Report{
		ID: "table2", Title: "Summary of the datasets",
		Params:  fmt.Sprintf("scale=%.2f", cfg.Scale),
		Tables:  []Table{t},
		Notes:   []string{"SNAP originals are offline; stand-ins are deterministic power-law graphs with matched sizes (DESIGN.md §5)"},
		Elapsed: time.Since(start),
	}, nil
}

// ---------------------------------------------------------------------------
// Figs. 2 and 3: DP greedy vs approximate greedy effectiveness vs R
// ---------------------------------------------------------------------------

func figEffectivenessVsR(cfg Config, id, title string, dp, approx func(*graph.Graph, core.Options) (*core.Selection, error)) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := fig25Graph(cfg)
	if err != nil {
		return nil, err
	}
	k := scaleK(30, g.N())
	rep := &Report{
		ID: id, Title: title,
		Params: fmt.Sprintf("n=%d m=%d k=%d R∈%v L∈{5,10}", g.N(), g.M(), k, rGrid),
		Notes: []string{
			"DP curve is flat: it does not depend on R",
			"expected shape: approximate curves converge to the DP line; at R>=100 the difference is negligible",
		},
	}
	for _, L := range []int{5, 10} {
		dpSel, err := dp(g, core.Options{K: k, L: L, Seed: cfg.Seed, Lazy: true})
		if err != nil {
			return nil, err
		}
		dpM, err := metrics.Exact(g, dpSel.Nodes, L)
		if err != nil {
			return nil, err
		}
		var ahtDP, ehnDP, ahtAp, ehnAp []float64
		for ri, R := range rGrid {
			apSel, err := approx(g, core.Options{K: k, L: L, R: int(R), Seed: cfg.Seed + uint64(ri), Workers: cfg.Workers})
			if err != nil {
				return nil, err
			}
			apM, err := metrics.Exact(g, apSel.Nodes, L)
			if err != nil {
				return nil, err
			}
			ahtDP = append(ahtDP, dpM.AHT)
			ehnDP = append(ehnDP, dpM.EHN)
			ahtAp = append(ahtAp, apM.AHT)
			ehnAp = append(ehnAp, apM.EHN)
		}
		dpName, apName := dpSel.Algorithm, "Approx"
		rep.Panels = append(rep.Panels,
			Panel{Title: fmt.Sprintf("AHT vs R (L=%d)", L), XLabel: "R", X: rGrid,
				Series: []Series{{Name: dpName, Y: ahtDP}, {Name: apName, Y: ahtAp}}},
			Panel{Title: fmt.Sprintf("EHN vs R (L=%d)", L), XLabel: "R", X: rGrid,
				Series: []Series{{Name: dpName, Y: ehnDP}, {Name: apName, Y: ehnAp}}},
		)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Fig2 compares the effectiveness of DPF1 and ApproxF1 under both metrics as
// a function of the sample size R, for L = 5 and 10 (paper Fig. 2).
func Fig2(cfg Config) (*Report, error) {
	return figEffectivenessVsR(cfg, "fig2", "Effectiveness of DPF1 vs ApproxF1", core.DPF1, core.ApproxF1)
}

// Fig3 compares DPF2 and ApproxF2 (paper Fig. 3).
func Fig3(cfg Config) (*Report, error) {
	return figEffectivenessVsR(cfg, "fig3", "Effectiveness of DPF2 vs ApproxF2", core.DPF2, core.ApproxF2)
}

// ---------------------------------------------------------------------------
// Fig. 4: running time, DP-based vs approximate greedy
// ---------------------------------------------------------------------------

// Fig4 measures wall-clock running time of the four algorithms on the small
// synthetic graph, at L = 5 and 10 with R = 250 for the approximate
// algorithms (paper Fig. 4). The DP algorithms use the plain (non-lazy)
// driver here, matching the paper's complexity claim; the lazy ablation
// bench quantifies how much CELF narrows the gap.
func Fig4(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := fig25Graph(cfg)
	if err != nil {
		return nil, err
	}
	k := scaleK(30, g.N())
	rep := &Report{
		ID: "fig4", Title: "Running time: DP-based vs approximate greedy",
		Params: fmt.Sprintf("n=%d m=%d k=%d R=250", g.N(), g.M(), k),
		Notes: []string{
			"expected shape: DP-based greedy is orders of magnitude slower than the approximate greedy",
			"expected shape: L=10 roughly doubles every running time vs L=5",
		},
	}
	type algo struct {
		name string
		run  func() (*core.Selection, error)
	}
	for _, L := range []int{5, 10} {
		opts := core.Options{K: k, L: L, R: 250, Seed: cfg.Seed, Workers: cfg.Workers}
		algos := []algo{
			{"DPF1", func() (*core.Selection, error) { return core.DPF1(g, opts) }},
			{"ApproxF1", func() (*core.Selection, error) { return core.ApproxF1(g, opts) }},
			{"DPF2", func() (*core.Selection, error) { return core.DPF2(g, opts) }},
			{"ApproxF2", func() (*core.Selection, error) { return core.ApproxF2(g, opts) }},
		}
		t := Table{
			Title:   fmt.Sprintf("Running time (seconds), L=%d", L),
			Columns: []string{"algorithm", "build(s)", "select(s)", "total(s)"},
		}
		for _, a := range algos {
			sel, err := a.run()
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				a.name,
				fmt.Sprintf("%.3f", secs(sel.BuildTime)),
				fmt.Sprintf("%.3f", secs(sel.SelectTime)),
				fmt.Sprintf("%.3f", secs(sel.BuildTime+sel.SelectTime)),
			})
		}
		rep.Tables = append(rep.Tables, t)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// ---------------------------------------------------------------------------
// Fig. 5: approximate greedy running time vs R
// ---------------------------------------------------------------------------

// Fig5 measures ApproxF1/ApproxF2 running time as a function of R at L = 5
// and 10 (paper Fig. 5). Expected shape: linear in R.
func Fig5(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := fig25Graph(cfg)
	if err != nil {
		return nil, err
	}
	k := scaleK(30, g.N())
	rep := &Report{
		ID: "fig5", Title: "Running time as a function of R",
		Params: fmt.Sprintf("n=%d m=%d k=%d", g.N(), g.M(), k),
		Notes:  []string{"expected shape: running time grows linearly with R"},
	}
	for _, L := range []int{5, 10} {
		var y1, y2 []float64
		for ri, R := range rGrid {
			opts := core.Options{K: k, L: L, R: int(R), Seed: cfg.Seed + uint64(ri), Workers: cfg.Workers}
			s1, err := core.ApproxF1(g, opts)
			if err != nil {
				return nil, err
			}
			s2, err := core.ApproxF2(g, opts)
			if err != nil {
				return nil, err
			}
			y1 = append(y1, secs(s1.BuildTime+s1.SelectTime))
			y2 = append(y2, secs(s2.BuildTime+s2.SelectTime))
		}
		rep.Panels = append(rep.Panels, Panel{
			Title: fmt.Sprintf("Running time (s) vs R (L=%d)", L), XLabel: "R", X: rGrid,
			Series: []Series{{Name: "ApproxF1", Y: y1}, {Name: "ApproxF2", Y: y2}},
		})
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// ---------------------------------------------------------------------------
// Figs. 6 and 7: effectiveness across datasets vs k
// ---------------------------------------------------------------------------

// effectivenessSweep runs the four algorithms of Figs. 6/7 on one dataset at
// the largest budget, then evaluates both exact metrics on budget prefixes.
func effectivenessSweep(g *graph.Graph, L, R, workers int, seed uint64, ks []float64) (aht, ehn map[string][]float64, err error) {
	kmax := scaleK(int(ks[len(ks)-1]), g.N())
	type result struct {
		name  string
		nodes []int
	}
	var runs []result

	deg, err := core.Degree(g, kmax)
	if err != nil {
		return nil, nil, err
	}
	runs = append(runs, result{"Degree", deg.Nodes})
	dom, err := core.Dominate(g, kmax)
	if err != nil {
		return nil, nil, err
	}
	runs = append(runs, result{"Dominate", dom.Nodes})

	// One index serves both approximate algorithms (Lazy keeps k=100 cheap).
	ix, err := index.BuildWorkers(g, L, R, seed, workers)
	if err != nil {
		return nil, nil, err
	}
	ap1, err := core.ApproxWithIndex(context.Background(), ix, index.Problem1, kmax, greedy.Options{Lazy: true, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	runs = append(runs, result{"ApproxF1", ap1.Nodes})
	ap2, err := core.ApproxWithIndex(context.Background(), ix, index.Problem2, kmax, greedy.Options{Lazy: true, Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	runs = append(runs, result{"ApproxF2", ap2.Nodes})

	aht = map[string][]float64{}
	ehn = map[string][]float64{}
	kInts := make([]int, len(ks))
	for i, kf := range ks {
		kInts[i] = scaleK(int(kf), g.N())
	}
	for _, run := range runs {
		series, err := metrics.ExactSeries(g, run.nodes, kInts, L)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range series {
			aht[run.name] = append(aht[run.name], m.AHT)
			ehn[run.name] = append(ehn[run.name], m.EHN)
		}
	}
	return aht, ehn, nil
}

func figAcrossDatasets(cfg Config, id, title, metric string) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	const L, R = 6, 100
	rep := &Report{
		ID: id, Title: title,
		Params: fmt.Sprintf("L=%d R=%d k∈%v scale=%.2f", L, R, kGrid, cfg.Scale),
	}
	if metric == "AHT" {
		rep.Notes = []string{"expected shape: ApproxF1 lowest (best), then ApproxF2, then the baselines; gap grows with k"}
	} else {
		rep.Notes = []string{"expected shape: ApproxF2 highest (best), then ApproxF1, then the baselines; gap grows with k"}
	}
	order := []string{"Degree", "Dominate", "ApproxF1", "ApproxF2"}
	for _, d := range dataset.Paper {
		g, err := dataset.Load(d.Name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		aht, ehn, err := effectivenessSweep(g, L, R, cfg.workers(), cfg.Seed, kGrid)
		if err != nil {
			return nil, err
		}
		src := aht
		if metric == "EHN" {
			src = ehn
		}
		panel := Panel{Title: fmt.Sprintf("%s vs k (%s, n=%d m=%d)", metric, d.Name, g.N(), g.M()), XLabel: "k", X: kGrid}
		for _, name := range order {
			panel.Series = append(panel.Series, Series{Name: name, Y: src[name]})
		}
		rep.Panels = append(rep.Panels, panel)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Fig6 compares AHT of Degree, Dominate, ApproxF1 and ApproxF2 as a function
// of k over the four datasets (paper Fig. 6; L=6, R=100).
func Fig6(cfg Config) (*Report, error) {
	return figAcrossDatasets(cfg, "fig6", "Comparison of AHT of different algorithms", "AHT")
}

// Fig7 compares EHN of the four algorithms (paper Fig. 7).
func Fig7(cfg Config) (*Report, error) {
	return figAcrossDatasets(cfg, "fig7", "Comparison of EHN of different algorithms", "EHN")
}

// ---------------------------------------------------------------------------
// Fig. 8: running time vs k and vs L on Epinions
// ---------------------------------------------------------------------------

// Fig8 measures running time of the four algorithms on the Epinions
// stand-in: panel (a) sweeps k at L=6, panel (b) sweeps L at k=100 (paper
// Fig. 8; R=100). Expected shape: the approximate greedy algorithms stay
// within a small constant factor (≈2.5–2.7× in the paper) of the baselines.
func Fig8(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	const R = 100
	g, err := dataset.Load("Epinions", cfg.Scale)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID: "fig8", Title: "Running time vs k and L (Epinions)",
		Params: fmt.Sprintf("n=%d m=%d R=%d", g.N(), g.M(), R),
		Notes:  []string{"approximate greedy time includes index construction, per the paper"},
	}

	timeAll := func(k, L int) (map[string]float64, error) {
		out := map[string]float64{}
		deg, err := core.Degree(g, k)
		if err != nil {
			return nil, err
		}
		out["Degree"] = secs(deg.BuildTime + deg.SelectTime)
		dom, err := core.Dominate(g, k)
		if err != nil {
			return nil, err
		}
		out["Dominate"] = secs(dom.BuildTime + dom.SelectTime)
		opts := core.Options{K: k, L: L, R: R, Seed: cfg.Seed, Lazy: true, Workers: cfg.Workers}
		a1, err := core.ApproxF1(g, opts)
		if err != nil {
			return nil, err
		}
		out["ApproxF1"] = secs(a1.BuildTime + a1.SelectTime)
		a2, err := core.ApproxF2(g, opts)
		if err != nil {
			return nil, err
		}
		out["ApproxF2"] = secs(a2.BuildTime + a2.SelectTime)
		return out, nil
	}

	order := []string{"Degree", "Dominate", "ApproxF1", "ApproxF2"}
	series := map[string][]float64{}
	for _, kf := range kGrid {
		times, err := timeAll(scaleK(int(kf), g.N()), 6)
		if err != nil {
			return nil, err
		}
		for _, name := range order {
			series[name] = append(series[name], times[name])
		}
	}
	panelA := Panel{Title: "(a) Running time (s) vs k, L=6", XLabel: "k", X: kGrid}
	for _, name := range order {
		panelA.Series = append(panelA.Series, Series{Name: name, Y: series[name]})
	}

	series = map[string][]float64{}
	for _, lf := range lGrid {
		times, err := timeAll(scaleK(100, g.N()), int(lf))
		if err != nil {
			return nil, err
		}
		for _, name := range order {
			series[name] = append(series[name], times[name])
		}
	}
	panelB := Panel{Title: "(b) Running time (s) vs L, k=100", XLabel: "L", X: lGrid}
	for _, name := range order {
		panelB.Series = append(panelB.Series, Series{Name: name, Y: series[name]})
	}
	rep.Panels = []Panel{panelA, panelB}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// ---------------------------------------------------------------------------
// Fig. 9: scalability
// ---------------------------------------------------------------------------

// Fig9 measures ApproxF1/ApproxF2 running time over the scalability suite
// G1..G10 (paper Fig. 9; k=100, L=6, R=100). Expected shape: linear in both
// the node count and the edge count.
func Fig9(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	const L, R = 6, 100
	var nodes, edges, y1, y2 []float64
	for i := 1; i <= 10; i++ {
		g, err := dataset.Scalability(i, cfg.ScaleG)
		if err != nil {
			return nil, err
		}
		k := scaleK(100, g.N())
		opts := core.Options{K: k, L: L, R: R, Seed: cfg.Seed, Lazy: true, Workers: cfg.Workers}
		s1, err := core.ApproxF1(g, opts)
		if err != nil {
			return nil, err
		}
		s2, err := core.ApproxF2(g, opts)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, float64(g.N()))
		edges = append(edges, float64(g.M()))
		y1 = append(y1, secs(s1.BuildTime+s1.SelectTime))
		y2 = append(y2, secs(s2.BuildTime+s2.SelectTime))
	}
	rep := &Report{
		ID: "fig9", Title: "Scalability on synthetic graphs G1..G10",
		Params: fmt.Sprintf("k=100 L=%d R=%d scaleG=%.3f", L, R, cfg.ScaleG),
		Notes:  []string{"expected shape: running time linear in number of nodes and edges"},
		Panels: []Panel{
			{Title: "Running time (s) vs number of nodes", XLabel: "nodes", X: nodes,
				Series: []Series{{Name: "ApproxF1", Y: y1}, {Name: "ApproxF2", Y: y2}}},
			{Title: "Running time (s) vs number of edges", XLabel: "edges", X: edges,
				Series: []Series{{Name: "ApproxF1", Y: y1}, {Name: "ApproxF2", Y: y2}}},
		},
		Elapsed: time.Since(start),
	}
	return rep, nil
}

// ---------------------------------------------------------------------------
// Fig. 10: effect of L
// ---------------------------------------------------------------------------

// Fig10 sweeps L on the CAGrQc and CAHepPh stand-ins at k=60 and reports
// both metrics for the four algorithms (paper Fig. 10; R=100). Expected
// shapes: AHT and EHN grow with L; the greedy/baseline gap widens with L.
func Fig10(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	const R = 100
	rep := &Report{
		ID: "fig10", Title: "Effect of parameter L",
		Params: fmt.Sprintf("k=60 R=%d L∈%v scale=%.2f", R, lGrid, cfg.Scale),
		Notes:  []string{"expected shape: both metrics increase with L; greedy/baseline gap grows with L"},
	}
	order := []string{"Degree", "Dominate", "ApproxF1", "ApproxF2"}
	for _, name := range []string{"CAGrQc", "CAHepPh"} {
		g, err := dataset.Load(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		k := scaleK(60, g.N())
		// Baselines do not depend on L: select once.
		deg, err := core.Degree(g, k)
		if err != nil {
			return nil, err
		}
		dom, err := core.Dominate(g, k)
		if err != nil {
			return nil, err
		}
		aht := map[string][]float64{}
		ehn := map[string][]float64{}
		for _, lf := range lGrid {
			L := int(lf)
			ix, err := index.BuildWorkers(g, L, R, cfg.Seed, cfg.workers())
			if err != nil {
				return nil, err
			}
			ap1, err := core.ApproxWithIndex(context.Background(), ix, index.Problem1, k, greedy.Options{Lazy: true, Workers: cfg.workers()})
			if err != nil {
				return nil, err
			}
			ap2, err := core.ApproxWithIndex(context.Background(), ix, index.Problem2, k, greedy.Options{Lazy: true, Workers: cfg.workers()})
			if err != nil {
				return nil, err
			}
			for _, sel := range []struct {
				name  string
				nodes []int
			}{
				{"Degree", deg.Nodes}, {"Dominate", dom.Nodes},
				{"ApproxF1", ap1.Nodes}, {"ApproxF2", ap2.Nodes},
			} {
				m, err := metrics.Exact(g, sel.nodes, L)
				if err != nil {
					return nil, err
				}
				aht[sel.name] = append(aht[sel.name], m.AHT)
				ehn[sel.name] = append(ehn[sel.name], m.EHN)
			}
		}
		pa := Panel{Title: fmt.Sprintf("AHT vs L (%s, n=%d)", name, g.N()), XLabel: "L", X: lGrid}
		pe := Panel{Title: fmt.Sprintf("EHN vs L (%s, n=%d)", name, g.N()), XLabel: "L", X: lGrid}
		for _, algo := range order {
			pa.Series = append(pa.Series, Series{Name: algo, Y: aht[algo]})
			pe.Series = append(pe.Series, Series{Name: algo, Y: ehn[algo]})
		}
		rep.Panels = append(rep.Panels, pa, pe)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
