// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4). Each runner returns a Report containing the same
// series/rows the paper plots; Render prints them as aligned text tables.
//
// Runners accept a Config whose Scale fields shrink the workloads for quick
// runs on laptop hardware; Scale = 1 reproduces the paper's sizes. Because
// greedy selections for budget k are prefixes of larger-budget runs, each
// k-sweep runs every algorithm once at the largest k and evaluates metric
// values on prefixes.
//
// Metrics here are computed exactly with the dynamic program rather than
// with the R=500 sampling the paper uses: at these graph sizes the DP is
// cheap and removes metric noise from the comparison (the estimator itself
// is validated against the DP in the test suite).
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies the Table 2 dataset sizes, in (0, 1]. 1 is
	// paper-sized.
	Scale float64
	// ScaleG multiplies the Fig. 9 scalability suite sizes (G_i has
	// i·100k·ScaleG nodes and i·1M·ScaleG edges).
	ScaleG float64
	// Seed drives all sampling.
	Seed uint64
	// Workers shards index construction and approximate-greedy gain
	// evaluations; 0 means all available cores. Reported selections and
	// metrics are identical for every value — only timings change.
	Workers int
}

// DefaultConfig returns a configuration sized for a quick single-machine
// run (a few minutes for the full suite).
func DefaultConfig() Config {
	return Config{Scale: 0.25, ScaleG: 0.02, Seed: 1}
}

// FullConfig returns the paper-sized configuration.
func FullConfig() Config {
	return Config{Scale: 1, ScaleG: 1, Seed: 1}
}

// workers resolves the Workers knob, defaulting to all available cores.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) validate() error {
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("experiments: Scale %v outside (0,1]", c.Scale)
	}
	if c.ScaleG <= 0 || c.ScaleG > 1 {
		return fmt.Errorf("experiments: ScaleG %v outside (0,1]", c.ScaleG)
	}
	return nil
}

// Series is one labeled curve: Y values over the shared X grid of its panel.
type Series struct {
	Name string
	Y    []float64
}

// Panel is one sub-plot of a figure: a shared X grid and one or more series
// over it.
type Panel struct {
	Title  string
	XLabel string
	X      []float64
	Series []Series
}

// Table is free-form tabular output (used by Table 2).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Report is the result of one experiment runner.
type Report struct {
	ID      string // e.g. "fig6"
	Title   string
	Params  string
	Notes   []string
	Panels  []Panel
	Tables  []Table
	Elapsed time.Duration
}

// Render writes the report as aligned text tables.
func (r *Report) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if r.Params != "" {
		fmt.Fprintf(&b, "params: %s\n", r.Params)
	}
	for _, t := range r.Tables {
		if t.Title != "" {
			fmt.Fprintf(&b, "\n%s\n", t.Title)
		}
		renderTable(&b, t.Columns, t.Rows)
	}
	for _, p := range r.Panels {
		fmt.Fprintf(&b, "\n%s\n", p.Title)
		cols := make([]string, 0, len(p.Series)+1)
		cols = append(cols, p.XLabel)
		for _, s := range p.Series {
			cols = append(cols, s.Name)
		}
		rows := make([][]string, len(p.X))
		for i, x := range p.X {
			row := make([]string, 0, len(cols))
			row = append(row, trimFloat(x))
			for _, s := range p.Series {
				if i < len(s.Y) {
					row = append(row, trimFloat(s.Y[i]))
				} else {
					row = append(row, "-")
				}
			}
			rows[i] = row
		}
		renderTable(&b, cols, rows)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	fmt.Fprintf(&b, "elapsed: %v\n", r.Elapsed.Round(time.Millisecond))
	_, err := io.WriteString(w, b.String())
	return err
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		s = "0"
	}
	return s
}

func renderTable(b *strings.Builder, cols []string, rows [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(cols)
	sep := make([]string, len(cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
}

// Runner couples an experiment ID with its function.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table2", "Summary of the datasets", Table2},
		{"fig2", "Effectiveness of DPF1 vs ApproxF1", Fig2},
		{"fig3", "Effectiveness of DPF2 vs ApproxF2", Fig3},
		{"fig4", "Running time: DP-based vs approximate greedy", Fig4},
		{"fig5", "Running time as a function of R", Fig5},
		{"fig6", "AHT of different algorithms across datasets", Fig6},
		{"fig7", "EHN of different algorithms across datasets", Fig7},
		{"fig8", "Running time vs k and L (Epinions)", Fig8},
		{"fig9", "Scalability on synthetic graphs G1..G10", Fig9},
		{"fig10", "Effect of parameter L", Fig10},
		{"ablations", "Design-decision ablations (DESIGN.md §6)", Ablations},
		{"extra1", "Empirical validation of the greedy approximation guarantee", Extra1OptimalityRatio},
		{"extra2", "Estimator accuracy vs Hoeffding sample-size bounds", Extra2EstimatorAccuracy},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
