// Package experiment reproduces the paper's evaluation: it provides the
// scenario builder and maximum-load search shared by all case studies, and
// one runner per table/figure (Table II/III, Figs. 3-7, plus the scale-up
// and request-level extensions). cmd/tgsim prints the resulting tables.
package experiment

import (
	"fmt"
	"strings"

	"tailguard/internal/parallel"
)

// Fidelity scales experiment cost: number of simulated queries per probe,
// warm-up, minimum per-type sample counts for SLO compliance, and the
// max-load search resolution.
type Fidelity struct {
	Queries    int     // queries per simulation run
	Warmup     int     // warm-up queries excluded from statistics
	MinSamples int     // min samples per query type for compliance checks
	LoadTol    float64 // max-load binary-search resolution
	Seed       int64   // base RNG seed
	// Workers bounds how many independent simulation runs the harness
	// executes concurrently (sweep cells, replicates, speculative
	// max-load probes). 0 means GOMAXPROCS; 1 is the sequential path.
	// Results are bit-identical at every value (DESIGN.md §8).
	Workers int
}

// Quick is sized for CI tests and benchmarks (seconds per experiment).
var Quick = Fidelity{Queries: 30000, Warmup: 2000, MinSamples: 100, LoadTol: 0.02, Seed: 1}

// Full is sized for paper-fidelity numbers (minutes for the full suite).
var Full = Fidelity{Queries: 250000, Warmup: 10000, MinSamples: 500, LoadTol: 0.005, Seed: 1}

func (f Fidelity) validate() error {
	if f.Queries < 1 {
		return fmt.Errorf("experiment: fidelity needs >= 1 query, got %d", f.Queries)
	}
	if f.Warmup < 0 || f.Warmup >= f.Queries {
		return fmt.Errorf("experiment: warmup %d outside [0, %d)", f.Warmup, f.Queries)
	}
	if f.MinSamples < 1 {
		return fmt.Errorf("experiment: min samples must be >= 1, got %d", f.MinSamples)
	}
	if f.LoadTol <= 0 || f.LoadTol >= 0.5 {
		return fmt.Errorf("experiment: load tolerance %v outside (0, 0.5)", f.LoadTol)
	}
	if f.Workers < 0 {
		return fmt.Errorf("experiment: workers must be >= 0, got %d", f.Workers)
	}
	return nil
}

// pool returns the worker pool the fidelity prescribes.
func (f Fidelity) pool() *parallel.Pool { return parallel.NewPool(f.Workers) }

// scaled returns a copy with Queries and Warmup multiplied by factor
// (minimum 1), used by experiments whose per-query task counts differ
// wildly (e.g. fanout-100 OLDI runs shrink query counts).
func (f Fidelity) scaled(factor float64) Fidelity {
	g := f
	g.Queries = int(float64(f.Queries) * factor)
	if g.Queries < 1 {
		g.Queries = 1
	}
	g.Warmup = int(float64(f.Warmup) * factor)
	if g.Warmup >= g.Queries {
		g.Warmup = g.Queries - 1
	}
	return g
}

// Table is a formatted experiment result ready for printing, paired with
// the raw cell values for programmatic checks.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Raw holds the numeric payload per row keyed by column name where a
	// numeric reading exists (used by tests and EXPERIMENTS.md tooling).
	Raw []map[string]float64
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
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
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 CSV (header row + data rows), for
// downstream plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// f2 formats a float with 2 decimals; f3 with 3; pct as a percentage.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
