// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§7) on the simulated substrates, and
// renders the same rows/series the paper reports. cmd/dimmunix-bench is
// the CLI front end.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Report is one regenerated table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes an aligned text table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Scale selects quick (CI-sized) or full (paper-sized) runs.
type Scale struct {
	Full bool
}

// Experiment is one regenerable table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) Report
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Real deadlock bugs avoided (Table 1)", Table1},
		{"table2", "Java JDK invitations to deadlock avoided (Table 2)", Table2},
		{"fig4", "End-to-end overhead on real-system simulators (Figure 4)", Fig4},
		{"fig5", "Lock throughput vs number of threads (Figure 5)", Fig5},
		{"fig6", "Lock throughput vs delta-in / delta-out (Figure 6)", Fig6},
		{"fig7", "Lock throughput vs history size and matching depth (Figure 7)", Fig7},
		{"fig8", "Overhead breakdown (Figure 8)", Fig8},
		{"fig9", "False-positive overhead vs matching depth + gate/ghost locks (Figure 9)", Fig9},
		{"resources", "Resource utilization (Section 7.4)", Resources},
		{"ablation", "Design ablations", Ablation},
	}
}

// ByID finds an experiment.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			return &e
		}
	}
	return nil
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func utoa(v uint64) string { return fmt.Sprintf("%d", v) }

// overhead computes (base-x)/base as a fraction (negative = speedup).
func overhead(base, x float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - x) / base
}
