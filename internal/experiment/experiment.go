// Package experiment defines the reproduction experiments E1–E13, the
// README's experiment suite. The paper is pure theory — it has no tables or
// figures — so each experiment turns one quantitative claim (theorem,
// corollary, lemma or remark) into a measurable run whose *shape*
// (exponents, inequalities, who wins) is compared against the paper's
// prediction. `ftbench` prints the outcomes as tables and findings.
//
// Every experiment is deterministic under Config.Seed and has a Quick mode
// with a reduced grid for smoke tests and benchmarks.
package experiment

import (
	"fmt"
	"io"
	"sort"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives all randomness; equal seeds give identical reports.
	Seed int64
	// Quick selects a reduced parameter grid (used by tests and benches).
	Quick bool
	// Out receives progress and tables; nil discards them.
	Out io.Writer
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// Report is the outcome of one experiment.
type Report struct {
	// ID and Title echo the experiment.
	ID, Title string
	// Tables are the paper-shaped result tables.
	Tables []*Table
	// Findings are one-line numeric conclusions ("fitted slope 0.47 vs
	// predicted <= 0.5"), printed under the experiment's tables.
	Findings []string
	// Pass reports whether every checked invariant of the experiment held.
	Pass bool
}

func (r *Report) addFinding(format string, args ...any) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// Render writes the full report (tables then findings) to w.
func (r *Report) Render(w io.Writer) error {
	for _, t := range r.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, f := range r.Findings {
		if _, err := fmt.Fprintf(w, "  * %s\n", f); err != nil {
			return err
		}
	}
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	_, err := fmt.Fprintf(w, "  => %s: %s\n", r.ID, status)
	return err
}

// Experiment couples an ID with the paper claim it reproduces and a runner.
type Experiment struct {
	// ID is the experiment identifier (E1..E13).
	ID string
	// Title is a short description.
	Title string
	// Claim cites the paper statement being reproduced.
	Claim string
	// Run executes the experiment.
	Run func(cfg Config) (*Report, error)
}

// All returns every registered experiment in ID order.
func All() []Experiment {
	exps := []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(), e9(), e10(), e11(), e12(), e13(),
	}
	sort.Slice(exps, func(i, j int) bool { return idOrder(exps[i].ID) < idOrder(exps[j].ID) })
	return exps
}

// ByID returns the experiment with the given ID (case-sensitive, e.g. "E3").
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func idOrder(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "E%d", &n); err != nil {
		return 1 << 30
	}
	return n
}
