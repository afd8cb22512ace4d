package sim

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"mopac/internal/plot"
)

// Step is one section of the experiment report. Its writer gets every
// run through a fetch, so declaring the section's runs (PlanStep) and
// writing the section (WriteStep) are the same code.
type Step struct {
	ID    string
	Brief string
	write func(w io.Writer, f fetch) error
}

// steps is the report, in order.
var steps = []Step{
	{"tab4", "Table 4 workload characteristics", writeTable4},
	sweepStep("fig2", "Figure 2 PRAC slowdown", "Figure 2 — PRAC slowdown (T_RH 4000/500/100)", fig2Cols),
	sweepStep("fig9", "Figure 9 PRAC vs MoPAC-C", "Figure 9 — PRAC vs MoPAC-C", fig9Cols),
	sweepStep("fig11", "Figure 11 PRAC vs MoPAC-D", "Figure 11 — PRAC vs MoPAC-D", fig11Cols),
	{"fig12", "Figure 12 drain-on-REF sweep", func(w io.Writer, f fetch) error {
		return writeSweeps(w, f, "Figure 12 — drain-on-REF sweep at T_RH=%d", fig12Cols)
	}},
	{"fig13", "Figure 13 SRQ size sweep", func(w io.Writer, f fetch) error {
		return writeSweeps(w, f, "Figure 13 — SRQ size sweep at T_RH=%d", fig13Cols)
	}},
	sweepStep("fig17", "Figure 17 NUP ablation", "Figure 17 — MoPAC-D with/without NUP", fig17Cols),
	{"tab12", "Table 12 SRQ insertion rates", writeTable12},
	sweepStep("fig18", "Appendix A RowPress protection", "Appendix A (Fig 18) — RowPress protection", fig18Cols),
	sweepStep("fig19", "Appendix B chip-count sweep",
		fmt.Sprintf("Appendix B (Fig 19) — chip-count sweep at T_RH=%d", fig19TRH), fig19Cols(fig19TRH)),
	sweepStep("tab15", "Appendix C row-closure policies", "Appendix C (Table 15) — row-closure policies", table15Cols),
	sweepStep("fig1d", "Figure 1(d) threshold summary", "Figure 1(d) — summary across thresholds", fig1dCols),
	attackStep("tab9", "Table 9 attacks on MoPAC-C",
		"Table 9 — performance attacks on MoPAC-C (simulated vs model)", table9),
	attackStep("tab10", "Table 10 attacks on MoPAC-D",
		"Table 10 — performance attacks on MoPAC-D (simulated vs model)", table10),
	{"sec", "security validation suite", writeSecurity},
	{"overheads", "counter-update economics", writeOverheads},
	{"psweep", "MoPAC-C p-selection sweep", writePSweep},
}

// Steps returns the report's steps in report order.
func Steps() []Step { return slices.Clone(steps) }

func stepByID(id string) (Step, bool) {
	for _, s := range steps {
		if s.ID == id {
			return s, true
		}
	}
	return Step{}, false
}

// PlanStep declares every run the named report step reads, without
// executing anything, and reports whether the step exists. Declaring
// every selected step before writing the first is what turns the
// report into one deduped, pool-saturating Flush.
func (r *Runner) PlanStep(id string) bool {
	s, ok := stepByID(id)
	if ok {
		_ = s.write(io.Discard, fetch{r: r})
	}
	return ok
}

// WriteStep writes the named step's section of the report to w. It
// declares and flushes the step's runs first, so a step that PlanStep
// declared and a Flush executed finds every run memoized.
func (r *Runner) WriteStep(id string, w io.Writer) error {
	s, ok := stepByID(id)
	if !ok {
		return fmt.Errorf("sim: unknown report step %q", id)
	}
	_ = s.write(io.Discard, fetch{r: r})
	_ = r.plan.Flush()
	return s.write(w, fetch{r: r, read: true})
}

// sweepStep is a step writing one sweep.
func sweepStep(id, brief, title string, cols []column) Step {
	return Step{id, brief, func(w io.Writer, f fetch) error { return writeSweep(w, f, title, cols) }}
}

// writeSweeps writes one sweep per threshold of sweepTRHs; title
// formats the threshold.
func writeSweeps(w io.Writer, f fetch, title string, cols func(trh int) []column) error {
	for _, trh := range sweepTRHs {
		if err := writeSweep(w, f, fmt.Sprintf(title, trh), cols(trh)); err != nil {
			return err
		}
	}
	return nil
}

// writeSweep writes a sweep's slowdown table, its averages row and a
// chart of the averages.
func writeSweep(w io.Writer, f fetch, title string, cols []column) error {
	tbl, err := f.sweep(cols)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## %s\n\n", title)
	fmt.Fprintf(w, "| workload | %s |\n", strings.Join(tbl.Labels, " | "))
	fmt.Fprintf(w, "|---|%s\n", strings.Repeat("---|", len(tbl.Labels)))
	for _, row := range tbl.Rows {
		cells := make([]string, len(row.Slowdowns))
		for i, s := range row.Slowdowns {
			cells[i] = fmt.Sprintf("%.2f%%", 100*s)
		}
		fmt.Fprintf(w, "| %s | %s |\n", row.Workload, strings.Join(cells, " | "))
	}
	avg := tbl.Averages()
	cells := make([]string, len(avg))
	for i, s := range avg {
		cells[i] = fmt.Sprintf("**%.2f%%**", 100*s)
	}
	fmt.Fprintf(w, "| **average** | %s |\n\n", strings.Join(cells, " | "))

	ch := plot.New("averages", "%")
	for i, l := range tbl.Labels {
		ch.Add(l, 100*avg[i])
	}
	if err := ch.Fenced(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func writeTable4(w io.Writer, f fetch) error {
	rows, err := f.table4()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Table 4 — workload characteristics (measured vs published)\n\n")
	fmt.Fprintln(w, "| workload | MPKI | pub | RBHR | pub | APRI | pub | ACT-64+ | pub | ACT-200+ | pub |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|")
	for _, row := range rows {
		m, p := row.Measured, row.Paper
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %.2f | %.2f | %.1f | %.1f | %.1f | %.1f | %.1f | %.1f |\n",
			row.Workload, m.MPKI, p.MPKI, m.RBHR, p.RBHR, m.APRI, p.APRI,
			m.ACT64, p.ACT64, m.ACT200, p.ACT200)
	}
	fmt.Fprintln(w)
	return nil
}

func writeTable12(w io.Writer, f fetch) error {
	rows, err := f.table12()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Table 12 — SRQ insertions per 100 ACTs\n\n")
	fmt.Fprintln(w, "| T_RH | uniform | paper | NUP | paper |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	paper := map[int][2]float64{1000: {6.2, 3.1}, 500: {12.5, 6.3}, 250: {25.0, 13.4}}
	for _, row := range rows {
		p := paper[row.TRH]
		fmt.Fprintf(w, "| %d | %.1f | %.1f | %.1f | %.1f |\n", row.TRH, row.Uniform, p[0], row.NUP, p[1])
	}
	fmt.Fprintln(w)
	return nil
}

// attackStep is a step writing one attack table at attackTRHs.
func attackStep(id, brief, title string, t attackTable) Step {
	return Step{id, brief, func(w io.Writer, f fetch) error {
		rows, err := f.attacks(t, attackTRHs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## %s\n\n", title)
		fmt.Fprintln(w, "| T_RH | attack | simulated | model | secure | max count |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
		for _, row := range rows {
			fmt.Fprintf(w, "| %d | %s | %.1f%% | %.1f%% | %v | %d |\n",
				row.TRH, row.Kind, 100*row.Slowdown, 100*row.Model, row.Secure, row.MaxCount)
		}
		fmt.Fprintln(w)
		return nil
	}}
}

func writeOverheads(w io.Writer, f fetch) error {
	fmt.Fprintf(w, "## Counter-update economics (the §4 insight, measured)\n\n")
	fmt.Fprintln(w, "| T_RH | design | counter updates /100 ACTs | ABO stall fraction | slowdown |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, trh := range sweepTRHs {
		rows, err := f.overheads(trh)
		if err != nil {
			return err
		}
		for _, row := range rows {
			fmt.Fprintf(w, "| %d | %s | %.1f | %.4f | %.2f%% |\n",
				trh, row.Design, row.CUPer100ACT, row.ABOStall, 100*row.Slowdown)
		}
	}
	fmt.Fprintln(w)
	return nil
}

func writePSweep(w io.Writer, f fetch) error {
	fmt.Fprintf(w, "## p-selection trade-off for MoPAC-C at T_RH=500 (§5.4)\n\n")
	fmt.Fprintln(w, "| p | ATH* | valid | avg slowdown | total ALERTs |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	rows, err := f.pSweep(500, nil)
	if err != nil {
		return err
	}
	for _, row := range rows {
		slow, athStar := "-", "-"
		if row.Valid {
			slow = fmt.Sprintf("%.2f%%", 100*row.Slowdown)
			athStar = fmt.Sprintf("%d", row.ATHStar)
		}
		fmt.Fprintf(w, "| 1/%d | %s | %v | %s | %d |\n", row.InvP, athStar, row.Valid, slow, row.Alerts)
	}
	fmt.Fprintln(w)
	return nil
}

func writeSecurity(w io.Writer, f fetch) error {
	fmt.Fprintf(w, "## Security validation — attack-success criterion (threat model §2.1)\n\n")
	fmt.Fprintln(w, "| design | pattern | secure | max unmitigated | T_RH |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	rows, err := f.securitySuite(securityTRH)
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "| %s | %s | %v | %d | %d |\n",
			row.Design, row.Pattern, row.Secure, row.MaxCount, row.TRH)
	}
	fmt.Fprintln(w)
	return nil
}
