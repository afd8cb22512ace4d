package security

import (
	"fmt"
	"math"
)

// FailureBudget returns F, the acceptable probability that a victim row
// misses mitigation during one continuous attack of trh activations
// (Equation 3): F = (T · tRC) / MTTF.
func FailureBudget(trh int) float64 {
	return float64(trh) * TRCNanos / MTTFNanos
}

// Epsilon returns ε, the acceptable per-side escape probability for a
// double-sided pattern (Equation 6): both sides must escape mitigation
// simultaneously, so ε = √F.
func Epsilon(trh int) float64 {
	return math.Sqrt(FailureBudget(trh))
}

// BudgetRow is one row of Table 5: the failure budget and per-side
// escape probability at a given Rowhammer threshold.
type BudgetRow struct {
	TRH     int
	F       float64
	Epsilon float64
}

// Table5 reproduces Table 5 of the paper for the given thresholds
// (the paper lists 250, 500, 1000).
func Table5(thresholds ...int) []BudgetRow {
	if len(thresholds) == 0 {
		thresholds = []int{250, 500, 1000}
	}
	rows := make([]BudgetRow, 0, len(thresholds))
	for _, t := range thresholds {
		rows = append(rows, BudgetRow{TRH: t, F: FailureBudget(t), Epsilon: Epsilon(t)})
	}
	return rows
}

// String formats the row in the paper's style.
func (r BudgetRow) String() string {
	return fmt.Sprintf("T=%d  F=%.2e  eps=%.2e", r.TRH, r.F, r.Epsilon)
}
