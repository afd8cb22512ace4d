package security

import (
	"fmt"
	"math"
)

// Variant selects which MoPAC implementation a parameter derivation
// targets.
type Variant int

// The two MoPAC implementations plus the always-update PRAC baseline.
const (
	// VariantPRAC is the deterministic PRAC+MOAT baseline (p = 1).
	VariantPRAC Variant = iota
	// VariantMoPACC is the memory-controller-side design (§5).
	VariantMoPACC
	// VariantMoPACD is the in-DRAM design with SRQ buffering (§6).
	VariantMoPACD
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantPRAC:
		return "PRAC"
	case VariantMoPACC:
		return "MoPAC-C"
	case VariantMoPACD:
		return "MoPAC-D"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// DefaultP returns the paper's update probability for a given Rowhammer
// threshold: p = 1/64, 1/32, 1/16, 1/8, 1/4 at T = 4000, 2000, 1000,
// 500, 250 (§1). The rule keeps the expected number of counter updates
// per T activations constant (T·p ≈ 62.5) and restricts p to powers of
// two for a simple hardware implementation (§5.4).
func DefaultP(trh int) float64 {
	if trh <= 0 {
		return 1
	}
	denom := 1
	for float64(denom*2)*62.5 <= float64(trh) {
		denom *= 2
	}
	if denom < 2 {
		denom = 2
	}
	return 1 / float64(denom)
}

// defaultDrainOnREF returns the number of SRQ entries MoPAC-D drains
// during each REF at a given update probability (§6.2, Table 8: 1/2/4
// entries at p = 1/16, 1/8, 1/4; zero above 1/16 where ABO pressure is
// negligible).
func defaultDrainOnREF(p float64) int {
	switch {
	case p >= 1.0/4:
		return 4
	case p >= 1.0/8:
		return 2
	case p >= 1.0/16:
		return 1
	default:
		return 0
	}
}

// Params is a complete secure MoPAC configuration for one Rowhammer
// threshold: the rows of Tables 7 (MoPAC-C) and 8 (MoPAC-D).
type Params struct {
	Variant Variant
	// TRH is the double-sided Rowhammer threshold being tolerated.
	TRH int
	// ATH is the underlying MOAT ALERT threshold (Table 2).
	ATH int
	// A is the activation budget used in the binomial tail: ATH for
	// MoPAC-C, ATH − TTH for MoPAC-D (tardiness, §6.3/6.4).
	A int
	// P is the per-activation counter-update probability.
	P float64
	// C is the critical number of counter updates (the largest C whose
	// undercount probability stays below ε).
	C int
	// ATHStar is the revised ALERT threshold C·(1/p) (Equation 7).
	ATHStar int
	// UndercountP is P(N < C) at the chosen C, for reporting (Table 6).
	UndercountP float64
	// Epsilon is the per-side escape budget the derivation used.
	Epsilon float64
	// TTH is the tardiness threshold (MoPAC-D only, zero otherwise).
	TTH int
	// DrainOnREF is the number of SRQ entries drained per REF
	// (MoPAC-D only).
	DrainOnREF int
	// SRQSize is the Selected Row Queue depth (MoPAC-D only).
	SRQSize int
}

// UpdateWeight returns the amount a single counter update adds to the
// PRAC counter (1/p, §5.3).
func (p Params) UpdateWeight() int { return int(math.Round(1 / p.P)) }

// AttackATHStar returns the threshold used by the §7 performance-attack
// model: the ABO fires when the counter exceeds ATH*, i.e. on the
// (C+1)-th update, so the attack sustains (C+1)/p activations per ABO
// (Tables 9 and 10 use 84/184/384 and 64/160/352, which are exactly
// (C+1)/p for the Table 7/8 parameters).
func (p Params) AttackATHStar() int { return (p.C + 1) * p.UpdateWeight() }

// Validate reports an error for configurations that cannot be secure or
// that the paper explicitly rules out (ATH* < 10 causes pathological ABO
// rates, §5.4).
func (p Params) Validate() error {
	if p.TRH <= 0 || p.ATH <= 0 || p.A <= 0 {
		return fmt.Errorf("security: non-positive thresholds in %+v", p)
	}
	if p.P <= 0 || p.P > 1 {
		return fmt.Errorf("security: p = %v out of (0,1]", p.P)
	}
	if p.C <= 0 && p.Variant != VariantPRAC {
		return fmt.Errorf("security: no critical update count satisfies eps at T=%d p=%v", p.TRH, p.P)
	}
	if p.ATHStar < 10 {
		return fmt.Errorf("security: ATH* = %d below the paper's minimum of 10", p.ATHStar)
	}
	if p.ATHStar > p.ATH {
		return fmt.Errorf("security: ATH* = %d exceeds ATH = %d", p.ATHStar, p.ATH)
	}
	return nil
}

// DeriveMoPACC derives the secure MoPAC-C parameters (Table 7) for a
// Rowhammer threshold using the paper's default p. Use DeriveWithP to
// explore other probabilities.
func DeriveMoPACC(trh int) Params {
	return DeriveWithP(VariantMoPACC, trh, DefaultP(trh))
}

// DeriveMoPACD derives the secure MoPAC-D parameters (Table 8) for a
// Rowhammer threshold using the paper's default p, TTH = 32, a 16-entry
// SRQ, and the default drain-on-REF rate.
func DeriveMoPACD(trh int) Params {
	return DeriveWithP(VariantMoPACD, trh, DefaultP(trh))
}

// DeriveWithP derives secure parameters for an arbitrary update
// probability. For VariantPRAC it returns the deterministic MOAT
// configuration (p = 1, ATH* = ATH).
func DeriveWithP(v Variant, trh int, p float64) Params {
	ath := MOATAlertThreshold(trh)
	eps := Epsilon(trh)
	switch v {
	case VariantPRAC:
		return Params{
			Variant: v, TRH: trh, ATH: ath, A: ath, P: 1,
			C: ath, ATHStar: ath, Epsilon: eps,
		}
	case VariantMoPACC:
		c, prob := CriticalUpdates(ath, p, eps)
		return Params{
			Variant: v, TRH: trh, ATH: ath, A: ath, P: p,
			C: c, ATHStar: c * int(math.Round(1/p)),
			UndercountP: prob, Epsilon: eps,
		}
	case VariantMoPACD:
		a := ath - TardinessThreshold
		c, prob := CriticalUpdates(a, p, eps)
		return Params{
			Variant: v, TRH: trh, ATH: ath, A: a, P: p,
			C: c, ATHStar: c * int(math.Round(1/p)),
			UndercountP: prob, Epsilon: eps,
			TTH:        TardinessThreshold,
			DrainOnREF: defaultDrainOnREF(p),
			SRQSize:    SRQEntries,
		}
	default:
		panic(fmt.Sprintf("security: unknown variant %d", int(v)))
	}
}

// Table6Row is one cell row of Table 6: the row failure probability at a
// candidate critical-update count for several thresholds.
type Table6Row struct {
	C     int
	Probs map[int]float64 // TRH -> P(N < C)
}

// Table6 reproduces Table 6: P(N < C) for C in [cMin, cMax] at each
// threshold, using the MoPAC-C activation budget (A = ATH) and the
// paper's default p for each threshold.
func Table6(cMin, cMax int, thresholds ...int) []Table6Row {
	if len(thresholds) == 0 {
		thresholds = []int{250, 500, 1000}
	}
	rows := make([]Table6Row, 0, cMax-cMin+1)
	for c := cMin; c <= cMax; c++ {
		r := Table6Row{C: c, Probs: make(map[int]float64, len(thresholds))}
		for _, t := range thresholds {
			r.Probs[t] = FailureProb(MOATAlertThreshold(t), DefaultP(t), c)
		}
		rows = append(rows, r)
	}
	return rows
}
