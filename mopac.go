// Package mopac is the public API of the MoPAC reproduction: a
// cycle-level DDR5 memory-system simulator and security-analysis library
// for "MoPAC: Efficiently Mitigating Rowhammer with Probabilistic
// Activation Counting" (ISCA 2025).
//
// The package exposes three layers:
//
//   - Closed-form security analysis (DeriveParams, NUPParams,
//     RowPressParams, Epsilon, …): the p / C / ATH* derivations of
//     Tables 5-11 and 13-14.
//   - Single simulations (Simulate, CompareToBaseline, Hammer): run a
//     Table 4 workload or a Rowhammer attack against the baseline, PRAC,
//     MoPAC-C or MoPAC-D memory system, the §9 alternatives (Chronos,
//     QPRAC, MINT, PrIDE) or TRR.
//   - Experiment sweeps (NewExperiments): regenerate every figure and
//     table of the paper's evaluation at a configurable scale.
//
// All randomness is seeded; identical configurations produce identical
// results.
package mopac

import (
	"context"

	"mopac/internal/security"
	"mopac/internal/sim"
	"mopac/internal/workload"
)

// Design selects a memory-system protection configuration.
type Design = sim.Design

// The designs: the baseline, the paper's three (PRAC, MoPAC-C,
// MoPAC-D), TRR and the §9 alternatives.
const (
	// Baseline is unprotected DDR5.
	Baseline = sim.DesignBaseline
	// PRAC is the JEDEC per-row activation counting baseline with MOAT
	// and inflated timings.
	PRAC = sim.DesignPRAC
	// MoPACC is the memory-controller-side MoPAC (probabilistic PREcu).
	MoPACC = sim.DesignMoPACC
	// MoPACD is the in-DRAM MoPAC (SRQ + ABO/REF draining).
	MoPACD = sim.DesignMoPACD
	// TRR is the broken DDR4-era tracker (for attack demonstrations).
	TRR = sim.DesignTRR
	// MINT is the low-cost in-DRAM tracker of §9.2.
	MINT = sim.DesignMINT
	// PrIDE is the low-cost in-DRAM tracker of §9.2.
	PrIDE = sim.DesignPrIDE
	// Chronos is the §9.1 concurrent-counter-subarray alternative
	// (baseline row timings, doubled tFAW).
	Chronos = sim.DesignChronos
	// QPRAC is the PRAC design with the queue-based QPRAC backend in
	// place of MOAT.
	QPRAC = sim.DesignQPRAC
)

// Config describes one simulation run; see sim.Config for field
// documentation.
type Config = sim.Config

// Result is a finished run's measurements.
type Result = sim.Result

// Params is a derived secure MoPAC configuration (p, C, ATH*, …).
type Params = security.Params

// Variant selects a MoPAC implementation in the analysis layer.
type Variant = security.Variant

// The analysis-layer variants.
const (
	// VariantPRAC is deterministic counting (p = 1).
	VariantPRAC = security.VariantPRAC
	// VariantMoPACC is the memory-controller-side design.
	VariantMoPACC = security.VariantMoPACC
	// VariantMoPACD is the in-DRAM design.
	VariantMoPACD = security.VariantMoPACD
)

// Simulate builds the configured system and runs it to completion.
func Simulate(cfg Config) (Result, error) {
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	defer sys.Release()
	return sys.Run(0)
}

// CompareToBaseline runs cfg and its unprotected baseline twin and
// returns the throughput slowdown (the paper's headline metric) along
// with both results.
func CompareToBaseline(cfg Config) (slowdown float64, base, res Result, err error) {
	bcfg := cfg
	bcfg.Design = Baseline
	base, err = Simulate(bcfg)
	if err != nil {
		return 0, Result{}, Result{}, err
	}
	res, err = Simulate(cfg)
	if err != nil {
		return 0, Result{}, Result{}, err
	}
	return sim.Slowdown(base, res), base, res, nil
}

// DeriveParams derives the secure configuration for a variant at a
// Rowhammer threshold with the paper's default update probability
// (Tables 7 and 8).
func DeriveParams(v Variant, trh int) Params {
	if v == VariantPRAC {
		return security.DeriveWithP(v, trh, 1)
	}
	return security.DeriveWithP(v, trh, security.DefaultP(trh))
}

// DeriveParamsWithP derives the secure configuration for an arbitrary
// update probability.
func DeriveParamsWithP(v Variant, trh int, p float64) Params {
	return security.DeriveWithP(v, trh, p)
}

// NUPParams derives the MoPAC-D configuration with Non-Uniform
// Probability sampling (Table 11).
func NUPParams(trh int) Params { return security.DeriveNUP(trh) }

// RowPressParams derives the RowPress-aware configuration (Table 14).
func RowPressParams(v Variant, trh int) Params { return security.DeriveRowPress(v, trh) }

// Epsilon returns the per-side escape budget ε at a threshold (Table 5).
func Epsilon(trh int) float64 { return security.Epsilon(trh) }

// FailureBudget returns the MTTF-derived failure budget F (Equation 3).
func FailureBudget(trh int) float64 { return security.FailureBudget(trh) }

// Workloads returns every Table 4 workload name.
func Workloads() []string { return workload.All() }

// AttackKind names the §7 performance-attack vectors.
type AttackKind = security.AttackKind

// The attack vectors.
const (
	// AttackMitigation drives rows to ATH* across many banks.
	AttackMitigation = security.AttackMitigation
	// AttackSRQFull floods one bank's Selected Row Queue.
	AttackSRQFull = security.AttackSRQFull
	// AttackTardiness parks rows in the SRQ and hammers them to TTH.
	AttackTardiness = security.AttackTardiness
)

// AttackResult summarises a Hammer run.
type AttackResult = sim.AttackResult

// HammerPattern names the built-in attack patterns; each value is an
// attack-spec kind (workload.Kinds) anchored at bank 0, row 4096.
type HammerPattern string

// The built-in patterns.
const (
	// PatternDoubleSided hammers both neighbours of one victim row.
	PatternDoubleSided HammerPattern = workload.KindDoubleSided
	// PatternSingleSided hammers one aggressor row.
	PatternSingleSided HammerPattern = workload.KindSingleSided
	// PatternMultiBank round-robins one row in each of 64 banks (Fig 14).
	PatternMultiBank HammerPattern = workload.KindMultiBank
	// PatternSRQFill floods one bank with 256 unique rows.
	PatternSRQFill HammerPattern = workload.KindSRQFill
	// PatternManySided interleaves 12 aggressor pairs (TRRespass-style).
	PatternManySided HammerPattern = workload.KindTRRespass
)

// Hammer mounts a built-in Rowhammer pattern against the configured
// design until the attacker lands activations ACTs, and reports the
// oracle's security verdict plus the attacker's throughput. The config
// must not name a workload; zero activations selects the attack default
// (30,000).
func Hammer(cfg Config, pattern HammerPattern, activations int64) (AttackResult, error) {
	return sim.RunAttack(context.Background(), sim.AttackConfig{
		Base:       cfg,
		Spec:       workload.AttackSpec{Pattern: string(pattern), Victim: workload.DefaultVictim},
		TargetActs: activations,
	})
}

// AttackThroughputLoss compares a protected attack run against the
// unprotected baseline running the same pattern (the §7 metric).
func AttackThroughputLoss(baseline, protected AttackResult) float64 {
	return sim.AttackSlowdown(baseline, protected)
}

// ModelAttackSlowdown returns the closed-form §7 slowdown for an attack
// against the derived parameters (Tables 9 and 10).
func ModelAttackSlowdown(p Params, kind AttackKind) float64 {
	return security.AttackSlowdown(p, kind, security.DefaultAlpha)
}

// Experiments runs the paper's evaluation sweeps; see sim.Runner.
type Experiments = sim.Runner

// Scale sizes an experiment sweep.
type Scale = sim.Scale

// NewExperiments returns an experiment runner at the given scale. A
// zero-value scale uses the defaults that generated EXPERIMENTS.md.
func NewExperiments(sc Scale) *Experiments { return sim.NewRunner(sc) }
