package sim

import (
	"fmt"

	"mopac/internal/dram"
	"mopac/internal/mc"
	"mopac/internal/mitigation"
	"mopac/internal/security"
	"mopac/internal/telemetry"
	"mopac/internal/timing"
)

// Design selects the memory-system protection configuration.
type Design int

// The designs, one designs entry each.
const (
	// DesignBaseline is unprotected DDR5 with baseline timings.
	DesignBaseline Design = iota
	// DesignPRAC is PRAC+ABO with MOAT and inflated timings.
	DesignPRAC
	// DesignMoPACC is memory-controller-side MoPAC.
	DesignMoPACC
	// DesignMoPACD is in-DRAM MoPAC.
	DesignMoPACD
	// DesignTRR is the broken DDR4-era tracker (baseline timings).
	DesignTRR
	// DesignMINT is the low-cost MINT tracker of §9.2 (baseline
	// timings, one mitigation per REF, no ABO).
	DesignMINT
	// DesignPrIDE is the low-cost PrIDE tracker of §9.2.
	DesignPrIDE
	// DesignChronos is the §9.1 Chronos alternative: counter updates in
	// a dedicated subarray (baseline row timings, doubled tFAW).
	DesignChronos
	// DesignQPRAC is the §9.1 QPRAC alternative as a first-class design:
	// PRAC timings with the priority-queue mitigation service instead of
	// MOAT.
	DesignQPRAC
)

// guardFactory builds one subchannel's dram.Config.NewGuard function.
// trc is that subchannel's mitigation probe view (nil when tracing is
// off). Guard seeds derive only from (chip, bank), so building the
// factory per subchannel leaves every RNG stream exactly as a shared
// factory would.
type guardFactory func(c Config, p security.Params, rows int, trc *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error)

// designSpec is everything that makes a design what it is.
type designSpec struct {
	// name is the String() value; lower-cased, it is the CLI/JSON name.
	name string
	// timing returns the design's DDR5 timing set.
	timing func() timing.Params
	// derive returns the security parameters and sets the controller's
	// counter-update policy (CUAlways, CUProbInv) and RowPress cap. Nil
	// for designs without derived parameters.
	derive func(c Config, m *mc.Config) security.Params
	// guard is the per-bank mitigation engine; nil for the baseline.
	guard guardFactory
	// perChip replicates guard state per chip (Config.Chips), and counter
	// updates are counted from the guards' SRQ drains.
	perChip bool
}

// designs is the design registry, indexed by Design. Config.Hash encodes
// the index, so entries are append-only: never reorder or remove one.
var designs = [...]designSpec{
	DesignBaseline: {name: "Baseline", timing: timing.DDR5},
	DesignPRAC:     {name: "PRAC", timing: timing.PRAC, derive: deriveCounting, guard: factoryGuard},
	DesignMoPACC:   {name: "MoPAC-C", timing: timing.MoPACC, derive: deriveMoPACC, guard: factoryGuard},
	DesignMoPACD:   {name: "MoPAC-D", timing: timing.MoPACD, derive: deriveMoPACD, guard: factoryGuard, perChip: true},
	// TRR, MINT and PrIDE run on baseline timings and mitigate in the
	// REF shadow only.
	DesignTRR:   {name: "TRR", timing: timing.DDR5, guard: trrGuard},
	DesignMINT:  {name: "MINT", timing: timing.DDR5, guard: mintGuard},
	DesignPrIDE: {name: "PrIDE", timing: timing.DDR5, guard: prideGuard},
	// Chronos keeps deterministic counting (MOAT semantics) with baseline
	// row timings; the doubled tFAW carries the cost.
	DesignChronos: {name: "Chronos", timing: timing.Chronos, derive: deriveCounting, guard: factoryGuard},
	// QPRAC shares PRAC's timings and derived parameters; only the
	// in-DRAM mitigation engine differs.
	DesignQPRAC: {name: "QPRAC", timing: timing.PRAC, derive: deriveCounting, guard: qpracGuard},
}

// Designs returns every design in index order.
func Designs() []Design {
	out := make([]Design, len(designs))
	for i := range out {
		out[i] = Design(i)
	}
	return out
}

func (d Design) valid() bool { return d >= 0 && int(d) < len(designs) }

// String implements fmt.Stringer.
func (d Design) String() string {
	if !d.valid() {
		return fmt.Sprintf("Design(%d)", int(d))
	}
	return designs[d].name
}

// deriveCounting is deterministic per-row counting (p = 1): every
// precharge updates the counter.
func deriveCounting(c Config, m *mc.Config) security.Params {
	m.CUAlways = true
	return security.DeriveWithP(security.VariantPRAC, c.TRH, 1)
}

func deriveMoPACC(c Config, m *mc.Config) security.Params {
	params := security.DeriveMoPACC(c.TRH)
	if c.PInvOverride > 0 {
		params = security.DeriveWithP(security.VariantMoPACC, c.TRH, 1/float64(c.PInvOverride))
	}
	if c.RowPress {
		params = security.DeriveRowPress(security.VariantMoPACC, c.TRH)
		m.RowPressCapNs = security.RowPressMaxOpenNs
	}
	m.CUProbInv = params.UpdateWeight()
	return params
}

func deriveMoPACD(c Config, _ *mc.Config) security.Params {
	params := security.DeriveMoPACD(c.TRH)
	if c.PInvOverride > 0 {
		params = security.DeriveWithP(security.VariantMoPACD, c.TRH, 1/float64(c.PInvOverride))
	}
	switch {
	case c.RowPress:
		params = security.DeriveRowPress(security.VariantMoPACD, c.TRH)
	case c.NUP:
		params = security.DeriveNUP(c.TRH)
	}
	return params
}

// factoryGuard builds the guard family the parameters' variant implies:
// MOAT for counting and MoPAC-C, the SRQ engine for MoPAC-D (the only
// variant that reads the MoPAC-D knobs).
func factoryGuard(c Config, p security.Params, rows int, trc *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	return mitigation.NewFactory(mitigation.Options{
		Params:     p,
		Rows:       rows,
		NUP:        c.NUP,
		RowPress:   c.RowPress,
		Seed:       c.Seed,
		SRQSize:    c.SRQSize,
		DrainOnREF: c.DrainOnREF,
		Trace:      trc,
	})
}

func qpracGuard(_ Config, p security.Params, rows int, _ *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	qcfg := mitigation.QPRACFromParams(p, rows)
	return func(chip, bank int) dram.BankGuard {
		return mitigation.NewQPRAC(qcfg)
	}, nil
}

func trrGuard(_ Config, _ security.Params, rows int, _ *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	return func(chip, bank int) dram.BankGuard {
		return mitigation.NewTRR(mitigation.TRRConfig{Entries: 16, MitigatePerREFs: 4, Rows: rows})
	}, nil
}

func mintGuard(c Config, _ security.Params, rows int, _ *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	return func(chip, bank int) dram.BankGuard {
		return mitigation.NewMINT(mitigation.MINTConfig{
			Window: 84, Rows: rows,
			Seed: c.Seed ^ uint64(bank)<<8 ^ uint64(chip)<<32 ^ 0x6d1,
		})
	}, nil
}

func prideGuard(c Config, _ security.Params, rows int, _ *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
	return func(chip, bank int) dram.BankGuard {
		return mitigation.NewPrIDE(mitigation.PrIDEConfig{
			InvP: 84, QueueSize: 2, Rows: rows,
			Seed: c.Seed ^ uint64(bank)<<8 ^ uint64(chip)<<32 ^ 0x9d1,
		})
	}, nil
}
