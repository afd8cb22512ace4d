package mitigation

import (
	"fmt"

	"mopac/internal/dram"
	"mopac/internal/security"
	"mopac/internal/telemetry"
)

// Options selects and tunes a guard family for a whole device.
type Options struct {
	// Params is the derived security configuration (variant, p, ATH*…).
	Params security.Params
	// Rows is the number of rows per bank.
	Rows int
	// NUP enables §8 non-uniform sampling (MoPAC-D only).
	NUP bool
	// RowPress enables Appendix A accounting (MoPAC-D only; the
	// MoPAC-C side of RowPress lives in the memory controller's
	// row-open cap).
	RowPress bool
	// Seed is the base RNG seed; each (chip, bank) derives its own
	// stream.
	Seed uint64
	// SRQSize overrides Params.SRQSize when positive (Fig 13 sweeps).
	SRQSize int
	// DrainOnREF overrides Params.DrainOnREF when non-nil (Fig 12
	// sweeps; zero is a meaningful override).
	DrainOnREF *int
	// Sampler selects the MoPAC-D selection mechanism (default MINT;
	// PARA is the footnote-6 ablation and is not secure).
	Sampler Sampler
	// Trace receives guard telemetry. Only chip 0's guards emit
	// (mirroring the device's mitigation-observer convention), so
	// replicated chips do not multiply events.
	Trace *telemetry.GuardTracks
}

// NewFactory returns a dram.Config NewGuard function building the guard
// family implied by the options' security variant.
func NewFactory(o Options) (func(chip, bank int) dram.BankGuard, error) {
	if err := o.Params.Validate(); err != nil {
		return nil, err
	}
	switch o.Params.Variant {
	case security.VariantPRAC, security.VariantMoPACC:
		cfg := MOATFromParams(o.Params, o.Rows)
		return func(chip, bank int) dram.BankGuard {
			c := cfg
			if chip == 0 {
				c.Trace, c.TraceBank = o.Trace, bank
			}
			return NewMOAT(c)
		}, nil
	case security.VariantMoPACD:
		base := MoPACDFromParams(o.Params, o.Rows, o.NUP, 0)
		base.RowPress = o.RowPress
		base.Sampler = o.Sampler
		if o.SRQSize > 0 {
			base.SRQSize = o.SRQSize
		}
		if o.DrainOnREF != nil {
			base.DrainOnREF = *o.DrainOnREF
		}
		return func(chip, bank int) dram.BankGuard {
			cfg := base
			cfg.Seed = o.Seed ^ uint64(chip)<<32 ^ uint64(bank)<<8 ^ 0x9e3779b97f4a7c15
			if chip == 0 {
				cfg.Trace, cfg.TraceBank = o.Trace, bank
			}
			return NewMoPACD(cfg)
		}, nil
	default:
		return nil, fmt.Errorf("mitigation: no guard for variant %v", o.Params.Variant)
	}
}
