package sim

import (
	"errors"
	"fmt"
)

// ErrInvalidConfig is wrapped by every Config.Validate failure so
// callers (e.g. the HTTP service) can map bad input to a client error
// with errors.Is.
var ErrInvalidConfig = errors.New("sim: invalid config")

// Validate rejects configurations that setDefaults would otherwise let
// flow through unchecked. Zero values are legal (they select defaults);
// negative sizes, thresholds, and probabilities are not, and an unknown
// design is caught here rather than deep inside wiring.
func (c Config) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
	}
	if !c.Design.valid() {
		return bad("unknown design %d", int(c.Design))
	}
	if c.TRH < 0 {
		return bad("TRH must be >= 0, got %d", c.TRH)
	}
	if c.Cores < 0 {
		return bad("Cores must be >= 0, got %d", c.Cores)
	}
	if c.InstrPerCore < 0 {
		return bad("InstrPerCore must be >= 0, got %d", c.InstrPerCore)
	}
	if c.Chips < 0 {
		return bad("Chips must be >= 0, got %d", c.Chips)
	}
	if c.PInvOverride < 0 {
		return bad("PInvOverride must be >= 0, got %d", c.PInvOverride)
	}
	if c.RFMLevel < 0 {
		return bad("RFMLevel must be >= 0, got %d", c.RFMLevel)
	}
	if c.MaxPostponedREFs < 0 {
		return bad("MaxPostponedREFs must be >= 0, got %d", c.MaxPostponedREFs)
	}
	if c.SRQSize < 0 {
		return bad("SRQSize must be >= 0, got %d", c.SRQSize)
	}
	if c.DrainOnREF != nil && *c.DrainOnREF < 0 {
		return bad("DrainOnREF must be >= 0, got %d", *c.DrainOnREF)
	}
	if c.TimeoutNs < 0 {
		return bad("TimeoutNs must be >= 0, got %d", c.TimeoutNs)
	}
	if c.CommandLogDepth < 0 {
		return bad("CommandLogDepth must be >= 0, got %d", c.CommandLogDepth)
	}
	return nil
}
