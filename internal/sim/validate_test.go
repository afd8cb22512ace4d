package sim

import (
	"errors"
	"testing"
)

func TestValidateRejectsNegatives(t *testing.T) {
	drain := -1
	cases := []struct {
		name string
		cfg  Config
	}{
		{"cores", Config{Cores: -1}},
		{"trh", Config{TRH: -5}},
		{"instr", Config{InstrPerCore: -1}},
		{"chips", Config{Chips: -2}},
		{"pinv", Config{PInvOverride: -3}},
		{"rfmlevel", Config{RFMLevel: -1}},
		{"postponed", Config{MaxPostponedREFs: -1}},
		{"srqsize", Config{SRQSize: -4}},
		{"drainonref", Config{DrainOnREF: &drain}},
		{"timeoutns", Config{TimeoutNs: -7}},
		{"logdepth", Config{CommandLogDepth: -1}},
		{"design", Config{Design: Design(99)}},
		{"design-negative", Config{Design: Design(-1)}},
		{"design-past-last", Config{Design: DesignQPRAC + 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate() = %v, want ErrInvalidConfig", err)
			}
			if _, err := NewSystem(tc.cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("NewSystem() = %v, want ErrInvalidConfig", err)
			}
		})
	}
}

func TestValidateAcceptsZeroAndDefaults(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config should validate (defaults apply later): %v", err)
	}
	if err := quickCfg(DesignMoPACD, "lbm").Validate(); err != nil {
		t.Fatalf("known-good config rejected: %v", err)
	}
}
