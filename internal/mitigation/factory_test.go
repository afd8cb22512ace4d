package mitigation

import (
	"testing"

	"mopac/internal/dram"
	"mopac/internal/security"
	"mopac/internal/timing"
)

// BenchmarkGuardActivate measures one bank guard's per-ACT work for
// each design NewFactory builds: Activate, the closing precharge (a
// counter update on every PRE for PRAC, one in UpdateWeight for
// MoPAC-C, none for MoPAC-D, whose guard samples in DRAM), the ABO
// action when the guard raises an alert, and a REF every 64 ACTs.
// Rows cycle over 256 of them, so alerts and mitigations do occur.
func BenchmarkGuardActivate(b *testing.B) {
	const trh, rows = 500, 1 << 16
	for _, tc := range []struct {
		params security.Params
		cuInv  int
	}{
		{security.DeriveWithP(security.VariantPRAC, trh, 1), 1},
		{security.DeriveMoPACC(trh), security.DeriveMoPACC(trh).UpdateWeight()},
		{security.DeriveMoPACD(trh), 0},
	} {
		b.Run(tc.params.Variant.String(), func(b *testing.B) {
			newGuard, err := NewFactory(Options{Params: tc.params, Rows: rows, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			g := newGuard(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := int64(i) * 50
				row := (i * 97) & 255
				g.Activate(now, row)
				g.PrechargeClose(now+32, row, 32, tc.cuInv > 0 && i%tc.cuInv == 0)
				if g.AlertRequested() {
					g.ABOAction(now + 40)
				}
				if i%64 == 63 {
					g.Refresh(now + 45)
				}
			}
		})
	}
}

// BenchmarkDeviceActivate measures the device's whole ACT+PRE path with
// the four-chip MoPAC-D guards NewFactory builds, as a MoPAC-D run
// wires them: legality checks, one guard call per chip, alert latching,
// and an RFM whenever the device raises ALERT plus a REF every 64 ACTs,
// as a controller would serve them. One op is one ACT and its closing
// PRE; banks rotate over 32 and rows cycle over 256 per bank, so alerts
// and mitigations do occur. It lives here because dram cannot import
// mitigation.
func BenchmarkDeviceActivate(b *testing.B) {
	const trh, rows, banks = 500, 1 << 16, 32
	newGuard, err := NewFactory(Options{Params: security.DeriveMoPACD(trh), Rows: rows, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	d, err := dram.NewDevice(dram.Config{
		Banks: banks, Rows: rows, Chips: 4, Timing: timing.MoPACD(), NewGuard: newGuard,
	})
	if err != nil {
		b.Fatal(err)
	}
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := i % banks
		now = max(now, d.EarliestActivate(bank))
		d.Activate(now, bank, (i/banks*97)&255)
		now = max(now, d.EarliestPrecharge(bank, false))
		d.Precharge(now, bank, false)
		if d.AlertRequested() || i%64 == 63 {
			now = max(now, d.EarliestRefresh())
			if d.AlertRequested() {
				d.ServeABO(now)
			} else {
				d.Refresh(now)
			}
		}
	}
}
