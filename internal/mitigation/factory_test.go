package mitigation

import (
	"testing"

	"mopac/internal/security"
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
