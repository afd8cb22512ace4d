package mitigation

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"mopac/internal/dram"
	"mopac/internal/security"
)

// guardStats returns the statistics a guard reports.
func guardStats(g dram.BankGuard) any {
	switch g := g.(type) {
	case *MOAT:
		return g.Stats()
	case *MoPACD:
		return g.Stats()
	}
	panic(fmt.Sprintf("no stats for %T", g))
}

// TestQuietGuardsSkippable checks the Quiet contract the device's
// REF/RFM skip relies on. Every guard that can report Quiet is driven
// twice through one random ACT/PRE/REF/RFM stream: once with every
// Refresh and ABOAction delivered, once skipping them while the guard
// last reported Quiet and no ACT has arrived since, as dram.Device
// does. Stats, AlertRequested and the mitigations returned must agree
// after every command. Thresholds are scaled down so the streams reach
// alerts, drains and tracked-row mitigations.
func TestQuietGuardsSkippable(t *testing.T) {
	mopacd := func(mut func(*MoPACDConfig)) func(seed uint64) dram.BankGuard {
		return func(seed uint64) dram.BankGuard {
			cfg := MoPACDConfig{
				InvP: 4, SRQSize: 4, TTH: 6, DrainOnREF: 1,
				AlertAt: 24, ETH: 12, BlastRadius: 2, Rows: 64, Seed: seed,
			}
			if mut != nil {
				mut(&cfg)
			}
			return NewMoPACD(cfg)
		}
	}
	moat := func(cfg MOATConfig) func(uint64) dram.BankGuard {
		return func(uint64) dram.BankGuard { return NewMOAT(cfg) }
	}
	kinds := []struct {
		name  string
		build func(seed uint64) dram.BankGuard
		cuInv int // a PRE updates counters with probability 1/cuInv (0: never)
	}{
		{"moat", moat(MOATConfig{AlertAt: 12, ETH: 6, Increment: 1, Rows: 64}), 1},
		{"moat-mopacc", moat(MOATConfig{AlertAt: 24, ETH: 8, Increment: 4, Rows: 64}), 4},
		{"mopacd", mopacd(nil), 0},
		{"mopacd-eth-below-alert", mopacd(func(c *MoPACDConfig) { c.ETH = 4 }), 0},
		{"mopacd-nup", mopacd(func(c *MoPACDConfig) { c.NUP = true }), 0},
		{"mopacd-rowpress", mopacd(func(c *MoPACDConfig) { c.RowPress = true }), 0},
		{"mopacd-para", mopacd(func(c *MoPACDConfig) { c.Sampler = SamplerPARA }), 0},
		{"mopacd-no-drain-on-ref", mopacd(func(c *MoPACDConfig) { c.DrainOnREF = 0 }), 0},
		{"mopacd-derived", func(seed uint64) dram.BankGuard {
			return NewMoPACD(MoPACDFromParams(security.DeriveMoPACD(500), 64, false, seed))
		}, 0},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			skipped := 0
			for seed := uint64(1); seed <= 20; seed++ {
				skipped += compareQuietSkip(t, k.build, k.cuInv, seed)
			}
			if skipped == 0 {
				t.Fatal("no REF or RFM was ever skipped; the stream never reached a quiet guard")
			}
		})
	}
}

// compareQuietSkip runs one seeded stream through an always-called
// guard and a skipping one and fails on the first divergence. It
// returns how many REF/RFM deliveries the skipping guard missed.
func compareQuietSkip(t *testing.T, build func(uint64) dram.BankGuard, cuInv int, seed uint64) int {
	t.Helper()
	all, skip := build(seed), build(seed)
	quiet := false // skip's device-side mark
	rng := rand.New(rand.NewPCG(seed, 0x71))
	hot := rng.IntN(64)
	skipped := 0
	now := int64(0)
	for step := 0; step < 3000; step++ {
		now += 50
		var what string
		var got, want []dram.Mitigation
		k := rng.IntN(20)
		if step < 8 {
			k = 14 + rng.IntN(6) // an idle start: REF and RFM only
		}
		switch {
		case k < 14:
			row := hot
			if rng.IntN(3) == 0 {
				row = rng.IntN(64)
			}
			openNs := int64(rng.IntN(400))
			cu := cuInv > 0 && rng.IntN(cuInv) == 0
			what = fmt.Sprintf("ACT/PRE row %d open %d cu %v", row, openNs, cu)
			for _, g := range []dram.BankGuard{all, skip} {
				g.Activate(now, row)
				g.PrechargeClose(now+openNs, row, openNs, cu)
			}
			quiet = false
		case k < 17:
			what = "REF"
			want = all.Refresh(now)
			if quiet {
				skipped++
			} else {
				got = skip.Refresh(now)
				quiet = skip.Quiet()
			}
		default:
			what = "RFM"
			want = all.ABOAction(now)
			if quiet {
				skipped++
			} else {
				got = skip.ABOAction(now)
				quiet = skip.Quiet()
			}
		}
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("seed %d step %d %s: mitigations %v with skipping, %v delivered", seed, step, what, got, want)
		}
		if a, b := guardStats(all), guardStats(skip); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d step %d %s: stats %+v with skipping, %+v delivered", seed, step, what, b, a)
		}
		if a, b := all.AlertRequested(), skip.AlertRequested(); a != b {
			t.Fatalf("seed %d step %d %s: alert %v with skipping, %v delivered", seed, step, what, b, a)
		}
		if quiet && skip.AlertRequested() {
			t.Fatalf("seed %d step %d %s: a quiet guard requests an alert", seed, step, what)
		}
	}
	return skipped
}
