package sim

import (
	"context"
	"errors"
	"testing"

	"mopac/internal/workload"
)

// hammer runs a fixed-pattern attack anchored at the default victim
// row, failing the test on error.
func hammer(t *testing.T, base Config, pattern string, acts int64) AttackResult {
	t.Helper()
	res, err := RunAttack(context.Background(), AttackConfig{
		Base:       base,
		Spec:       workload.AttackSpec{Pattern: pattern, Victim: workload.DefaultVictim},
		TargetActs: acts,
	})
	if err != nil {
		t.Fatalf("%v/%s: %v", base.Design, pattern, err)
	}
	return res
}

func TestAttackBaselineBreaks(t *testing.T) {
	res := hammer(t, Config{Design: DesignBaseline, TRH: 500, Seed: 1}, workload.KindDoubleSided, 30_000)
	if res.Secure {
		t.Fatal("unprotected baseline must fail a double-sided attack")
	}
	if res.MaxUnmitigated < 500 {
		t.Fatalf("max unmitigated = %d, want >= threshold", res.MaxUnmitigated)
	}
	if res.ACTsPerNs <= 0 {
		t.Fatal("no attack throughput measured")
	}
}

func TestAttackProtectedDesignsHold(t *testing.T) {
	for _, d := range []Design{DesignPRAC, DesignMoPACC, DesignMoPACD} {
		res := hammer(t, Config{Design: d, TRH: 500, Seed: 1}, workload.KindDoubleSided, 30_000)
		if !res.Secure {
			t.Fatalf("%v: attack succeeded (max %d)", d, res.MaxUnmitigated)
		}
		if res.MaxUnmitigated >= 500 {
			t.Fatalf("%v: max unmitigated %d reached the threshold", d, res.MaxUnmitigated)
		}
		if res.Mitigations == 0 {
			t.Fatalf("%v: no mitigations under attack", d)
		}
	}
}

func TestAttackSlowdownMeasurable(t *testing.T) {
	base := hammer(t, Config{Design: DesignBaseline, TRH: 500, Seed: 1}, workload.KindSRQFill, 30_000)
	prot := hammer(t, Config{Design: DesignMoPACD, TRH: 500, Chips: 1, Seed: 1}, workload.KindSRQFill, 30_000)
	s := AttackSlowdown(base, prot)
	// The SRQ-fill attack forces ABOs: slowdown clearly positive but
	// bounded (the paper's model says 14.9%).
	if s < 0.02 || s > 0.30 {
		t.Fatalf("SRQ-fill attack slowdown = %.3f, want within [0.02, 0.30]", s)
	}
	if prot.Alerts == 0 {
		t.Fatal("SRQ-fill attack must trigger ABOs")
	}
}

func TestAttackValidation(t *testing.T) {
	spec := workload.AttackSpec{Victim: workload.DefaultVictim}
	if _, err := RunAttack(context.Background(), AttackConfig{Base: Config{Design: DesignPRAC, Workload: "mcf"}, Spec: spec, TargetActs: 100}); err == nil {
		t.Fatal("attack with a workload accepted")
	}
	if _, err := RunAttack(context.Background(), AttackConfig{Base: Config{Design: DesignPRAC}, Spec: spec, TargetActs: -1}); err == nil {
		t.Fatal("negative activation target accepted")
	}
	if _, err := RunAttack(context.Background(), AttackConfig{Base: Config{Design: DesignPRAC}, Spec: workload.AttackSpec{Pattern: "sideways"}}); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

// TestAttackCanceled: an attack given a context that has already ended
// stops before its first event and says why.
func TestAttackCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAttack(ctx, AttackConfig{
		Base:       Config{Design: DesignMoPACD, TRH: 500, Seed: 1},
		Spec:       workload.AttackSpec{Pattern: workload.KindDoubleSided, Victim: workload.DefaultVictim},
		TargetActs: 30_000,
	})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled attack returned %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

func TestManySidedBeatsNothingButBaseline(t *testing.T) {
	base := hammer(t, Config{Design: DesignBaseline, TRH: 500, Seed: 1}, workload.KindTRRespass, 40_000)
	if base.Secure {
		t.Fatal("many-sided pattern must break the unprotected baseline")
	}
	prot := hammer(t, Config{Design: DesignMoPACD, TRH: 500, Seed: 1}, workload.KindTRRespass, 40_000)
	if !prot.Secure {
		t.Fatal("MoPAC-D must stop the many-sided pattern")
	}
}
