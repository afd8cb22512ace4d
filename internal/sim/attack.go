package sim

import (
	"context"
	"fmt"

	"mopac/internal/oracle"
	"mopac/internal/workload"
)

// AttackResult summarises one attack run.
type AttackResult struct {
	// Activations is the number of ACTs the attacker landed.
	Activations int64
	// TimeNs is the simulated duration.
	TimeNs int64
	// ACTsPerNs is the attacker's achieved activation throughput; the
	// §7 performance-attack slowdown is 1 - protected/baseline.
	ACTsPerNs float64
	// Alerts is the number of ABO episodes the pattern triggered.
	Alerts int64
	// Mitigations is the number of victim refreshes performed.
	Mitigations int64
	// Secure reports the oracle's verdict: no row crossed the
	// threshold without an intervening reset.
	Secure bool
	// MaxUnmitigated is the oracle's highest observed per-row count.
	MaxUnmitigated int
	// TopRows are the worst-slipping rows (highest unmitigated
	// excursions), descending — the per-row scoring surface the attack
	// search ranks candidates by.
	TopRows []oracle.RowPeak `json:",omitempty"`
}

// topRowCount bounds the per-row slippage detail carried in an
// AttackResult (and persisted with it).
const topRowCount = 8

// RunAttack drives an attack against the configured design until the
// attacker lands the config's TargetActs activations. The security
// oracle is always attached. The base config's Workload must be empty:
// the attack is the only traffic source, built through NewSystem's
// "attack:<spec>" workload with Cores parallel attacker threads
// replaying the same pattern. Deterministic for a given (normalized)
// config. A run whose ctx ends first returns an error wrapping
// ErrCanceled.
func RunAttack(ctx context.Context, a AttackConfig) (AttackResult, error) {
	if a.Base.Workload != "" {
		return AttackResult{}, fmt.Errorf("sim: attack runs must not carry a workload")
	}
	a = a.normalized()
	if a.TargetActs <= 0 {
		return AttackResult{}, fmt.Errorf("sim: targetActs must be positive")
	}
	cfg := a.Base
	cfg.Workload = "attack:" + a.Spec.String()
	cfg.InstrPerCore = 1 << 62 // attackers never retire; the ACT target ends the run
	sys, err := NewSystem(cfg)
	if err != nil {
		return AttackResult{}, err
	}
	defer sys.Release()

	const capNs = 10_000_000_000
	if err := sys.run(ctx, capNs, func() bool { return sys.OracleActivations() >= a.TargetActs }); err != nil {
		return AttackResult{}, fmt.Errorf("sim: attack with %d/%d ACTs: %w", sys.OracleActivations(), a.TargetActs, err)
	}

	orc := sys.Oracle()
	res := AttackResult{
		Activations: orc.Activations(),
		TimeNs:      sys.eng.Now(),
		Secure:      orc.Secure(),
		TopRows:     orc.TopPeaks(topRowCount),
	}
	res.MaxUnmitigated, _, _ = orc.MaxUnmitigated()
	if res.TimeNs > 0 {
		res.ACTsPerNs = float64(res.Activations) / float64(res.TimeNs)
	}
	for _, dev := range sys.devs {
		res.Alerts += dev.Stats().Alerts
		res.Mitigations += dev.Stats().Mitigations
	}
	return res, nil
}

// AttackSlowdown compares the attacker's throughput under a protected
// design against the unprotected baseline running the same pattern:
// the §7 performance-attack metric.
func AttackSlowdown(baseline, protected AttackResult) float64 {
	if baseline.ACTsPerNs == 0 {
		return 0
	}
	return 1 - protected.ACTsPerNs/baseline.ACTsPerNs
}

// AttackConfig is one attack run: a design under test (Base; its
// Workload must be empty), a pattern, and the activation budget the
// attacker gets. It is the planner/store unit of every attack run — the
// search's candidates and the fixed patterns of the §7 tables alike —
// content-addressed by Hash, persisted under AttackStoreSchema.
type AttackConfig struct {
	Base       Config              `json:"base"`
	Spec       workload.AttackSpec `json:"spec"`
	TargetActs int64               `json:"target_acts"`
}

// AttackStoreSchema names the persisted attack-evaluation record type
// in the content-addressed store. It shares the store directory with
// the planner's figure-run results but occupies its own namespace, so
// attack candidates and figure runs can never collide.
const AttackStoreSchema = "attack-v1"

// normalized pins the base-config fields that RunAttack overrides
// anyway (oracle always on, one attacker thread by default, no
// workload sizing), so every spelling of the same evaluation hashes —
// and therefore dedupes — identically.
func (a AttackConfig) normalized() AttackConfig {
	a.Base.TrackSecurity = true
	if a.Base.Cores == 0 {
		a.Base.Cores = 1
	}
	a.Base.InstrPerCore = 0
	a.Base.Trace = nil
	if a.TargetActs == 0 {
		a.TargetActs = 30_000
	}
	a.Spec = a.Spec.Normalize()
	return a
}
