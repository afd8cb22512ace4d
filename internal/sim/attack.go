package sim

import (
	"fmt"

	"mopac/internal/addrmap"
	"mopac/internal/cpu"
	"mopac/internal/oracle"
	"mopac/internal/workload"
)

// PatternBuilder constructs an attack access stream against the system's
// address mapping (the workload package provides DoubleSided, MultiBank,
// SRQFill, ManySided, …).
type PatternBuilder func(m addrmap.Mapper) (cpu.Source, error)

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

// RunAttack drives an attack pattern against the configured design until
// the attacker lands targetActs activations. The security oracle is
// always attached. The config's Workload must be empty (the attacker is
// the only traffic source); Cores selects how many parallel attacker
// threads replay the same pattern builder.
func RunAttack(cfg Config, build PatternBuilder, targetActs int64) (AttackResult, error) {
	if cfg.Workload != "" {
		return AttackResult{}, fmt.Errorf("sim: attack runs must not carry a workload")
	}
	if targetActs <= 0 {
		return AttackResult{}, fmt.Errorf("sim: targetActs must be positive")
	}
	cfg.TrackSecurity = true
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	threads := cfg.Cores
	sys, err := NewSystem(cfg)
	if err != nil {
		return AttackResult{}, err
	}
	for i := 0; i < threads; i++ {
		src, berr := build(sys.mapper)
		if berr != nil {
			return AttackResult{}, berr
		}
		core, cerr := cpu.New(sys.eng, cpu.Config{
			Width: 8, ROB: 256, TargetInstr: 1 << 62, Submit: sys.submit,
		}, src)
		if cerr != nil {
			return AttackResult{}, cerr
		}
		sys.cores = append(sys.cores, core)
	}

	const capNs = 10_000_000_000
	for sys.OracleActivations() < targetActs && sys.eng.Now() < capNs {
		if !sys.eng.Step() {
			return AttackResult{}, fmt.Errorf("sim: attack stalled at %d ns", sys.eng.Now())
		}
	}
	if n := sys.OracleActivations(); n < targetActs {
		return AttackResult{}, fmt.Errorf("sim: attack hit the time cap with %d/%d ACTs", n, targetActs)
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

// AttackConfig is one attack-candidate evaluation: a design under test
// (Base; its Workload must be empty), a parameterized pattern, and the
// activation budget the attacker gets. It is the planner/store unit of
// the attack search — content-addressed by Hash, persisted under
// AttackStoreSchema.
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

// RunAttackConfig evaluates one attack candidate: it builds the spec's
// pattern source and drives it through RunAttack. Deterministic for a
// given (normalized) config.
func RunAttackConfig(a AttackConfig) (AttackResult, error) {
	a = a.normalized()
	return RunAttack(a.Base, func(m addrmap.Mapper) (cpu.Source, error) {
		return a.Spec.Build(m)
	}, a.TargetActs)
}
