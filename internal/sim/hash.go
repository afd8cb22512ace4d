package sim

import "mopac/internal/runkey"

// hashVersion is the Config key-encoding version. Bumping it orphans
// every persisted result-store entry and cached summary at once, which
// is the intended effect of changing what a key means. v2: the run
// loop became epoch-aligned (it executes every event before the first
// 15 ns epoch boundary at which all cores are done, rather than
// stopping mid-window at the final retirement), which shifts tail
// stats slightly, so v1 records no longer describe v2 runs.
const hashVersion = "mopac-config-v2"

// Hash returns a content-addressed key for the run the configuration
// describes. The config is normalised first (setDefaults), so a zero
// field and its explicit default hash identically, and every field that
// can change the Result participates — and nothing else: Trace is pure
// observation and is excluded, so traced and untraced runs share a key.
// Because runs are seeded and the simulator is deterministic by
// construction, two configs with equal hashes produce byte-identical
// results — which is what makes the service result cache, the
// experiment planner's cross-figure dedup, and the on-disk result
// store sound (see DESIGN.md). All three key through this one
// derivation (package runkey), so the tiers cannot drift.
func (c Config) Hash() string {
	b := runkey.New(hashVersion)
	c.addHashFields(b)
	return b.Sum()
}

// addHashFields appends the canonical field encoding of the (default-
// normalised) config to b. It is shared by Config.Hash and
// AttackConfig.Hash so the base-config portion of the two key schemas
// cannot drift; the distinct version lines keep their keyspaces
// disjoint.
func (c Config) addHashFields(b *runkey.Builder) {
	c.setDefaults()
	b.Int("design", int64(c.Design))
	b.Int("trh", int64(c.TRH))
	b.Str("workload", c.Workload)
	b.Int("cores", int64(c.Cores))
	b.Int("instr", c.InstrPerCore)
	b.Bool("nup", c.NUP)
	b.Bool("rowpress", c.RowPress)
	b.Int("chips", int64(c.Chips))
	b.Bool("qprac", c.QPRAC)
	b.Int("pinv", int64(c.PInvOverride))
	b.Int("rfmlevel", int64(c.RFMLevel))
	b.Int("maxpostponed", int64(c.MaxPostponedREFs))
	b.Int("srqsize", int64(c.SRQSize))
	b.OptInt("drainonref", c.DrainOnREF)
	b.Int("policy", int64(c.Policy))
	b.Int("timeoutns", c.TimeoutNs)
	b.Uint("seed", c.Seed)
	b.Bool("security", c.TrackSecurity)
	b.Int("logdepth", int64(c.CommandLogDepth))
}

// attackHashVersion is the AttackConfig key-encoding version. Attack
// candidates share the planner/store machinery with figure runs but
// live in their own schema ("attack-v1") and keyspace: the version
// line guarantees an attack key can never collide with a figure-run
// key even inside a shared directory.
const attackHashVersion = "mopac-attack-v1"

// Hash returns the content-addressed key of one attack-candidate
// evaluation: the base design config, every pattern knob, and the
// activation target. Seeded attack runs are deterministic, so equal
// keys imply byte-identical AttackResults — which is what lets the
// search driver dedupe candidates and resume warm from the store.
func (a AttackConfig) Hash() string {
	a = a.normalized()
	b := runkey.New(attackHashVersion)
	a.Base.addHashFields(b)
	s := a.Spec
	b.Str("pattern", s.Pattern)
	b.Int("sub", int64(s.Sub))
	b.Int("bank", int64(s.Bank))
	b.Int("victim", int64(s.Victim))
	b.Int("aggressors", int64(s.Aggressors))
	b.Int("decoys", int64(s.Decoys))
	b.Int("decoyratio", int64(s.DecoyRatio))
	b.Int("burst", int64(s.Burst))
	b.Int("phasens", s.PhaseNs)
	b.Int("gapns", s.GapNs)
	b.Int("bankspread", int64(s.BankSpread))
	b.Int("targetacts", a.TargetActs)
	return b.Sum()
}
