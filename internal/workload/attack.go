package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mopac/internal/addrmap"
	"mopac/internal/cpu"
)

// Attack-pattern kinds accepted by AttackSpec. The first four are the
// knob-driven kinds the attack search explores; the rest are the fixed
// patterns of the paper's §7 attacks and the security suite.
const (
	KindDoubleSided = "double-sided"
	KindManySided   = "many-sided"
	KindWave        = "wave"
	KindRefreshSync = "refresh-sync"
	KindSingleSided = "single-sided"
	KindMultiBank   = "multi-bank"
	KindSRQFill     = "srq-fill"
	KindTRRespass   = "trrespass"
)

// DefaultVictim is the row the fixed patterns are anchored at: the
// victim of the stock double-sided loop and the hammered row of the
// single-sided and multi-bank patterns.
const DefaultVictim = 4096

// The fixed shapes of the SRQ-fill and TRRespass patterns.
const (
	srqFillRows    = 256
	trrespassPairs = 12
)

// knobs is the set of AttackSpec fields a kind reads. Normalize keeps
// (and defaults) exactly these and zeroes the rest, so knobs a kind
// ignores cannot split the attack store's keyspace, and String prints
// exactly these.
type knobs uint8

const (
	knobAnchor knobs = 1 << iota // Sub, Bank
	knobVictim                   // Victim
	knobAggr                     // Aggressors (default 2)
	knobDecoys                   // Decoys (default 8), DecoyRatio (default 1)
	knobBurst                    // Burst (default 8)
	knobTiming                   // PhaseNs, GapNs
	knobSpread                   // BankSpread (default 1)

	clusterKnobs = knobAnchor | knobVictim | knobAggr | knobSpread
)

// step is one access of a pattern's cycle: a location plus the idle
// instruction gap preceding it.
type step struct {
	loc addrmap.Loc
	gap int64
}

// kind is one attack-pattern kind: its name, the knobs it reads, and
// the builder of one cycle of its accesses on the anchor bank. A
// builder returns the cycle and a one-time lead gap before the first
// access. It receives a normalized, validated spec.
type kind struct {
	name  string
	knobs knobs
	// aggr pins Aggressors to a fixed count; 0 leaves the knob free.
	aggr  int
	cycle func(s AttackSpec, geo addrmap.Geometry) ([]step, int64)
}

// kinds is the pattern registry, in Kinds() order.
var kinds = []kind{
	// The classic double-sided pair (§2.3, Figure 8).
	{name: KindDoubleSided, knobs: clusterKnobs, aggr: 2, cycle: cluster},
	// Aggressors rows packed around one victim, hammered round-robin.
	{name: KindManySided, knobs: clusterKnobs, cycle: cluster},
	// A feinting (wave) pattern: each cycle first sweeps Decoys distinct
	// decoy rows DecoyRatio times — draining the sampler / SRQ / tracker
	// budget on rows that never threaten the victim — then lands Burst
	// passes over the real aggressors. The decoy phase buys the real
	// burst a window in which the mitigation machinery is busy or
	// saturated.
	{name: KindWave, knobs: clusterKnobs | knobDecoys | knobBurst, cycle: func(s AttackSpec, geo addrmap.Geometry) ([]step, int64) {
		aggr, _ := cluster(s, geo)
		var steps []step
		dr := decoyRows(geo, s.Victim, s.Decoys)
		for pass := 0; pass < s.DecoyRatio; pass++ {
			for _, r := range dr {
				steps = append(steps, step{loc: addrmap.Loc{Sub: s.Sub, Bank: s.Bank, Row: r}})
			}
		}
		for pass := 0; pass < s.Burst; pass++ {
			steps = append(steps, aggr...)
		}
		return steps, 0
	}},
	// A refresh-synchronized burst pattern: after an initial offset of
	// PhaseNs, each cycle hammers the aggressors for Burst accesses back
	// to back, then idles GapNs before the next burst. With the cycle
	// period tuned near tREFI, every burst lands in the same position of
	// the refresh window — starving REF-shadow mitigation (drains,
	// proactive service) of the aggressor activity it needs to observe,
	// and stacking activations into the interval where the design's
	// budget is already spent.
	{name: KindRefreshSync, knobs: clusterKnobs | knobBurst | knobTiming, cycle: func(s AttackSpec, geo addrmap.Geometry) ([]step, int64) {
		aggr, _ := cluster(s, geo)
		steps := make([]step, s.Burst)
		for i := range steps {
			steps[i].loc = aggr[i%len(aggr)].loc
		}
		steps[0].gap = s.GapNs * cpu.DefaultWidth
		return steps, s.PhaseNs * cpu.DefaultWidth
	}},
	// One aggressor row interleaved with a far-away dummy row, so every
	// access reopens the aggressor.
	{name: KindSingleSided, knobs: knobAnchor | knobVictim, cycle: func(s AttackSpec, geo addrmap.Geometry) ([]step, int64) {
		dummy := (s.Victim + geo.Rows/2) % geo.Rows
		return []step{
			{loc: addrmap.Loc{Sub: s.Sub, Bank: s.Bank, Row: s.Victim}},
			{loc: addrmap.Loc{Sub: s.Sub, Bank: s.Bank, Row: dummy}},
		}, 0
	}},
	// The §7.2 performance-attack pattern (Figure 14b): row Victim in
	// every bank of the system, visited round-robin.
	{name: KindMultiBank, knobs: knobVictim, cycle: func(s AttackSpec, geo addrmap.Geometry) ([]step, int64) {
		steps := make([]step, geo.Subchannels*geo.Banks)
		for i := range steps {
			steps[i].loc = addrmap.Loc{Sub: i / geo.Banks, Bank: i % geo.Banks, Row: s.Victim}
		}
		return steps, 0
	}},
	// The §7.4 SRQ-full attack: far more unique rows in one bank than
	// the Selected Row Queue can hold, spread so victim refreshes never
	// overlap aggressors.
	{name: KindSRQFill, knobs: knobAnchor, cycle: func(s AttackSpec, geo addrmap.Geometry) ([]step, int64) {
		steps := make([]step, srqFillRows)
		for i := range steps {
			steps[i].loc = addrmap.Loc{Sub: s.Sub, Bank: s.Bank, Row: (i * 8) % geo.Rows}
		}
		return steps, 0
	}},
	// A TRRespass-style pattern: aggressor pairs around distinct victims
	// in one bank, defeating small deterministic trackers.
	{name: KindTRRespass, knobs: knobAnchor, cycle: func(s AttackSpec, geo addrmap.Geometry) ([]step, int64) {
		steps := make([]step, 0, 2*trrespassPairs)
		for i := 0; i < trrespassPairs; i++ {
			base := 100 + i*10
			steps = append(steps,
				step{loc: addrmap.Loc{Sub: s.Sub, Bank: s.Bank, Row: base}},
				step{loc: addrmap.Loc{Sub: s.Sub, Bank: s.Bank, Row: base + 2}},
			)
		}
		return steps, 0
	}},
}

// lookup returns the named kind's registry entry, or nil.
func lookup(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// Kinds lists the AttackSpec pattern kinds in canonical order.
func Kinds() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.name
	}
	return out
}

// cluster is the many-sided cycle: Aggressors rows packed around the
// victim, one access each.
func cluster(s AttackSpec, _ addrmap.Geometry) ([]step, int64) {
	rows := aggressorRows(s.Victim, s.Aggressors)
	steps := make([]step, len(rows))
	for i, r := range rows {
		steps[i].loc = addrmap.Loc{Sub: s.Sub, Bank: s.Bank, Row: r}
	}
	return steps, 0
}

// aggressorRows returns n aggressor rows packed around victim,
// alternating sides by increasing distance: v-1, v+1, v-2, v+2, ….
// Every returned row is a blast-radius-1 or -2 neighbour of a row
// between the extremes, so the cluster concentrates disturbance like a
// real many-sided (TRRespass / Blacksmith) cluster does.
func aggressorRows(victim, n int) []int {
	rows := make([]int, 0, n)
	for d := 1; len(rows) < n; d++ {
		rows = append(rows, victim-d)
		if len(rows) < n {
			rows = append(rows, victim+d)
		}
	}
	return rows
}

// decoyRows returns k decoy rows for a wave pattern: unique rows spread
// across the bank, all at least 64 rows away from the victim cluster so
// decoy activations never disturb the real victim, but each one costs
// the design tracker/SRQ budget exactly like an aggressor would.
func decoyRows(geo addrmap.Geometry, victim, k int) []int {
	rows := make([]int, 0, k)
	for i := 0; len(rows) < k; i++ {
		r := (victim + 64 + i*8) % geo.Rows
		if r >= victim-64 && r <= victim+64 {
			continue
		}
		rows = append(rows, r)
	}
	return rows
}

// pattern cycles a fixed list of accesses as fast as the memory system
// allows: every access depends on the previous one, which is how a
// real hammering loop (load + flush + fence) behaves. An access's gap
// lets a pattern idle between bursts. It implements cpu.Source.
type pattern struct {
	cycle []cpu.Access
	lead  int64 // added to the first access's gap only
	i     int
}

// Next implements cpu.Source.
func (p *pattern) Next() (cpu.Access, bool) {
	a := p.cycle[p.i]
	if p.i++; p.i == len(p.cycle) {
		p.i = 0
	}
	a.Gap += p.lead
	p.lead = 0
	return a, true
}

// AttackSpec is a fully parameterized adversarial pattern: the one
// description of every attack run, from the paper's fixed patterns to
// the knob vectors the attack-search driver optimizes over. The zero
// value of a knob means "default"; Normalize resolves defaults so two
// spellings of the same pattern build identical sources (and hash
// identically).
type AttackSpec struct {
	// Pattern is one of Kinds().
	Pattern string `json:"pattern"`
	// Sub and Bank anchor the pattern; Victim is the target row (the
	// hammered row for single-sided and multi-bank).
	Sub    int `json:"sub"`
	Bank   int `json:"bank"`
	Victim int `json:"victim"`
	// Aggressors is the aggressor-cluster size around the victim
	// (default 2 = double-sided).
	Aggressors int `json:"aggressors,omitempty"`
	// Decoys and DecoyRatio shape the wave feint: Decoys distinct decoy
	// rows swept DecoyRatio times before each real burst.
	Decoys     int `json:"decoys,omitempty"`
	DecoyRatio int `json:"decoy_ratio,omitempty"`
	// Burst is the real-burst length in passes (wave) or accesses
	// (refresh-sync).
	Burst int `json:"burst,omitempty"`
	// PhaseNs and GapNs time refresh-sync bursts: initial offset and
	// inter-burst idle, in simulated nanoseconds.
	PhaseNs int64 `json:"phase_ns,omitempty"`
	GapNs   int64 `json:"gap_ns,omitempty"`
	// BankSpread replicates the pattern across this many consecutive
	// banks (mod the bank count), interleaving their accesses.
	BankSpread int `json:"bank_spread,omitempty"`
}

// readKnobs returns the knobs and pinned aggressor count of a pattern
// name. An unknown name reads the many-sided knobs, so an invalid spec
// still normalizes and prints in full for Validate to reject.
func readKnobs(name string) (knobs, int) {
	if k := lookup(name); k != nil {
		return k.knobs, k.aggr
	}
	return clusterKnobs, 0
}

// Normalize resolves knob defaults and returns the spec: the knobs the
// kind reads take their defaults, and every other knob is zeroed.
func (s AttackSpec) Normalize() AttackSpec {
	if s.Pattern == "" {
		s.Pattern = KindDoubleSided
	}
	set, aggr := readKnobs(s.Pattern)
	out := AttackSpec{Pattern: s.Pattern}
	if set&knobAnchor != 0 {
		out.Sub, out.Bank = s.Sub, s.Bank
	}
	if set&knobVictim != 0 {
		out.Victim = s.Victim
	}
	if set&knobAggr != 0 {
		out.Aggressors = max(s.Aggressors, 2)
		if aggr > 0 {
			out.Aggressors = aggr
		}
	}
	if set&knobDecoys != 0 {
		out.Decoys, out.DecoyRatio = orDefault(s.Decoys, 8), orDefault(s.DecoyRatio, 1)
	}
	if set&knobBurst != 0 {
		out.Burst = orDefault(s.Burst, 8)
	}
	if set&knobTiming != 0 {
		out.PhaseNs, out.GapNs = s.PhaseNs, s.GapNs
	}
	if set&knobSpread != 0 {
		out.BankSpread = orDefault(s.BankSpread, 1)
	}
	return out
}

// orDefault returns v, or def when v is below 1.
func orDefault(v, def int) int {
	if v < 1 {
		return def
	}
	return v
}

// Validate rejects specs that cannot build against the geometry. It is
// the only check: Build's cycle builders assume a spec that passed it.
func (s AttackSpec) Validate(geo addrmap.Geometry) error {
	s = s.Normalize()
	if lookup(s.Pattern) == nil {
		return fmt.Errorf("workload: unknown attack pattern %q", s.Pattern)
	}
	if s.Sub < 0 || s.Sub >= geo.Subchannels {
		return fmt.Errorf("workload: subchannel %d out of range", s.Sub)
	}
	if s.Bank < 0 || s.Bank >= geo.Banks {
		return fmt.Errorf("workload: bank %d out of range", s.Bank)
	}
	reach := (s.Aggressors + 1) / 2
	if s.Victim-reach < 0 || s.Victim+reach >= geo.Rows {
		return fmt.Errorf("workload: victim row %d cannot host %d aggressors", s.Victim, s.Aggressors)
	}
	if s.Aggressors > 64 {
		return fmt.Errorf("workload: aggressor count %d exceeds 64", s.Aggressors)
	}
	if s.Decoys > geo.Rows/16 {
		return fmt.Errorf("workload: %d decoys exceed the bank's spread budget", s.Decoys)
	}
	if s.DecoyRatio > 64 || s.Burst > 4096 {
		return fmt.Errorf("workload: wave/burst shape out of range (ratio %d, burst %d)", s.DecoyRatio, s.Burst)
	}
	if s.PhaseNs < 0 || s.GapNs < 0 {
		return fmt.Errorf("workload: negative phase/gap")
	}
	if s.PhaseNs > 1_000_000 || s.GapNs > 1_000_000 {
		return fmt.Errorf("workload: phase/gap beyond 1 ms starves the attack")
	}
	if s.BankSpread > geo.Banks {
		return fmt.Errorf("workload: bank spread %d exceeds %d banks", s.BankSpread, geo.Banks)
	}
	return nil
}

// Build constructs the spec's access source against the mapper. With
// BankSpread above 1, each step of the kind's cycle expands into
// replicas on consecutive banks (wrapping mod the bank count), and
// only the first replica carries the step's idle gap: round-robining
// banks access by access keeps every replica's per-bank cadence equal
// to the base pattern's.
func (s AttackSpec) Build(mapper addrmap.Mapper) (cpu.Source, error) {
	geo := mapper.Geometry()
	if err := s.Validate(geo); err != nil {
		return nil, err
	}
	s = s.Normalize()
	steps, lead := lookup(s.Pattern).cycle(s, geo)
	spread := max(s.BankSpread, 1)
	p := &pattern{cycle: make([]cpu.Access, 0, len(steps)*spread), lead: lead}
	for _, st := range steps {
		for b := 0; b < spread; b++ {
			loc := st.loc
			loc.Bank = (st.loc.Bank + b) % geo.Banks
			a := cpu.Access{Addr: mapper.Encode(loc), Dep: true}
			if b == 0 {
				a.Gap = st.gap
			}
			p.cycle = append(p.cycle, a)
		}
	}
	return p, nil
}

// String renders the spec in its canonical parseable form:
// "pattern:key=value,…" with keys in fixed order and normalized knobs,
// so equal patterns render equal strings. ParseAttackSpec inverts it.
func (s AttackSpec) String() string {
	s = s.Normalize()
	set, _ := readKnobs(s.Pattern)
	var b strings.Builder
	b.WriteString(s.Pattern)
	sep := byte(':')
	put := func(k string, v int64) {
		b.WriteByte(sep)
		sep = ','
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(v, 10))
	}
	if set&knobAnchor != 0 {
		put("sub", int64(s.Sub))
		put("bank", int64(s.Bank))
	}
	if set&knobVictim != 0 {
		put("victim", int64(s.Victim))
	}
	if set&knobAggr != 0 {
		put("aggr", int64(s.Aggressors))
	}
	if set&knobDecoys != 0 {
		put("decoys", int64(s.Decoys))
		put("ratio", int64(s.DecoyRatio))
	}
	if set&knobBurst != 0 {
		put("burst", int64(s.Burst))
	}
	if set&knobTiming != 0 {
		put("phase", s.PhaseNs)
		put("gap", s.GapNs)
	}
	if set&knobSpread != 0 {
		put("spread", int64(s.BankSpread))
	}
	return b.String()
}

// specKeys maps spec-string keys to field setters, shared by the parser
// so parsing stays table-driven and the fuzz target covers every knob.
var specKeys = map[string]func(*AttackSpec, int64){
	"sub":    func(s *AttackSpec, v int64) { s.Sub = int(v) },
	"bank":   func(s *AttackSpec, v int64) { s.Bank = int(v) },
	"victim": func(s *AttackSpec, v int64) { s.Victim = int(v) },
	"aggr":   func(s *AttackSpec, v int64) { s.Aggressors = int(v) },
	"decoys": func(s *AttackSpec, v int64) { s.Decoys = int(v) },
	"ratio":  func(s *AttackSpec, v int64) { s.DecoyRatio = int(v) },
	"burst":  func(s *AttackSpec, v int64) { s.Burst = int(v) },
	"phase":  func(s *AttackSpec, v int64) { s.PhaseNs = v },
	"gap":    func(s *AttackSpec, v int64) { s.GapNs = v },
	"spread": func(s *AttackSpec, v int64) { s.BankSpread = int(v) },
}

// SpecKeys lists the parseable knob keys in sorted order.
func SpecKeys() []string {
	out := make([]string, 0, len(specKeys))
	for k := range specKeys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ParseAttackSpec parses the "pattern:key=value,…" form produced by
// AttackSpec.String. Unknown patterns, unknown keys, duplicate keys,
// and malformed numbers are errors; omitted keys take their defaults.
func ParseAttackSpec(text string) (AttackSpec, error) {
	var s AttackSpec
	pattern, rest, hasKnobs := strings.Cut(text, ":")
	s.Pattern = pattern
	if lookup(pattern) == nil {
		return AttackSpec{}, fmt.Errorf("workload: unknown attack pattern %q (want one of %s)",
			pattern, strings.Join(Kinds(), " "))
	}
	if hasKnobs && rest != "" {
		seen := make(map[string]bool)
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return AttackSpec{}, fmt.Errorf("workload: attack knob %q is not key=value", kv)
			}
			set, known := specKeys[key]
			if !known {
				return AttackSpec{}, fmt.Errorf("workload: unknown attack knob %q (want one of %s)",
					key, strings.Join(SpecKeys(), " "))
			}
			if seen[key] {
				return AttackSpec{}, fmt.Errorf("workload: duplicate attack knob %q", key)
			}
			seen[key] = true
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return AttackSpec{}, fmt.Errorf("workload: attack knob %s: %v", key, err)
			}
			set(&s, n)
		}
	}
	return s.Normalize(), nil
}
