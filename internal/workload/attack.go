package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mopac/internal/addrmap"
	"mopac/internal/cpu"
)

// AttackPattern cycles a fixed list of DRAM locations as fast as the
// memory system allows: every access depends on the previous one, which
// is how a real hammering loop (load + flush + fence) behaves. It
// implements cpu.Source.
type AttackPattern struct {
	mapper addrmap.Mapper
	locs   []addrmap.Loc
	i      int
}

// NewAttackPattern wraps an explicit location sequence.
func NewAttackPattern(mapper addrmap.Mapper, locs []addrmap.Loc) (*AttackPattern, error) {
	if len(locs) == 0 {
		return nil, fmt.Errorf("workload: attack pattern needs locations")
	}
	g := mapper.Geometry()
	for _, l := range locs {
		if l.Sub < 0 || l.Sub >= g.Subchannels || l.Bank < 0 || l.Bank >= g.Banks ||
			l.Row < 0 || l.Row >= g.Rows {
			return nil, fmt.Errorf("workload: location %+v out of range", l)
		}
	}
	return &AttackPattern{mapper: mapper, locs: locs}, nil
}

// Next implements cpu.Source.
func (a *AttackPattern) Next() (cpu.Access, bool) {
	loc := a.locs[a.i]
	a.i = (a.i + 1) % len(a.locs)
	// Alternate columns so consecutive visits to the same row still
	// force a fresh activation after the interleaved rows close it.
	return cpu.Access{Gap: 0, Addr: a.mapper.Encode(loc), Dep: true}, true
}

// Rows returns the number of distinct locations in the pattern.
func (a *AttackPattern) Rows() int { return len(a.locs) }

// DoubleSided builds the classic double-sided pattern around victim row
// v in one bank: aggressors v-1 and v+1 are hammered alternately (§2.3,
// Figure 8).
func DoubleSided(mapper addrmap.Mapper, sub, bank, victim int) (*AttackPattern, error) {
	if victim < 1 || victim >= mapper.Geometry().Rows-1 {
		return nil, fmt.Errorf("workload: victim row %d has no neighbours", victim)
	}
	return NewAttackPattern(mapper, []addrmap.Loc{
		{Sub: sub, Bank: bank, Row: victim - 1},
		{Sub: sub, Bank: bank, Row: victim + 1},
	})
}

// SingleSided hammers one aggressor row, interleaved with a far-away
// dummy row so every access reopens the aggressor.
func SingleSided(mapper addrmap.Mapper, sub, bank, row int) (*AttackPattern, error) {
	dummy := (row + mapper.Geometry().Rows/2) % mapper.Geometry().Rows
	return NewAttackPattern(mapper, []addrmap.Loc{
		{Sub: sub, Bank: bank, Row: row},
		{Sub: sub, Bank: bank, Row: dummy},
	})
}

// MultiBank builds the §7.2 performance-attack pattern (Figure 14b): one
// row in each of n banks, visited round-robin.
func MultiBank(mapper addrmap.Mapper, n, row int) (*AttackPattern, error) {
	g := mapper.Geometry()
	total := g.Subchannels * g.Banks
	if n <= 0 || n > total {
		return nil, fmt.Errorf("workload: %d banks requested of %d", n, total)
	}
	locs := make([]addrmap.Loc, 0, n)
	for i := 0; i < n; i++ {
		locs = append(locs, addrmap.Loc{Sub: i / g.Banks, Bank: i % g.Banks, Row: row})
	}
	return NewAttackPattern(mapper, locs)
}

// SRQFill builds the §7.4 SRQ-full attack: many unique rows in a single
// bank, far more than the Selected Row Queue can hold.
func SRQFill(mapper addrmap.Mapper, sub, bank, rows int) (*AttackPattern, error) {
	if rows <= 0 || rows > mapper.Geometry().Rows {
		return nil, fmt.Errorf("workload: bad row count %d", rows)
	}
	locs := make([]addrmap.Loc, 0, rows)
	for i := 0; i < rows; i++ {
		// Spread the rows so victim refreshes never overlap aggressors.
		locs = append(locs, addrmap.Loc{Sub: sub, Bank: bank, Row: (i * 8) % mapper.Geometry().Rows})
	}
	return NewAttackPattern(mapper, locs)
}

// ManySided builds a TRRespass-style pattern: k aggressor pairs around
// distinct victims in one bank, defeating small deterministic trackers.
func ManySided(mapper addrmap.Mapper, sub, bank, k int) (*AttackPattern, error) {
	if k <= 0 {
		return nil, fmt.Errorf("workload: need at least one aggressor pair")
	}
	locs := make([]addrmap.Loc, 0, 2*k)
	for i := 0; i < k; i++ {
		base := 100 + i*10
		locs = append(locs,
			addrmap.Loc{Sub: sub, Bank: bank, Row: base},
			addrmap.Loc{Sub: sub, Bank: bank, Row: base + 2},
		)
	}
	return NewAttackPattern(mapper, locs)
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

// ManySidedAround builds the parameterized many-sided pattern: n
// aggressor rows packed around one victim, hammered round-robin. n = 2
// is the classic double-sided pair.
func ManySidedAround(mapper addrmap.Mapper, sub, bank, victim, n int) (*AttackPattern, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: need at least one aggressor, got %d", n)
	}
	reach := (n + 1) / 2
	if victim-reach < 0 || victim+reach >= mapper.Geometry().Rows {
		return nil, fmt.Errorf("workload: victim row %d cannot host %d aggressors", victim, n)
	}
	locs := make([]addrmap.Loc, 0, n)
	for _, r := range aggressorRows(victim, n) {
		locs = append(locs, addrmap.Loc{Sub: sub, Bank: bank, Row: r})
	}
	return NewAttackPattern(mapper, locs)
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

// Wave builds a feinting (wave) pattern: each cycle first sweeps decoys
// distinct decoy rows ratio times — draining the sampler / SRQ /
// tracker budget on rows that never threaten the victim — then lands a
// burst of burst passes over n real aggressors around the victim. The
// decoy phase buys the real burst a window in which the mitigation
// machinery is busy or saturated.
func Wave(mapper addrmap.Mapper, sub, bank, victim, n, decoys, ratio, burst int) (*AttackPattern, error) {
	if decoys < 1 || ratio < 1 || burst < 1 {
		return nil, fmt.Errorf("workload: wave needs decoys, ratio, burst >= 1 (got %d, %d, %d)", decoys, ratio, burst)
	}
	geo := mapper.Geometry()
	if decoys > geo.Rows/16 {
		return nil, fmt.Errorf("workload: %d decoys exceed the bank's spread budget", decoys)
	}
	aggr, err := ManySidedAround(mapper, sub, bank, victim, n)
	if err != nil {
		return nil, err
	}
	var locs []addrmap.Loc
	dr := decoyRows(geo, victim, decoys)
	for pass := 0; pass < ratio; pass++ {
		for _, r := range dr {
			locs = append(locs, addrmap.Loc{Sub: sub, Bank: bank, Row: r})
		}
	}
	for pass := 0; pass < burst; pass++ {
		locs = append(locs, aggr.locs...)
	}
	return NewAttackPattern(mapper, locs)
}

// hammerWidthInstrPerNs is the retirement width of the attack-driver
// core model (sim.RunAttack wires cpu.Config{Width: 8}): converting a
// requested idle time in nanoseconds into the instruction gap that
// produces it.
const hammerWidthInstrPerNs = 8

// phasedItem is one access of a PhasedPattern cycle: a location plus
// the idle instruction gap preceding it.
type phasedItem struct {
	loc addrmap.Loc
	gap int64
}

// PhasedPattern cycles timed accesses: like AttackPattern, but each
// access carries an instruction gap, letting a pattern idle between
// bursts — the building block of refresh-synchronized attacks. It
// implements cpu.Source.
type PhasedPattern struct {
	mapper addrmap.Mapper
	lead   int64 // one-time phase offset before the first access
	items  []phasedItem
	i      int
	led    bool
}

// Next implements cpu.Source.
func (p *PhasedPattern) Next() (cpu.Access, bool) {
	it := p.items[p.i]
	p.i = (p.i + 1) % len(p.items)
	gap := it.gap
	if !p.led {
		p.led = true
		gap += p.lead
	}
	return cpu.Access{Gap: gap, Addr: p.mapper.Encode(it.loc), Dep: true}, true
}

// Rows returns the cycle length in accesses.
func (p *PhasedPattern) Rows() int { return len(p.items) }

// RefreshSync builds a refresh-synchronized burst pattern: after an
// initial phase offset of phaseNs, each cycle hammers n aggressors
// around the victim for burst accesses back to back, then idles gapNs
// before the next burst. With the cycle period tuned near tREFI, every
// burst lands in the same position of the refresh window — starving
// REF-shadow mitigation (drains, proactive service) of the aggressor
// activity it needs to observe, and stacking activations into the
// interval where the design's budget is already spent.
func RefreshSync(mapper addrmap.Mapper, sub, bank, victim, n, burst int, phaseNs, gapNs int64) (*PhasedPattern, error) {
	if burst < 1 {
		return nil, fmt.Errorf("workload: refresh-sync burst must be >= 1, got %d", burst)
	}
	if phaseNs < 0 || gapNs < 0 {
		return nil, fmt.Errorf("workload: refresh-sync phase/gap must be >= 0 (got %d, %d)", phaseNs, gapNs)
	}
	aggr, err := ManySidedAround(mapper, sub, bank, victim, n)
	if err != nil {
		return nil, err
	}
	items := make([]phasedItem, 0, burst)
	for i := 0; i < burst; i++ {
		items = append(items, phasedItem{loc: aggr.locs[i%len(aggr.locs)]})
	}
	items[0].gap = gapNs * hammerWidthInstrPerNs
	return &PhasedPattern{
		mapper: mapper,
		lead:   phaseNs * hammerWidthInstrPerNs,
		items:  items,
	}, nil
}

// Attack-pattern kinds accepted by AttackSpec.
const (
	KindDoubleSided = "double-sided"
	KindManySided   = "many-sided"
	KindWave        = "wave"
	KindRefreshSync = "refresh-sync"
)

// Kinds lists the AttackSpec pattern kinds in canonical order.
func Kinds() []string {
	return []string{KindDoubleSided, KindManySided, KindWave, KindRefreshSync}
}

// AttackSpec is a fully parameterized adversarial pattern: the knob
// vector the attack-search driver optimizes over. The zero value of a
// knob means "default"; Normalize resolves defaults so two spellings of
// the same pattern build identical sources (and hash identically).
type AttackSpec struct {
	// Pattern is one of Kinds().
	Pattern string `json:"pattern"`
	// Sub and Bank anchor the pattern; Victim is the target row.
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

// Normalize resolves knob defaults in place and returns the spec.
func (s AttackSpec) Normalize() AttackSpec {
	if s.Pattern == "" {
		s.Pattern = KindDoubleSided
	}
	if s.Aggressors < 2 || s.Pattern == KindDoubleSided {
		s.Aggressors = 2
	}
	if s.BankSpread < 1 {
		s.BankSpread = 1
	}
	if s.Pattern == KindWave {
		if s.Decoys < 1 {
			s.Decoys = 8
		}
		if s.DecoyRatio < 1 {
			s.DecoyRatio = 1
		}
	} else {
		s.Decoys, s.DecoyRatio = 0, 0
	}
	switch s.Pattern {
	case KindWave, KindRefreshSync:
		if s.Burst < 1 {
			s.Burst = 8
		}
	default:
		s.Burst = 0
	}
	if s.Pattern != KindRefreshSync {
		s.PhaseNs, s.GapNs = 0, 0
	}
	return s
}

// Validate rejects specs that cannot build against the geometry.
func (s AttackSpec) Validate(geo addrmap.Geometry) error {
	s = s.Normalize()
	valid := false
	for _, k := range Kinds() {
		if s.Pattern == k {
			valid = true
		}
	}
	if !valid {
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

// spreadLocs interleaves per-bank replicas of a location cycle: each
// base access expands into BankSpread accesses on consecutive banks
// (wrapping mod the bank count). Round-robining banks access by access
// keeps every replica's per-bank cadence equal to the base pattern's.
func spreadLocs(geo addrmap.Geometry, base []addrmap.Loc, spread int) []addrmap.Loc {
	if spread <= 1 {
		return base
	}
	out := make([]addrmap.Loc, 0, len(base)*spread)
	for _, l := range base {
		for b := 0; b < spread; b++ {
			r := l
			r.Bank = (l.Bank + b) % geo.Banks
			out = append(out, r)
		}
	}
	return out
}

// Build constructs the spec's access source against the mapper.
func (s AttackSpec) Build(mapper addrmap.Mapper) (cpu.Source, error) {
	geo := mapper.Geometry()
	if err := s.Validate(geo); err != nil {
		return nil, err
	}
	s = s.Normalize()
	switch s.Pattern {
	case KindDoubleSided, KindManySided:
		p, err := ManySidedAround(mapper, s.Sub, s.Bank, s.Victim, s.Aggressors)
		if err != nil {
			return nil, err
		}
		p.locs = spreadLocs(geo, p.locs, s.BankSpread)
		return p, nil
	case KindWave:
		p, err := Wave(mapper, s.Sub, s.Bank, s.Victim, s.Aggressors, s.Decoys, s.DecoyRatio, s.Burst)
		if err != nil {
			return nil, err
		}
		p.locs = spreadLocs(geo, p.locs, s.BankSpread)
		return p, nil
	case KindRefreshSync:
		p, err := RefreshSync(mapper, s.Sub, s.Bank, s.Victim, s.Aggressors, s.Burst, s.PhaseNs, s.GapNs)
		if err != nil {
			return nil, err
		}
		if s.BankSpread > 1 {
			items := make([]phasedItem, 0, len(p.items)*s.BankSpread)
			for _, it := range p.items {
				for b := 0; b < s.BankSpread; b++ {
					r := it
					r.loc.Bank = (it.loc.Bank + b) % geo.Banks
					if b > 0 {
						r.gap = 0 // only the first replica carries the idle gap
					}
					items = append(items, r)
				}
			}
			p.items = items
		}
		return p, nil
	}
	return nil, fmt.Errorf("workload: unknown attack pattern %q", s.Pattern)
}

// String renders the spec in its canonical parseable form:
// "pattern:key=value,…" with keys in fixed order and normalized knobs,
// so equal patterns render equal strings. ParseAttackSpec inverts it.
func (s AttackSpec) String() string {
	s = s.Normalize()
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
	put("sub", int64(s.Sub))
	put("bank", int64(s.Bank))
	put("victim", int64(s.Victim))
	put("aggr", int64(s.Aggressors))
	if s.Pattern == KindWave {
		put("decoys", int64(s.Decoys))
		put("ratio", int64(s.DecoyRatio))
	}
	if s.Burst > 0 {
		put("burst", int64(s.Burst))
	}
	if s.Pattern == KindRefreshSync {
		put("phase", s.PhaseNs)
		put("gap", s.GapNs)
	}
	put("spread", int64(s.BankSpread))
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
	valid := false
	for _, k := range Kinds() {
		if pattern == k {
			valid = true
		}
	}
	if !valid {
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
