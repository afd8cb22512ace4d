package workload

import (
	"reflect"
	"testing"

	"mopac/internal/addrmap"
	"mopac/internal/cpu"
)

// drain decodes the next n accesses of a source back into locations.
func drain(t *testing.T, m addrmap.Mapper, src cpu.Source, n int) []addrmap.Loc {
	t.Helper()
	out := make([]addrmap.Loc, 0, n)
	for i := 0; i < n; i++ {
		a, ok := src.Next()
		if !ok {
			t.Fatalf("source ended after %d accesses", i)
		}
		out = append(out, m.Decode(a.Addr))
	}
	return out
}

func TestAggressorRowsAdjacency(t *testing.T) {
	cases := []struct {
		victim, n int
		want      []int
	}{
		{100, 1, []int{99}},
		{100, 2, []int{99, 101}},
		{100, 3, []int{99, 101, 98}},
		{100, 6, []int{99, 101, 98, 102, 97, 103}},
	}
	for _, c := range cases {
		got := aggressorRows(c.victim, c.n)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("aggressorRows(%d, %d) = %v, want %v", c.victim, c.n, got, c.want)
		}
	}
}

func TestManySidedAroundBoundsAndOrder(t *testing.T) {
	m := testMapper(t)
	geo := m.Geometry()

	p, err := manySidedAround(m, 1, 5, 4096, 4)
	if err != nil {
		t.Fatalf("manySidedAround: %v", err)
	}
	// One full cycle plus one wrapped access: deterministic round-robin.
	locs := drain(t, m, p, 5)
	wantRows := []int{4095, 4097, 4094, 4096 + 2, 4095}
	for i, l := range locs {
		if l.Sub != 1 || l.Bank != 5 {
			t.Fatalf("access %d landed at sub=%d bank=%d, want sub=1 bank=5", i, l.Sub, l.Bank)
		}
		if l.Row != wantRows[i] {
			t.Fatalf("access %d row = %d, want %d", i, l.Row, wantRows[i])
		}
	}

	// Victims too close to the bank edge cannot host the cluster.
	if _, err := manySidedAround(m, 0, 0, 0, 2); err == nil {
		t.Error("victim at row 0 accepted")
	}
	if _, err := manySidedAround(m, 0, 0, geo.Rows-1, 2); err == nil {
		t.Error("victim at the last row accepted")
	}
	if _, err := manySidedAround(m, 0, 0, 4096, 0); err == nil {
		t.Error("zero aggressors accepted")
	}
}

func TestWaveShape(t *testing.T) {
	m := testMapper(t)
	const victim, aggr, decoys, ratio, burst = 4096, 2, 3, 2, 2
	p, err := wave(m, 0, 3, victim, aggr, decoys, ratio, burst)
	if err != nil {
		t.Fatalf("Wave: %v", err)
	}
	cycle := decoys*ratio + aggr*burst
	if p.Rows() != cycle {
		t.Fatalf("cycle length = %d, want %d", p.Rows(), cycle)
	}
	locs := drain(t, m, p, cycle)
	// The decoy phase comes first and never touches the victim's
	// blast radius; the aggressor burst comes last and only touches it.
	for i, l := range locs {
		if l.Bank != 3 || l.Sub != 0 {
			t.Fatalf("access %d left the anchor bank: %+v", i, l)
		}
		near := l.Row >= victim-64 && l.Row <= victim+64
		if i < decoys*ratio && near {
			t.Errorf("decoy access %d (row %d) is inside the victim window", i, l.Row)
		}
		if i >= decoys*ratio && !near {
			t.Errorf("burst access %d (row %d) is outside the victim window", i, l.Row)
		}
	}
	// The decoy sweep repeats identically each ratio pass.
	for i := 0; i < decoys; i++ {
		if locs[i] != locs[decoys+i] {
			t.Errorf("decoy pass mismatch at %d: %+v vs %+v", i, locs[i], locs[decoys+i])
		}
	}
}

func TestRefreshSyncTiming(t *testing.T) {
	m := testMapper(t)
	const phase, gap = 100, 700
	p, err := refreshSync(m, 0, 0, 4096, 2, 4, phase, gap)
	if err != nil {
		t.Fatalf("RefreshSync: %v", err)
	}
	var gaps []int64
	for i := 0; i < 8; i++ {
		a, _ := p.Next()
		gaps = append(gaps, a.Gap)
	}
	// First access carries phase+gap once; each later cycle start
	// carries only the inter-burst gap; intra-burst accesses are
	// back-to-back.
	want := []int64{
		(phase + gap) * hammerWidthInstrPerNs, 0, 0, 0,
		gap * hammerWidthInstrPerNs, 0, 0, 0,
	}
	if !reflect.DeepEqual(gaps, want) {
		t.Fatalf("gaps = %v, want %v", gaps, want)
	}
}

func TestSpecBuildBankSpread(t *testing.T) {
	m := testMapper(t)
	geo := m.Geometry()
	s := AttackSpec{Pattern: KindDoubleSided, Bank: geo.Banks - 1, Victim: 4096, BankSpread: 3}
	src, err := s.Build(m)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	locs := drain(t, m, src, 6)
	wantBanks := []int{geo.Banks - 1, 0, 1, geo.Banks - 1, 0, 1}
	wantRows := []int{4095, 4095, 4095, 4097, 4097, 4097}
	for i, l := range locs {
		if l.Bank != wantBanks[i] || l.Row != wantRows[i] {
			t.Fatalf("access %d = bank %d row %d, want bank %d row %d",
				i, l.Bank, l.Row, wantBanks[i], wantRows[i])
		}
	}
}

func TestSpecCycleDeterminism(t *testing.T) {
	m := testMapper(t)
	for _, spec := range []AttackSpec{
		{Pattern: KindManySided, Victim: 1000, Aggressors: 6},
		{Pattern: KindWave, Victim: 2000, Aggressors: 4, Decoys: 5, DecoyRatio: 2, Burst: 3},
		{Pattern: KindRefreshSync, Victim: 3000, Aggressors: 4, Burst: 6, PhaseNs: 50, GapNs: 900, BankSpread: 2},
	} {
		a, err := spec.Build(m)
		if err != nil {
			t.Fatalf("%s: %v", spec.Pattern, err)
		}
		b, err := spec.Build(m)
		if err != nil {
			t.Fatalf("%s: %v", spec.Pattern, err)
		}
		for i := 0; i < 200; i++ {
			x, _ := a.Next()
			y, _ := b.Next()
			if x != y {
				t.Fatalf("%s: access %d diverged: %+v vs %+v", spec.Pattern, i, x, y)
			}
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	geo := addrmap.Default()
	cases := []struct {
		name string
		spec AttackSpec
	}{
		{"unknown pattern", AttackSpec{Pattern: "sideways", Victim: 100}},
		{"bad sub", AttackSpec{Sub: geo.Subchannels, Victim: 100}},
		{"negative sub", AttackSpec{Sub: -1, Victim: 100}},
		{"bad bank", AttackSpec{Bank: geo.Banks, Victim: 100}},
		{"victim at edge", AttackSpec{Victim: 0}},
		{"victim past end", AttackSpec{Victim: geo.Rows}},
		{"too many aggressors", AttackSpec{Pattern: KindManySided, Victim: 4096, Aggressors: 65}},
		{"too many decoys", AttackSpec{Pattern: KindWave, Victim: 4096, Decoys: geo.Rows}},
		{"huge burst", AttackSpec{Pattern: KindWave, Victim: 4096, Burst: 5000}},
		{"negative phase", AttackSpec{Pattern: KindRefreshSync, Victim: 4096, PhaseNs: -1}},
		{"huge gap", AttackSpec{Pattern: KindRefreshSync, Victim: 4096, GapNs: 2_000_000}},
		{"spread past banks", AttackSpec{Victim: 4096, BankSpread: geo.Banks + 1}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(geo); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestFixedKindsReadOnlyTheirKnobs: a fixed pattern reads only its
// anchor (sub, bank) and hammered row, so knobs it ignores normalize
// away and cannot split the attack store's keyspace.
func TestFixedKindsReadOnlyTheirKnobs(t *testing.T) {
	noisy := AttackSpec{Sub: 1, Bank: 7, Victim: 900, Aggressors: 6, Decoys: 4, DecoyRatio: 2,
		Burst: 9, PhaseNs: 10, GapNs: 20, BankSpread: 3}
	for kind, want := range map[string]AttackSpec{
		KindSingleSided: {Pattern: KindSingleSided, Sub: 1, Bank: 7, Victim: 900},
		KindMultiBank:   {Pattern: KindMultiBank, Victim: 900},
		KindSRQFill:     {Pattern: KindSRQFill, Sub: 1, Bank: 7},
		KindTRRespass:   {Pattern: KindTRRespass, Sub: 1, Bank: 7},
	} {
		s := noisy
		s.Pattern = kind
		if got := s.Normalize(); got != want {
			t.Errorf("%s: normalized %+v, want %+v", kind, got, want)
		}
	}
}

// TestFixedKindsShape: each fixed kind builds the paper's pattern.
func TestFixedKindsShape(t *testing.T) {
	m := testMapper(t)
	geo := m.Geometry()
	build := func(s AttackSpec) []addrmap.Loc {
		t.Helper()
		src, err := s.Build(m)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		return drain(t, m, src, src.(*AttackPattern).Rows())
	}
	ss := build(AttackSpec{Pattern: KindSingleSided, Sub: 1, Bank: 2, Victim: 100})
	if len(ss) != 2 || ss[0].Row != 100 || ss[1].Row != 100+geo.Rows/2 || ss[0].Bank != 2 || ss[0].Sub != 1 {
		t.Errorf("single-sided: %+v", ss)
	}
	mb := build(AttackSpec{Pattern: KindMultiBank, Victim: 500})
	banks := map[int]bool{}
	for _, l := range mb {
		if l.Row != 500 {
			t.Errorf("multi-bank hammered row %d, want 500", l.Row)
		}
		banks[l.GlobalBank(geo)] = true
	}
	if len(mb) != geo.Subchannels*geo.Banks || len(banks) != len(mb) {
		t.Errorf("multi-bank touched %d banks over %d accesses", len(banks), len(mb))
	}
	sf := build(AttackSpec{Pattern: KindSRQFill, Bank: 4})
	if len(sf) != srqFillRows || sf[1].Row != 8 || sf[srqFillRows-1].Row != 8*(srqFillRows-1) {
		t.Errorf("srq-fill: %d rows, stride %d", len(sf), sf[1].Row)
	}
	tr := build(AttackSpec{Pattern: KindTRRespass, Bank: 4})
	if len(tr) != 2*trrespassPairs || tr[0].Row != 100 || tr[1].Row != 102 || tr[2].Row != 110 {
		t.Errorf("trrespass: %+v", tr[:3])
	}
}

func TestParseAttackSpecRoundTrip(t *testing.T) {
	for _, text := range []string{
		"double-sided:sub=0,bank=0,victim=4096,aggr=2,spread=1",
		"many-sided:sub=1,bank=7,victim=512,aggr=9,spread=4",
		"wave:sub=0,bank=2,victim=9000,aggr=4,decoys=16,ratio=3,burst=12,spread=2",
		"refresh-sync:sub=1,bank=30,victim=60000,aggr=8,burst=24,phase=1700,gap=2200,spread=1",
		"single-sided:sub=1,bank=3,victim=77",
		"multi-bank:victim=4096",
		"srq-fill:sub=1,bank=2",
		"trrespass:sub=0,bank=5",
	} {
		s, err := ParseAttackSpec(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		if got := s.String(); got != text {
			t.Errorf("round trip: %q -> %q", text, got)
		}
	}
}

func TestParseAttackSpecDefaults(t *testing.T) {
	s, err := ParseAttackSpec("wave:victim=4096")
	if err != nil {
		t.Fatal(err)
	}
	want := AttackSpec{Pattern: KindWave, Victim: 4096, Aggressors: 2,
		Decoys: 8, DecoyRatio: 1, Burst: 8, BankSpread: 1}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
}

func TestParseAttackSpecRejects(t *testing.T) {
	for _, text := range []string{
		"",
		"sideways",
		"wave:victim",
		"wave:victim=4096,victim=4097",
		"wave:mystery=3",
		"wave:victim=abc",
	} {
		if _, err := ParseAttackSpec(text); err == nil {
			t.Errorf("parse %q: accepted", text)
		}
	}
}

// FuzzParseAttackSpec hardens the knob parser: arbitrary input must
// never panic, and anything it accepts must round-trip through the
// canonical String form.
func FuzzParseAttackSpec(f *testing.F) {
	f.Add("double-sided:sub=0,bank=0,victim=4096,aggr=2,spread=1")
	f.Add("wave:victim=100,decoys=8,ratio=2,burst=4")
	f.Add("refresh-sync:phase=1950,gap=3900")
	f.Add("many-sided")
	f.Add("wave:victim=-5,aggr=70")
	f.Add("multi-bank:sub=1,victim=9,aggr=4")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseAttackSpec(text)
		if err != nil {
			return
		}
		canon := s.String()
		back, err := ParseAttackSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not parse: %v", canon, text, err)
		}
		if back != s {
			t.Fatalf("round trip drifted: %+v -> %q -> %+v", s, canon, back)
		}
	})
}
