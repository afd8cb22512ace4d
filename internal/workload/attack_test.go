package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// build builds a spec against m, failing the test on error.
func build(t *testing.T, m addrmap.Mapper, s AttackSpec) *pattern {
	t.Helper()
	src, err := s.Build(m)
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	return src.(*pattern)
}

func TestManySidedAroundBoundsAndOrder(t *testing.T) {
	m := testMapper(t)
	geo := m.Geometry()

	p := build(t, m, AttackSpec{Pattern: KindManySided, Sub: 1, Bank: 5, Victim: 4096, Aggressors: 4})
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
	if _, err := (AttackSpec{Pattern: KindManySided, Victim: 0}).Build(m); err == nil {
		t.Error("victim at row 0 accepted")
	}
	if _, err := (AttackSpec{Pattern: KindManySided, Victim: geo.Rows - 1}).Build(m); err == nil {
		t.Error("victim at the last row accepted")
	}
	// Fewer than two aggressors normalize to the double-sided pair.
	if got := len(build(t, m, AttackSpec{Pattern: KindManySided, Victim: 4096}).cycle); got != 2 {
		t.Errorf("zero aggressors built a %d-access cycle, want 2", got)
	}
}

func TestWaveShape(t *testing.T) {
	m := testMapper(t)
	const victim, aggr, decoys, ratio, burst = 4096, 2, 3, 2, 2
	p := build(t, m, AttackSpec{Pattern: KindWave, Bank: 3, Victim: victim, Aggressors: aggr,
		Decoys: decoys, DecoyRatio: ratio, Burst: burst})
	cycle := decoys*ratio + aggr*burst
	if len(p.cycle) != cycle {
		t.Fatalf("cycle length = %d, want %d", len(p.cycle), cycle)
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
	p := build(t, m, AttackSpec{Pattern: KindRefreshSync, Victim: 4096, Aggressors: 2, Burst: 4,
		PhaseNs: phase, GapNs: gap})
	var gaps []int64
	for i := 0; i < 8; i++ {
		a, _ := p.Next()
		gaps = append(gaps, a.Gap)
	}
	// First access carries phase+gap once; each later cycle start
	// carries only the inter-burst gap; intra-burst accesses are
	// back-to-back.
	want := []int64{
		(phase + gap) * cpu.DefaultWidth, 0, 0, 0,
		gap * cpu.DefaultWidth, 0, 0, 0,
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
	cycle := func(s AttackSpec) []addrmap.Loc {
		t.Helper()
		p := build(t, m, s)
		return drain(t, m, p, len(p.cycle))
	}
	ss := cycle(AttackSpec{Pattern: KindSingleSided, Sub: 1, Bank: 2, Victim: 100})
	if len(ss) != 2 || ss[0].Row != 100 || ss[1].Row != 100+geo.Rows/2 || ss[0].Bank != 2 || ss[0].Sub != 1 {
		t.Errorf("single-sided: %+v", ss)
	}
	mb := cycle(AttackSpec{Pattern: KindMultiBank, Victim: 500})
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
	sf := cycle(AttackSpec{Pattern: KindSRQFill, Bank: 4})
	if len(sf) != srqFillRows || sf[1].Row != 8 || sf[srqFillRows-1].Row != 8*(srqFillRows-1) {
		t.Errorf("srq-fill: %d rows, stride %d", len(sf), sf[1].Row)
	}
	tr := cycle(AttackSpec{Pattern: KindTRRespass, Bank: 4})
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
// canonical String form. An accepted spec that passes Validate must
// build, and every location of one full cycle must lie inside the
// geometry: Validate is the only range check the builders have.
func FuzzParseAttackSpec(f *testing.F) {
	m, err := addrmap.NewMOP(addrmap.Default(), 4)
	if err != nil {
		f.Fatal(err)
	}
	geo := m.Geometry()
	f.Add("double-sided:sub=0,bank=0,victim=4096,aggr=2,spread=1")
	f.Add("wave:victim=100,decoys=8,ratio=2,burst=4")
	f.Add("refresh-sync:phase=1950,gap=3900")
	f.Add("many-sided")
	f.Add("wave:victim=-5,aggr=70")
	f.Add("multi-bank:sub=1,victim=9,aggr=4")
	f.Add("single-sided:sub=1,bank=31,victim=65535")
	f.Add("wave:sub=1,bank=31,victim=65502,aggr=64,decoys=64,ratio=2,burst=8,spread=32")
	// One step past each geometry bound: Validate must reject these.
	f.Add("single-sided:sub=2,victim=5")
	f.Add("single-sided:bank=32,victim=5")
	f.Add("many-sided:victim=65534,aggr=4")
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
		// Skip specs whose cycle is too long to check quickly (up to
		// 64 decoy sweeps of 4,096 rows on 32 banks).
		if s.Validate(geo) != nil || (s.Decoys*s.DecoyRatio+s.Aggressors*s.Burst)*max(s.BankSpread, 1) > 1<<16 {
			return
		}
		if _, err := s.Build(m); err != nil {
			t.Fatalf("%s passed Validate but did not build: %v", s, err)
		}
		// Check the cycle's locations before they are encoded: an
		// out-of-range bank or subchannel would alias into another
		// in-range address. Bank spread wraps mod the bank count, so
		// the base cycle bounds every replica.
		steps, _ := lookup(s.Pattern).cycle(s, geo)
		for _, st := range steps {
			if l := st.loc; l.Sub < 0 || l.Sub >= geo.Subchannels || l.Bank < 0 || l.Bank >= geo.Banks ||
				l.Row < 0 || l.Row >= geo.Rows {
				t.Fatalf("%s: location %+v is outside the geometry", s, l)
			}
		}
	})
}

// attackStreamDigest hashes every kind's canonical text, normalized
// spec and first 4,096 accesses under three knob vectors, plus the
// Build error text of invalid specs.
func attackStreamDigest(t *testing.T) string {
	t.Helper()
	m := testMapper(t)
	geo := m.Geometry()
	vectors := []AttackSpec{
		{Victim: DefaultVictim},
		{Sub: 1, Bank: 5, Victim: 9000, Aggressors: 5, Decoys: 6, DecoyRatio: 2,
			Burst: 12, PhaseNs: 300, GapNs: 1500, BankSpread: 3},
		{Sub: 1, Bank: geo.Banks - 1, Victim: geo.Rows - 33, Aggressors: 64, Decoys: geo.Rows / 16,
			DecoyRatio: 2, Burst: 4096, PhaseNs: 1_000_000, GapNs: 1_000_000, BankSpread: 8},
	}
	h := sha256.New()
	for _, kind := range Kinds() {
		for _, v := range vectors {
			v.Pattern = kind
			fmt.Fprintf(h, "%s\n%+v\n", v, v.Normalize())
			src, err := v.Build(m)
			if err != nil {
				t.Fatalf("%s: %v", v, err)
			}
			for i := 0; i < 4096; i++ {
				a, ok := src.Next()
				fmt.Fprintf(h, "%d %d %t %t %t\n", a.Gap, a.Addr, a.Dep, a.Write, ok)
			}
		}
	}
	for _, bad := range []AttackSpec{
		{Pattern: "sideways", Victim: DefaultVictim},
		{Pattern: KindDoubleSided},
		{Pattern: KindWave, Victim: DefaultVictim, Decoys: geo.Rows},
		{Pattern: KindRefreshSync, Victim: DefaultVictim, PhaseNs: -1},
		{Pattern: KindManySided, Victim: DefaultVictim, Aggressors: 65},
		{Pattern: KindSingleSided, Bank: 40, Victim: DefaultVictim},
	} {
		_, err := bad.Build(m)
		if err == nil {
			t.Fatalf("%+v: built", bad)
		}
		fmt.Fprintf(h, "%v\n", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAttackStreamGolden pins every kind's text, defaults, access
// stream and error text: a refactor of the pattern builders must not
// move a single byte.
func TestAttackStreamGolden(t *testing.T) {
	const want = "fce494030dfcd63a2c25436f084570193424878927dbe6ff91c95acfeb06da00"
	if got := attackStreamDigest(t); got != want {
		t.Fatalf("attack stream digest = %s, want %s", got, want)
	}
}

// BenchmarkAttackNext measures one access of a refresh-sync pattern
// replicated across four banks, the attack hot path.
func BenchmarkAttackNext(b *testing.B) {
	src, err := AttackSpec{Pattern: KindRefreshSync, Victim: DefaultVictim, Aggressors: 6,
		Burst: 24, PhaseNs: 1700, GapNs: 2200, BankSpread: 4}.Build(testMapper(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Next()
	}
}
