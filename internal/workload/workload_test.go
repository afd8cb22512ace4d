package workload

import (
	"math"
	"testing"

	"mopac/internal/addrmap"
)

func testMapper(t testing.TB) addrmap.Mapper {
	t.Helper()
	m, err := addrmap.NewMOP(addrmap.Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllWorkloadsResolvable(t *testing.T) {
	names := All()
	if len(names) != 23 {
		t.Fatalf("All() = %d names, want 23 (12 SPEC + 6 mixes + masstree + 4 STREAM)", len(names))
	}
	for _, n := range names {
		if _, err := Published(n); err != nil {
			t.Errorf("Published(%s): %v", n, err)
		}
		specs, err := PerCoreSpecs(n, 8)
		if err != nil {
			t.Errorf("PerCoreSpecs(%s): %v", n, err)
			continue
		}
		if len(specs) != 8 {
			t.Errorf("%s: %d specs", n, len(specs))
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Lookup("mix1"); err == nil {
		t.Fatal("mixes must not resolve via Lookup")
	}
	if !IsMix("mix3") || IsMix("xz") {
		t.Fatal("IsMix wrong")
	}
}

func TestRateModeReplicates(t *testing.T) {
	specs, err := PerCoreSpecs("mcf", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Name != "mcf" {
			t.Fatalf("rate mode must replicate: %v", s.Name)
		}
	}
	mix, err := PerCoreSpecs("mix1", 8)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, s := range mix {
		distinct[s.Name] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("mix1 should blend benchmarks, got %v", distinct)
	}
}

func TestGeneratorGapMatchesMPKI(t *testing.T) {
	m := testMapper(t)
	for _, name := range []string{"bwaves", "xz", "cam4"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(spec, m, 0, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50_000
		var instr int64
		for i := 0; i < n; i++ {
			a, _ := g.Next()
			instr += a.Gap + 1
		}
		mpki := float64(n) / float64(instr) * 1000
		if math.Abs(mpki-spec.MPKI)/spec.MPKI > 0.05 {
			t.Errorf("%s: generated MPKI %.1f, want %.1f", name, mpki, spec.MPKI)
		}
	}
}

func TestGeneratorRunLengths(t *testing.T) {
	m := testMapper(t)
	spec, err := Lookup("parest") // MeanRun 2.8
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(spec, m, 0, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Count the mean number of consecutive accesses to the same row.
	var runs, accesses int
	last := addrmap.Loc{Row: -1}
	for i := 0; i < 40_000; i++ {
		a, _ := g.Next()
		loc := m.Decode(a.Addr)
		if loc.Row != last.Row || loc.Bank != last.Bank || loc.Sub != last.Sub {
			runs++
		}
		last = loc
		accesses++
	}
	mean := float64(accesses) / float64(runs)
	if math.Abs(mean-spec.MeanRun)/spec.MeanRun > 0.1 {
		t.Fatalf("mean run %.2f, want %.2f", mean, spec.MeanRun)
	}
}

func TestGeneratorDepFraction(t *testing.T) {
	m := testMapper(t)
	spec, _ := Lookup("mcf")
	g, err := NewGenerator(spec, m, 0, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	dep := 0
	const n = 50_000
	for i := 0; i < n; i++ {
		a, _ := g.Next()
		if a.Dep {
			dep++
		}
	}
	frac := float64(dep) / n
	if math.Abs(frac-spec.DepFrac) > 0.02 {
		t.Fatalf("dep fraction %.3f, want %.2f", frac, spec.DepFrac)
	}
}

func TestCoreRegionsDisjoint(t *testing.T) {
	m := testMapper(t)
	spec, _ := Lookup("bwaves")
	seen := map[int]map[int]bool{}
	for core := 0; core < 4; core++ {
		g, err := NewGenerator(spec, m, core, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[int]bool{}
		for i := 0; i < 5000; i++ {
			a, _ := g.Next()
			rows[m.Decode(a.Addr).Row] = true
		}
		for r := range rows {
			for other, or := range seen {
				if or[r] {
					t.Fatalf("row %d used by cores %d and %d", r, other, core)
				}
			}
		}
		seen[core] = rows
	}
}

func TestStreamingSweepsBanks(t *testing.T) {
	m := testMapper(t)
	spec, _ := Lookup("add")
	g, err := NewGenerator(spec, m, 0, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < 64*4*4; i++ {
		a, _ := g.Next()
		loc := m.Decode(a.Addr)
		counts[loc.GlobalBank(m.Geometry())]++
		if a.Dep {
			t.Fatal("stream accesses must be independent")
		}
	}
	if len(counts) != 64 {
		t.Fatalf("stream touched %d banks, want 64", len(counts))
	}
}

func TestHotRowsConcentrateAccesses(t *testing.T) {
	m := testMapper(t)
	spec, _ := Lookup("xz") // HotFrac 0.30 over 26 hot rows
	g, err := NewGenerator(spec, m, 0, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	rowCount := map[int]int{}
	const n = 60_000
	for i := 0; i < n; i++ {
		a, _ := g.Next()
		rowCount[m.Decode(a.Addr).Row]++
	}
	hot := 0
	for _, c := range rowCount {
		if c > n/1000 {
			hot += c
		}
	}
	frac := float64(hot) / n
	if frac < 0.2 || frac > 0.45 {
		t.Fatalf("hot-row access fraction %.2f, want ~0.30", frac)
	}
}

func TestGeneratorValidation(t *testing.T) {
	m := testMapper(t)
	bad := Spec{Name: "bad", MPKI: 0, MeanRun: 1}
	if _, err := NewGenerator(bad, m, 0, 8, 1); err == nil {
		t.Fatal("zero MPKI accepted")
	}
	bad = Spec{Name: "bad", MPKI: 1, MeanRun: 0.5}
	if _, err := NewGenerator(bad, m, 0, 8, 1); err == nil {
		t.Fatal("MeanRun < 1 accepted")
	}
	good, _ := Lookup("mcf")
	if _, err := NewGenerator(good, m, 9, 8, 1); err == nil {
		t.Fatal("core out of range accepted")
	}
}

func TestAttackPatterns(t *testing.T) {
	m := testMapper(t)
	geo := m.Geometry()
	ds := build(t, m, AttackSpec{Bank: 3, Victim: 100})
	a1, _ := ds.Next()
	a2, _ := ds.Next()
	l1, l2 := m.Decode(a1.Addr), m.Decode(a2.Addr)
	if l1.Row != 99 || l2.Row != 101 || l1.Bank != 3 || l2.Bank != 3 {
		t.Fatalf("double-sided rows %d/%d", l1.Row, l2.Row)
	}
	if !a1.Dep || a1.Gap != 0 {
		t.Fatal("attack accesses must be back-to-back and serialised")
	}

	mb := build(t, m, AttackSpec{Pattern: KindMultiBank, Victim: 500})
	banks := map[int]bool{}
	for i := 0; i < 64; i++ {
		a, _ := mb.Next()
		banks[m.Decode(a.Addr).GlobalBank(geo)] = true
	}
	if len(banks) != 64 {
		t.Fatalf("multi-bank touched %d banks", len(banks))
	}

	sf := build(t, m, AttackSpec{Pattern: KindSRQFill})
	rows := map[int]bool{}
	for i := 0; i < srqFillRows; i++ {
		a, _ := sf.Next()
		rows[m.Decode(a.Addr).Row] = true
	}
	if len(rows) != srqFillRows {
		t.Fatalf("SRQ-fill used %d distinct rows", len(rows))
	}

	ms := build(t, m, AttackSpec{Pattern: KindTRRespass})
	if len(ms.cycle) != 2*trrespassPairs {
		t.Fatalf("trrespass rows = %d, want %d", len(ms.cycle), 2*trrespassPairs)
	}
}

// TestAttackValidation: specs whose locations would leave the
// geometry fail to build.
func TestAttackValidation(t *testing.T) {
	m := testMapper(t)
	geo := m.Geometry()
	for name, s := range map[string]AttackSpec{
		"victim 0":          {Pattern: KindDoubleSided, Victim: 0},
		"bank past the end": {Pattern: KindSingleSided, Bank: 1000, Victim: 5},
		"sub past the end":  {Pattern: KindSRQFill, Sub: geo.Subchannels},
		"row past the end":  {Pattern: KindMultiBank, Victim: geo.Rows},
		"negative row":      {Pattern: KindSingleSided, Victim: -1},
	} {
		if _, err := s.Build(m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteFraction(t *testing.T) {
	m := testMapper(t)
	spec := Spec{Name: "writer", MPKI: 20, MeanRun: 2, WriteFrac: 0.3}
	g, err := NewGenerator(spec, m, 0, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	const n = 40_000
	for i := 0; i < n; i++ {
		a, _ := g.Next()
		if a.Write {
			writes++
			if a.Dep {
				t.Fatal("stores must not carry load dependencies")
			}
		}
	}
	frac := float64(writes) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("write fraction %.3f, want ~0.30", frac)
	}
}

func TestCalibratedWorkloadsAreReadOnly(t *testing.T) {
	for _, name := range All() {
		if IsMix(name) {
			continue
		}
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.WriteFrac != 0 {
			t.Errorf("%s: calibrated workloads must stay read-only", name)
		}
	}
}

// BenchmarkGeneratorNext measures one synthetic miss from a calibrated
// Table 4 generator (bwaves, core 0 of 8).
func BenchmarkGeneratorNext(b *testing.B) {
	spec, err := Lookup("bwaves")
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGenerator(spec, testMapper(b), 0, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
