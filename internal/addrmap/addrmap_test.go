package addrmap

import (
	"testing"
	"testing/quick"
)

func TestDefaultGeometry(t *testing.T) {
	g := Default()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.TotalBytes(); got != 32<<30 {
		t.Fatalf("capacity = %d, want 32 GiB", got)
	}
	if got := g.LinesPerRow(); got != 128 {
		t.Fatalf("lines per row = %d, want 128", got)
	}
}

func TestGeometryValidateRejects(t *testing.T) {
	cases := []Geometry{
		{Subchannels: 3, Banks: 32, Rows: 64, RowBytes: 8192, LineBytes: 64},
		{Subchannels: 2, Banks: 0, Rows: 64, RowBytes: 8192, LineBytes: 64},
		{Subchannels: 2, Banks: 32, Rows: 64, RowBytes: 64, LineBytes: 128},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: want error for %+v", i, g)
		}
	}
}

func allMappers(t *testing.T) []Mapper {
	t.Helper()
	g := Default()
	mop, err := NewMOP(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []Mapper{mop}
}

func TestRoundTripAllMappers(t *testing.T) {
	for _, m := range allMappers(t) {
		f := func(raw uint64) bool {
			addr := int64(raw % uint64(m.Geometry().TotalBytes()))
			addr &^= int64(m.Geometry().LineBytes - 1)
			loc := m.Decode(addr)
			if loc.Sub < 0 || loc.Sub >= m.Geometry().Subchannels ||
				loc.Bank < 0 || loc.Bank >= m.Geometry().Banks ||
				loc.Row < 0 || loc.Row >= m.Geometry().Rows ||
				loc.Col < 0 || loc.Col >= m.Geometry().LinesPerRow() {
				return false
			}
			return m.Encode(loc) == addr
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestEncodeDecodeRoundTripFromLoc(t *testing.T) {
	for _, m := range allMappers(t) {
		g := m.Geometry()
		f := func(s, b, r, c uint32) bool {
			loc := Loc{
				Sub:  int(s) % g.Subchannels,
				Bank: int(b) % g.Banks,
				Row:  int(r) % g.Rows,
				Col:  int(c) % g.LinesPerRow(),
			}
			return m.Decode(m.Encode(loc)) == loc
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

// MOP-4 must keep exactly 4 consecutive lines in the same row and then
// move to a different bank or subchannel.
func TestMOPSegmentBehaviour(t *testing.T) {
	m, err := NewMOP(Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Decode(0)
	for i := 1; i < 4; i++ {
		loc := m.Decode(int64(i * 64))
		if loc.Sub != base.Sub || loc.Bank != base.Bank || loc.Row != base.Row {
			t.Fatalf("line %d left the segment: %+v vs %+v", i, loc, base)
		}
		if loc.Col != base.Col+i {
			t.Fatalf("line %d col = %d, want %d", i, loc.Col, base.Col+i)
		}
	}
	next := m.Decode(4 * 64)
	if next.Sub == base.Sub && next.Bank == base.Bank {
		t.Fatalf("line 4 stayed in the same bank: %+v", next)
	}
}

// A long sequential stream under MOP-4 must touch every bank equally.
func TestMOPBankBalance(t *testing.T) {
	m, err := NewMOP(Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Geometry()
	counts := make([]int, g.Subchannels*g.Banks)
	lines := 4 * g.Subchannels * g.Banks * 8
	for i := 0; i < lines; i++ {
		loc := m.Decode(int64(i * g.LineBytes))
		counts[loc.GlobalBank(g)]++
	}
	want := lines / (g.Subchannels * g.Banks)
	for b, c := range counts {
		if c != want {
			t.Fatalf("bank %d got %d lines, want %d", b, c, want)
		}
	}
}

func TestNewMOPRejectsBadSegment(t *testing.T) {
	for _, seg := range []int{0, 3, 256} {
		if _, err := NewMOP(Default(), seg); err == nil {
			t.Errorf("NewMOP accepted linesPerSegment=%d", seg)
		}
	}
}

func TestGlobalBank(t *testing.T) {
	g := Default()
	l := Loc{Sub: 1, Bank: 5}
	if got := l.GlobalBank(g); got != 37 {
		t.Fatalf("GlobalBank = %d, want 37", got)
	}
}
