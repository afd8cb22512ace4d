// Package addrmap maps physical addresses to DRAM locations
// (subchannel, bank, row, column) for the simulated 32 GB DDR5 system.
//
// The paper's configuration (Table 3) is 2 subchannels x 32 banks x 1 rank,
// 64 K rows per bank, 8 KB rows, 64 B cache lines. The default policy is
// MOP — Minimalist Open Page [Kaseridis et al., MICRO'11] — with 4 lines
// per row, which stripes groups of four consecutive cache lines across
// banks so streaming workloads see moderate row-buffer locality without
// letting any one access stream monopolise a row.
package addrmap

import "fmt"

// Geometry describes the DRAM organisation being addressed.
type Geometry struct {
	Subchannels int // independent subchannels (ALERT is subchannel-wide)
	Banks       int // banks per subchannel
	Rows        int // rows per bank
	RowBytes    int // bytes per row
	LineBytes   int // cache-line size
}

// Default returns the paper's Table 3 geometry: 2 subchannels x 32 banks,
// 64 K rows of 8 KB, 64 B lines (32 GB total).
func Default() Geometry {
	return Geometry{Subchannels: 2, Banks: 32, Rows: 1 << 16, RowBytes: 8192, LineBytes: 64}
}

// LinesPerRow returns the number of cache lines in one DRAM row.
func (g Geometry) LinesPerRow() int { return g.RowBytes / g.LineBytes }

// TotalBytes returns the capacity of the system.
func (g Geometry) TotalBytes() int64 {
	return int64(g.Subchannels) * int64(g.Banks) * int64(g.Rows) * int64(g.RowBytes)
}

// Validate reports an error if any dimension is not a positive power of
// two (the mappers rely on power-of-two bit slicing).
func (g Geometry) Validate() error {
	for _, d := range []struct {
		name string
		v    int
	}{
		{"subchannels", g.Subchannels}, {"banks", g.Banks}, {"rows", g.Rows},
		{"rowBytes", g.RowBytes}, {"lineBytes", g.LineBytes},
	} {
		if d.v <= 0 || d.v&(d.v-1) != 0 {
			return fmt.Errorf("addrmap: %s = %d must be a positive power of two", d.name, d.v)
		}
	}
	if g.LineBytes > g.RowBytes {
		return fmt.Errorf("addrmap: line (%d B) larger than row (%d B)", g.LineBytes, g.RowBytes)
	}
	return nil
}

// Loc is a fully decoded DRAM location at cache-line granularity.
type Loc struct {
	Sub  int // subchannel index
	Bank int // bank index within the subchannel
	Row  int // row index within the bank
	Col  int // cache-line index within the row
}

// GlobalBank returns a dense index over all banks in the system,
// convenient for per-bank bookkeeping.
func (l Loc) GlobalBank(g Geometry) int { return l.Sub*g.Banks + l.Bank }

// Mapper translates between physical addresses and DRAM locations.
// Implementations must be bijections over the geometry's capacity.
type Mapper interface {
	// Decode maps a physical byte address to its DRAM location.
	// The low line-offset bits are ignored.
	Decode(addr int64) Loc
	// Encode maps a DRAM location back to the base physical address of
	// its cache line.
	Encode(loc Loc) int64
	// Name identifies the policy in logs and stats.
	Name() string
	// Geometry returns the geometry the mapper addresses.
	Geometry() Geometry
}

func log2(v int) uint {
	var n uint
	for 1<<n < v {
		n++
	}
	return n
}

// MOP implements the Minimalist Open Page mapping with a configurable
// number of consecutive lines per row segment (the paper uses 4): address
// bits above the line offset select, in order, the line-within-segment,
// the subchannel, the bank, the remaining column bits, and the row.
type MOP struct {
	g           Geometry
	linesPerSeg int
	lineBits    uint
	segBits     uint
	subBits     uint
	bankBits    uint
	colHiBits   uint
	rowBits     uint
}

// NewMOP returns a MOP mapper. linesPerSegment must be a power of two
// between 1 and the lines per row.
func NewMOP(g Geometry, linesPerSegment int) (*MOP, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	lpr := g.LinesPerRow()
	if linesPerSegment <= 0 || linesPerSegment&(linesPerSegment-1) != 0 || linesPerSegment > lpr {
		return nil, fmt.Errorf("addrmap: linesPerSegment = %d must be a power of two in [1,%d]", linesPerSegment, lpr)
	}
	return &MOP{
		g:           g,
		linesPerSeg: linesPerSegment,
		lineBits:    log2(g.LineBytes),
		segBits:     log2(linesPerSegment),
		subBits:     log2(g.Subchannels),
		bankBits:    log2(g.Banks),
		colHiBits:   log2(lpr / linesPerSegment),
		rowBits:     log2(g.Rows),
	}, nil
}

// Name implements Mapper.
func (m *MOP) Name() string { return fmt.Sprintf("MOP-%d", m.linesPerSeg) }

// Geometry implements Mapper.
func (m *MOP) Geometry() Geometry { return m.g }

// Decode implements Mapper.
func (m *MOP) Decode(addr int64) Loc {
	v := addr >> m.lineBits
	take := func(bits uint) int64 {
		r := v & (1<<bits - 1)
		v >>= bits
		return r
	}
	colLo := take(m.segBits)
	sub := take(m.subBits)
	bank := take(m.bankBits)
	colHi := take(m.colHiBits)
	row := take(m.rowBits)
	return Loc{
		Sub:  int(sub),
		Bank: int(bank),
		Row:  int(row),
		Col:  int(colHi<<m.segBits | colLo),
	}
}

// Encode implements Mapper.
func (m *MOP) Encode(loc Loc) int64 {
	colLo := int64(loc.Col) & (1<<m.segBits - 1)
	colHi := int64(loc.Col) >> m.segBits
	v := int64(loc.Row)
	v = v<<m.colHiBits | colHi
	v = v<<m.bankBits | int64(loc.Bank)
	v = v<<m.subBits | int64(loc.Sub)
	v = v<<m.segBits | colLo
	return v << m.lineBits
}
