package workload

import (
	"fmt"
	"math"
	"math/rand/v2"

	"mopac/internal/addrmap"
	"mopac/internal/cpu"
)

// Generator produces one core's synthetic LLC-miss stream for a Spec.
// It implements cpu.Source and is infinite.
type Generator struct {
	spec   Spec
	mapper addrmap.Mapper
	// pcg and its rand.Rand wrapper are held by value, saving the
	// stream two separate allocations.
	pcg rand.PCG
	rng rand.Rand

	rowLo, rowSpan int // this core's private row region per bank
	hot            []int

	// The mapper's geometry, copied once: banks across all subchannels,
	// banks per subchannel, and cache lines per row.
	banks, subBanks, linesPerRow int

	cur       addrmap.Loc
	remaining int
	seq       int // streaming sweep position

	gapMean float64
}

// NewGenerator builds a generator for one core. core/cores partition the
// row space so rate-mode copies do not share rows; seed derives the
// core-private RNG stream.
func NewGenerator(spec Spec, mapper addrmap.Mapper, core, cores int, seed uint64) (*Generator, error) {
	if spec.MPKI <= 0 {
		return nil, fmt.Errorf("workload %s: MPKI must be positive", spec.Name)
	}
	if spec.MeanRun < 1 {
		return nil, fmt.Errorf("workload %s: MeanRun must be >= 1", spec.Name)
	}
	if cores <= 0 || core < 0 || core >= cores {
		return nil, fmt.Errorf("workload %s: bad core %d/%d", spec.Name, core, cores)
	}
	g := &Generator{
		spec:    spec,
		mapper:  mapper,
		gapMean: math.Max(0, 1000/spec.MPKI-1),
	}
	g.pcg.Seed(seed, uint64(core)*0x9e3779b97f4a7c15+0x6d6f70)
	g.rng = *rand.New(&g.pcg)
	geo := mapper.Geometry()
	g.banks, g.subBanks, g.linesPerRow = geo.Subchannels*geo.Banks, geo.Banks, geo.LinesPerRow()
	g.rowSpan = geo.Rows / cores
	g.rowLo = core * g.rowSpan
	for i := 0; i < spec.HotRows; i++ {
		g.hot = append(g.hot, g.rowLo+g.rng.IntN(g.rowSpan))
	}
	g.cur.Row = -1
	return g, nil
}

// Spec returns the generator's profile.
func (g *Generator) Spec() Spec { return g.spec }

// geometricRun draws a run length with the configured mean (>= 1).
func (g *Generator) geometricRun() int {
	if g.spec.MeanRun <= 1 {
		return 1
	}
	// Geometric over {1,2,…} with mean MeanRun: continue with
	// probability 1-1/MeanRun.
	cont := 1 - 1/g.spec.MeanRun
	n := 1
	for g.rng.Float64() < cont {
		n++
	}
	return n
}

func (g *Generator) nextRow() {
	switch g.spec.Style {
	case StyleStreaming:
		// Fixed-length runs marching across banks, then advancing the
		// row index: the MOP picture of a sequential stream.
		g.seq++
		gb := g.seq % g.banks
		g.cur.Sub = gb / g.subBanks
		g.cur.Bank = gb % g.subBanks
		g.cur.Row = g.rowLo + (g.seq/g.banks)%g.rowSpan
		g.cur.Col = 0
		g.remaining = int(g.spec.MeanRun)
	default:
		gb := g.rng.IntN(g.banks)
		g.cur.Sub = gb / g.subBanks
		g.cur.Bank = gb % g.subBanks
		if len(g.hot) > 0 && g.rng.Float64() < g.spec.HotFrac {
			g.cur.Row = g.hot[g.rng.IntN(len(g.hot))]
		} else {
			g.cur.Row = g.rowLo + g.rng.IntN(g.rowSpan)
		}
		g.cur.Col = g.rng.IntN(g.linesPerRow)
		g.remaining = g.geometricRun()
	}
}

// Next implements cpu.Source.
func (g *Generator) Next() (cpu.Access, bool) {
	if g.remaining <= 0 || g.cur.Row < 0 {
		g.nextRow()
	}
	loc := g.cur
	g.remaining--
	// Col stays in [0, linesPerRow), so wrapping needs no division.
	if g.cur.Col++; g.cur.Col == g.linesPerRow {
		g.cur.Col = 0
	}

	gap := int64(0)
	if g.gapMean > 0 {
		gap = int64(math.Round(g.rng.ExpFloat64() * g.gapMean))
	}
	write := g.spec.WriteFrac > 0 && g.rng.Float64() < g.spec.WriteFrac
	dep := !write && g.rng.Float64() < g.spec.DepFrac
	return cpu.Access{Gap: gap, Addr: g.mapper.Encode(loc), Dep: dep, Write: write}, true
}
