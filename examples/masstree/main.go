// Masstree: a full-system run that exercises the whole stack — a
// synthetic key-value-store access stream (Zipf-ish hot keys, pointer
// chases through tree nodes) is filtered through the shared 8 MB LLC,
// and only the misses reach the DRAM simulator. The example reports the
// LLC hit rate, the resulting miss MPKI (compare with Table 4's 20.3 for
// masstree), and the PRAC vs MoPAC-D slowdown on this workload.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"mopac"
	"mopac/internal/cache"
	"mopac/internal/cpu"
	"mopac/internal/sim"
)

// kvSource generates raw (pre-LLC) accesses of a key-value store:
// a hash-table probe followed by a short dependent pointer chase.
type kvSource struct {
	rng      *rand.Rand
	tableLo  int64
	tableSz  int64
	nodesLo  int64
	nodesSz  int64
	hotKeys  []int64
	chase    int // remaining accesses in the current lookup
	chasePtr int64
}

func newKVSource(seed uint64) *kvSource {
	rng := rand.New(rand.NewPCG(seed, 0x6b76))
	s := &kvSource{
		rng:     rng,
		tableLo: 1 << 30,
		tableSz: 256 << 20,
		nodesLo: 2 << 30,
		nodesSz: 1 << 30,
	}
	// A hot working set: 4K keys get half the lookups; much of it stays
	// LLC-resident, which is what gives masstree its moderate MPKI.
	for i := 0; i < 2048; i++ {
		s.hotKeys = append(s.hotKeys, s.tableLo+int64(rng.Int64N(s.tableSz))&^63)
	}
	return s
}

// next returns one raw access: gap instructions, address, dependency.
func (s *kvSource) next() (gap int64, addr int64, dep bool) {
	if s.chase > 0 {
		s.chase--
		s.chasePtr += int64(s.rng.IntN(8)+1) * 64
		return 20, s.chasePtr, true
	}
	// New lookup: ~200 instructions of key handling, then the probe.
	if s.rng.IntN(2) == 0 {
		addr = s.hotKeys[s.rng.IntN(len(s.hotKeys))]
	} else {
		addr = s.tableLo + int64(s.rng.Int64N(s.tableSz))&^63
	}
	s.chase = 2 + s.rng.IntN(3)
	// The tree's upper levels (a 512 KB region) are hot and
	// LLC-resident; leaves spread over 1 GB and usually miss.
	if s.rng.IntN(2) == 0 {
		s.chasePtr = s.nodesLo + int64(s.rng.Int64N(512<<10))&^63
	} else {
		s.chasePtr = s.nodesLo + int64(s.rng.Int64N(s.nodesSz))&^63
	}
	return 200, addr, false
}

// llcFilter adapts the raw stream to a cpu.Source of LLC misses: hits
// fold into the next miss's instruction gap; dirty evictions emit
// independent writeback accesses.
type llcFilter struct {
	src     *kvSource
	llc     *cache.Cache
	pending []cpu.Access
	raw     int64
	instr   int64
}

func (f *llcFilter) Next() (cpu.Access, bool) {
	if len(f.pending) > 0 {
		a := f.pending[0]
		f.pending = f.pending[1:]
		return a, true
	}
	var gapAcc int64
	for {
		gap, addr, dep := f.src.next()
		f.raw++
		f.instr += gap + 1
		gapAcc += gap
		res := f.llc.Access(addr, f.raw%8 == 0) // ~12% stores
		if res.Hit {
			gapAcc++ // the hit instruction itself
			continue
		}
		if res.Writeback {
			f.pending = append(f.pending, cpu.Access{Gap: 0, Addr: res.WritebackAddr % (32 << 30), Write: true})
		}
		return cpu.Access{Gap: gapAcc, Addr: addr % (32 << 30), Dep: dep}, true
	}
}

func runDesign(d mopac.Design) (ipc float64, hitRate float64, mpki float64) {
	llc, err := cache.New(cache.Default())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := sim.NewSystem(sim.Config{Design: d, TRH: 500, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	const target = 2_000_000
	filter := &llcFilter{src: newKVSource(7), llc: llc}
	core, err := sys.AttachCore(filter, target)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Run(0); err != nil {
		log.Fatal(err)
	}
	st := core.Stats()
	return core.IPC(), llc.Stats().HitRate(), float64(st.Misses) / target * 1000
}

func main() {
	fmt.Println("masstree full-system run: KV lookups -> 8MB LLC -> DRAM")
	baseIPC, hit, mpki := runDesign(mopac.Baseline)
	fmt.Printf("  LLC hit rate:  %.2f\n", hit)
	fmt.Printf("  miss MPKI:     %.1f (Table 4 masstree: 20.3)\n", mpki)
	fmt.Printf("  baseline IPC:  %.2f\n\n", baseIPC)
	for _, d := range []mopac.Design{mopac.PRAC, mopac.MoPACD} {
		ipc, _, _ := runDesign(d)
		fmt.Printf("  %-8s IPC %.2f, slowdown %.2f%%\n", d, ipc, 100*(1-ipc/baseIPC))
	}
}
