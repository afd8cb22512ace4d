// Package sim composes the full system — cores, address mapping, two
// subchannel memory controllers, DRAM devices with mitigation guards,
// and the security oracle — and runs the paper's experiments.
//
// Performance runs report per-core IPC and throughput-normalised
// slowdown versus the unprotected baseline. The paper measures weighted
// speedup; in rate mode (identical benchmarks on all cores) weighted
// speedup reduces to the IPC-sum ratio used here, and for the six mixes
// the difference is a fixed per-core weighting that does not change who
// wins or by how much (documented in DESIGN.md).
package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"mopac/internal/addrmap"
	"mopac/internal/cpu"
	"mopac/internal/dram"
	"mopac/internal/event"
	"mopac/internal/mc"
	"mopac/internal/mitigation"
	"mopac/internal/oracle"
	"mopac/internal/security"
	"mopac/internal/stats"
	"mopac/internal/telemetry"
	"mopac/internal/timing"
	"mopac/internal/workload"
)

// Design selects the memory-system protection configuration.
type Design int

// The evaluated designs.
const (
	// DesignBaseline is unprotected DDR5 with baseline timings.
	DesignBaseline Design = iota
	// DesignPRAC is PRAC+ABO with MOAT and inflated timings.
	DesignPRAC
	// DesignMoPACC is memory-controller-side MoPAC.
	DesignMoPACC
	// DesignMoPACD is in-DRAM MoPAC.
	DesignMoPACD
	// DesignTRR is the broken DDR4-era tracker (baseline timings).
	DesignTRR
	// DesignMINT is the low-cost MINT tracker of §9.2 (baseline
	// timings, one mitigation per REF, no ABO).
	DesignMINT
	// DesignPrIDE is the low-cost PrIDE tracker of §9.2.
	DesignPrIDE
	// DesignChronos is the §9.1 Chronos alternative: counter updates in
	// a dedicated subarray (baseline row timings, doubled tFAW).
	DesignChronos
	// DesignQPRAC is the §9.1 QPRAC alternative as a first-class design:
	// PRAC timings with the priority-queue mitigation service instead of
	// MOAT. Identical to DesignPRAC with Config.QPRAC set; having its
	// own name makes it targetable by every CLI and the attack search.
	DesignQPRAC
)

// String implements fmt.Stringer.
func (d Design) String() string {
	switch d {
	case DesignBaseline:
		return "Baseline"
	case DesignPRAC:
		return "PRAC"
	case DesignMoPACC:
		return "MoPAC-C"
	case DesignMoPACD:
		return "MoPAC-D"
	case DesignTRR:
		return "TRR"
	case DesignMINT:
		return "MINT"
	case DesignPrIDE:
		return "PrIDE"
	case DesignChronos:
		return "Chronos"
	case DesignQPRAC:
		return "QPRAC"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// Config describes one simulation run.
type Config struct {
	Design Design
	// TRH is the Rowhammer threshold the design must tolerate (ignored
	// by the baseline).
	TRH int
	// Workload names a Table 4 workload; Cores and InstrPerCore size
	// the run (the paper uses 8 cores x 100 M instructions; scaled-down
	// runs preserve the relative results).
	Workload     string
	Cores        int
	InstrPerCore int64
	// NUP enables §8 non-uniform sampling (MoPAC-D).
	NUP bool
	// RowPress enables the Appendix A defences (both variants).
	RowPress bool
	// Chips replicates MoPAC-D state per chip (default 4, Appendix B).
	Chips int
	// QPRAC selects the priority-queue PRAC backend (§9.1, QPRAC)
	// instead of MOAT for DesignPRAC.
	QPRAC bool
	// PInvOverride, when > 0, overrides the TRH-derived update
	// probability for MoPAC designs with p = 1/PInvOverride (the §5.4
	// p-selection sweep).
	PInvOverride int
	// RFMLevel is the number of RFMs per ABO episode (JEDEC machine
	// register; the paper uses 1 for a 350 ns stall).
	RFMLevel int
	// MaxPostponedREFs lets the controller postpone up to 4 periodic
	// refreshes under demand traffic (0 = strict tREFI cadence).
	MaxPostponedREFs int
	// SRQSize and DrainOnREF override the derived MoPAC-D parameters
	// when set (Fig 12/13 sweeps).
	SRQSize    int
	DrainOnREF *int
	// Policy and TimeoutNs select the row-closure policy (Appendix C).
	Policy    mc.PagePolicy
	TimeoutNs int64
	// Seed makes the run reproducible.
	Seed uint64
	// TrackSecurity attaches the oracle (memory-heavy on long runs).
	TrackSecurity bool
	// CommandLogDepth enables per-device command logging for offline
	// protocol checking (dram.CheckProtocol).
	CommandLogDepth int
	// Trace attaches a telemetry tracer: every subchannel registers
	// device, controller, and mitigation tracks, and every core its own.
	// Probes are purely observational, so a traced run is
	// simulation-identical to an untraced one. Excluded from Hash() —
	// tracing never changes results, so cache keys ignore it — and from
	// the persisted result-store encoding for the same reason.
	Trace *telemetry.Tracer `json:"-"`
	// Domains >= 2 shards the run across parallel event domains: one
	// per subchannel (controller + DRAM device + guards) plus one for
	// the core complex, synchronised in conservative epochs of width
	// FrontendLatencyNs (see internal/event.Domains and DESIGN.md §4e).
	// The sharded schedule is byte-identical to the serial engine's, so
	// Domains is excluded from Hash() and from the persisted encoding
	// like Trace: it changes wall time, never results. 0 or 1 selects
	// the serial engine. The oracle shards with the domains — one shard
	// per subchannel, merged deterministically at collection — so
	// TrackSecurity runs parallelise too. Serial is forced — the
	// setting is ignored — only for coreless systems (external drivers
	// step the Engine manually).
	Domains int `json:"-"`
	// Speculate switches the sharded engine to speculative
	// (Time-Warp-lite) epochs: each domain checkpoints at the barrier
	// and keeps executing optimistically while the coordinator sizes
	// the next epoch from worker-published state, rolling back only
	// the domains an injected cross-domain message actually reaches
	// (see internal/event.Domains.EnableSpeculation and DESIGN.md
	// §4e). Like Domains it changes wall time, never results — the
	// speculative schedule is byte-identical to the serial engine's —
	// so it is likewise excluded from Hash() and the persisted
	// encoding. Ignored unless the run shards (Domains >= 2 with a
	// workload).
	Speculate bool `json:"-"`
}

func (c *Config) setDefaults() {
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.InstrPerCore == 0 {
		c.InstrPerCore = 1_000_000
	}
	if c.Chips == 0 {
		c.Chips = 4
	}
	if c.TRH == 0 {
		c.TRH = 500
	}
}

// Result reports one finished run. Every field except Oracle survives
// a JSON round-trip bit-exactly (Go's float encoding is shortest-
// round-trip), which is what lets the planner's on-disk result store
// reproduce byte-identical tables from persisted runs; oracle state is
// process-only, so runs that need it bypass the store (see plan.go).
type Result struct {
	Config   Config
	TimeNs   int64
	IPC      []float64
	SumIPC   float64
	MC       mc.Stats
	Dev      dram.Stats
	Oracle   *oracle.Oracle `json:"-"`
	Workload WorkloadStatsResult
	// Latency is the read-latency distribution across subchannels;
	// PRAC's penalty concentrates in its tail.
	Latency stats.Summary
	// SRQ aggregates MoPAC-D engine stats over banks and chips.
	SRQ mitigation.MoPACDStats
}

// RBHR returns the measured row-buffer hit rate.
func (r Result) RBHR() float64 {
	if r.MC.Reads == 0 {
		return 0
	}
	return float64(r.MC.RowHits) / float64(r.MC.Reads)
}

// CounterUpdatesPer100ACTs returns the energy-proxy metric behind the
// paper's key insight: the fraction of activations that pay for a PRAC
// counter read-modify-write. PRAC updates on every activation; MoPAC-C
// on ~100p of 100; MoPAC-D defers updates to ABO/REF (counted from the
// guard drains, per chip).
func (r Result) CounterUpdatesPer100ACTs() float64 {
	if r.Dev.Activates == 0 {
		return 0
	}
	switch r.Config.Design {
	case DesignMoPACD:
		chips := int64(r.Config.Chips)
		if chips <= 0 {
			chips = 1
		}
		return float64(r.SRQ.CounterUpdates) / float64(chips) / float64(r.Dev.Activates) * 100
	default:
		return float64(r.Dev.PrechargesCU) / float64(r.Dev.Activates) * 100
	}
}

// ABOStallFraction returns the share of run time spent in ALERT-induced
// stalls.
func (r Result) ABOStallFraction() float64 {
	if r.TimeNs == 0 {
		return 0
	}
	return float64(r.MC.StallNs) / float64(r.TimeNs) / 2 // two subchannels
}

// SRQInsertionsPer100ACTs returns the Table 12 metric.
func (r Result) SRQInsertionsPer100ACTs() float64 {
	if r.SRQ.Activations == 0 {
		return 0
	}
	return float64(r.SRQ.Insertions+r.SRQ.Coalesced) / float64(r.SRQ.Activations) * 100
}

// System is a fully wired simulated machine. Exactly one of eng and
// dom is non-nil: eng is the serial single-queue engine, dom the
// sharded parallel engine selected by Config.Domains.
type System struct {
	cfg       Config
	eng       *event.Engine  // serial engine (nil in domain mode)
	dom       *event.Domains // sharded engine (nil in serial mode)
	coreDomID int32          // core-complex domain index in dom
	coreSched event.Sched    // engine handle cores schedule on
	mapper    addrmap.Mapper
	devs      []*dram.Device
	ctrls     []*mc.Controller
	cores     []*cpu.Core
	// oracles holds one security-oracle shard per subchannel. Like
	// wstats, each shard is only written by its subchannel's clock
	// domain (the device observer chain), so TrackSecurity runs shard
	// across event domains without locking; Oracle()/collect() merge
	// the disjoint shards deterministically.
	oracles []*oracle.Oracle
	wstats  []*WorkloadStats // one shard per subchannel (domain-local)
	tparams   timing.Params
	freeTxn   []*txn // recycled completion contexts (core-domain-owned)
	running   int    // cores that have not yet retired their target

	// Adaptive-horizon state (see horizonBound): per-subchannel queues
	// of pending frontend-hop delivery instants, and the controllers'
	// minimum issue-to-completion gap. arrQ tracks core->controller
	// arrival hops (written by the core domain in submit); delivQ
	// tracks controller->core completion hops (written by each
	// subchannel's domain in txnComplete/txnCompleteDom). Each queue is
	// only ever appended to by the one domain that owns it and drained
	// at epoch barriers, so sharded runs need no locking.
	arrQ   []timeQ
	delivQ []timeQ
	gap    int64

	// Speculation state (Config.Speculate; see speculate.go). slots is
	// the worker-published horizon input; specArmed marks an in-flight
	// core-domain stretch (txnDeliver then defers recycling onto
	// specTxns); coreBuf quarantines core-view telemetry when tracing.
	specOn    bool
	specArmed bool
	specTxns  []*txn
	slots     specSlots
	coreBuf   *telemetry.SpecBuffer
}

// timeQ is a FIFO of future event instants. Hop events are scheduled
// in non-decreasing time order by a single clock domain, so a ring with
// a head cursor suffices; storage is reclaimed whenever the head
// catches up, keeping the steady state allocation-free.
type timeQ struct {
	q    []int64
	head int
}

func (t *timeQ) push(at int64) {
	if t.head == len(t.q) {
		t.q = t.q[:0]
		t.head = 0
	}
	t.q = append(t.q, at)
}

// next drops entries at or before the committed time now (their events
// have fired) and returns the earliest pending instant, or mc.Never.
func (t *timeQ) next(now int64) int64 {
	for t.head < len(t.q) && t.q[t.head] <= now {
		t.head++
	}
	if t.head == len(t.q) {
		return mc.Never
	}
	return t.q[t.head]
}

// nowNs returns the committed simulation time of whichever engine the
// system runs on.
func (s *System) nowNs() int64 {
	if s.dom != nil {
		return s.dom.Now()
	}
	return s.eng.Now()
}

// designParams derives the security parameters and timing/controller
// configuration for a design.
func designParams(c Config) (security.Params, timing.Params, mc.Config, error) {
	mcCfg := mc.Config{
		Policy:           c.Policy,
		TimeoutNs:        c.TimeoutNs,
		RFMLevel:         c.RFMLevel,
		MaxPostponedREFs: c.MaxPostponedREFs,
		Seed:             c.Seed ^ 0xc0ffee,
	}
	switch c.Design {
	case DesignBaseline:
		tp := timing.DDR5()
		mcCfg.Timing = tp
		return security.Params{}, tp, mcCfg, nil
	case DesignPRAC:
		tp := timing.PRAC()
		mcCfg.Timing = tp
		mcCfg.CUAlways = true
		return security.DeriveWithP(security.VariantPRAC, c.TRH, 1), tp, mcCfg, nil
	case DesignMoPACC:
		tp := timing.MoPACC()
		params := security.DeriveMoPACC(c.TRH)
		if c.PInvOverride > 0 {
			params = security.DeriveWithP(security.VariantMoPACC, c.TRH, 1/float64(c.PInvOverride))
		}
		if c.RowPress {
			params = security.DeriveRowPress(security.VariantMoPACC, c.TRH)
			mcCfg.RowPressCapNs = security.RowPressMaxOpenNs
		}
		mcCfg.Timing = tp
		mcCfg.CUProbInv = params.UpdateWeight()
		return params, tp, mcCfg, nil
	case DesignMoPACD:
		tp := timing.MoPACD()
		params := security.DeriveMoPACD(c.TRH)
		if c.PInvOverride > 0 {
			params = security.DeriveWithP(security.VariantMoPACD, c.TRH, 1/float64(c.PInvOverride))
		}
		switch {
		case c.RowPress:
			params = security.DeriveRowPress(security.VariantMoPACD, c.TRH)
		case c.NUP:
			params = security.DeriveNUP(c.TRH)
		}
		mcCfg.Timing = tp
		return params, tp, mcCfg, nil
	case DesignChronos:
		// Chronos keeps deterministic counting (MOAT semantics) with
		// baseline row timings; the doubled tFAW carries the cost.
		tp := timing.Chronos()
		mcCfg.Timing = tp
		mcCfg.CUAlways = true
		return security.DeriveWithP(security.VariantPRAC, c.TRH, 1), tp, mcCfg, nil
	case DesignQPRAC:
		// QPRAC shares PRAC's timings and derived parameters; only the
		// in-DRAM mitigation engine differs (see makeGuard).
		tp := timing.PRAC()
		mcCfg.Timing = tp
		mcCfg.CUAlways = true
		return security.DeriveWithP(security.VariantPRAC, c.TRH, 1), tp, mcCfg, nil
	case DesignTRR, DesignMINT, DesignPrIDE:
		// Legacy and low-cost trackers run on baseline timings and
		// mitigate in the REF shadow only.
		tp := timing.DDR5()
		mcCfg.Timing = tp
		return security.Params{}, tp, mcCfg, nil
	default:
		return security.Params{}, timing.Params{}, mc.Config{}, fmt.Errorf("sim: unknown design %d", int(c.Design))
	}
}

// NewSystem wires a system for the configuration.
func NewSystem(c Config) (*System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.setDefaults()
	params, tparams, mcCfg, err := designParams(c)
	if err != nil {
		return nil, err
	}
	geo := addrmap.Default()
	mapper, err := addrmap.NewMOP(geo, 4)
	if err != nil {
		return nil, err
	}

	s := &System{cfg: c, mapper: mapper, tparams: tparams}
	// Domain partition: one event domain per subchannel plus one for
	// the core complex. Serial is forced only for coreless systems
	// (attack drivers and trace replay advance the serial Engine by
	// hand); oracle-tracked runs shard like any other — the oracle
	// itself shards per subchannel.
	subSched := make([]event.Sched, geo.Subchannels)
	// The core-complex index is meaningful in both modes: serial hops
	// carry it as their source tag so the serial tie-break matches the
	// sharded barrier merge.
	s.coreDomID = int32(geo.Subchannels)
	s.arrQ = make([]timeQ, geo.Subchannels)
	s.delivQ = make([]timeQ, geo.Subchannels)
	if c.Domains >= 2 && c.Workload != "" {
		s.dom = event.NewDomains(geo.Subchannels+1, FrontendLatencyNs)
		for i := range subSched {
			subSched[i] = s.dom.Domain(i)
		}
		s.coreSched = s.dom.Domain(geo.Subchannels)
		s.dom.SetHorizon(s.horizonBound)
		if c.Speculate {
			s.specOn = true
			s.slots.arr = make([]int64, geo.Subchannels)
			s.slots.send = make([]int64, geo.Subchannels)
			s.slots.deliv = make([]int64, geo.Subchannels)
			s.slots.tick = make([]int64, geo.Subchannels)
			s.dom.EnableSpeculation(s.specPublish, s.specHorizonBound)
			coreDom := s.dom.Domain(geo.Subchannels)
			coreDom.Attach(&specCoreState{s: s})
			if c.Trace != nil {
				s.coreBuf = telemetry.NewSpecBuffer(c.Trace)
				coreDom.Attach(s.coreBuf)
			}
		}
	} else {
		s.eng = event.NewEngine()
		for i := range subSched {
			subSched[i] = s.eng
		}
		s.coreSched = s.eng
	}
	if c.TrackSecurity {
		// One oracle shard per subchannel. The subchannels' bank
		// namespaces are disjoint (subObserver offsets bank by
		// sub*Banks), so each shard sees exactly the stream a single
		// oracle would see restricted to that subchannel, and the merge
		// at collection is exact in both serial and sharded modes.
		s.oracles = make([]*oracle.Oracle, geo.Subchannels)
		for i := range s.oracles {
			s.oracles[i] = oracle.New(c.TRH)
		}
	}

	chips := 1
	if c.Design == DesignMoPACD {
		chips = c.Chips
	}
	// makeGuard builds one subchannel's guard factory; gtrc is that
	// subchannel's mitigation probe view (nil when tracing is off). Guard
	// seeds derive only from (chip, bank), so building the factory per
	// subchannel leaves every RNG stream exactly as a shared factory would.
	makeGuard := func(gtrc *telemetry.GuardTracks) (func(chip, bank int) dram.BankGuard, error) {
		switch c.Design {
		case DesignChronos, DesignMoPACC:
			return mitigation.NewFactory(mitigation.Options{
				Params: params, Rows: geo.Rows, Seed: c.Seed, Trace: gtrc,
			})
		case DesignPRAC, DesignQPRAC:
			if c.QPRAC || c.Design == DesignQPRAC {
				qcfg := mitigation.QPRACFromParams(params, geo.Rows)
				return func(chip, bank int) dram.BankGuard {
					return mitigation.NewQPRAC(qcfg)
				}, nil
			}
			return mitigation.NewFactory(mitigation.Options{
				Params: params, Rows: geo.Rows, Seed: c.Seed, Trace: gtrc,
			})
		case DesignTRR:
			return func(chip, bank int) dram.BankGuard {
				return mitigation.NewTRR(mitigation.TRRConfig{Entries: 16, MitigatePerREFs: 4, Rows: geo.Rows})
			}, nil
		case DesignMINT:
			seed := c.Seed
			return func(chip, bank int) dram.BankGuard {
				return mitigation.NewMINT(mitigation.MINTConfig{
					Window: 84, Rows: geo.Rows,
					Seed: seed ^ uint64(bank)<<8 ^ uint64(chip)<<32 ^ 0x6d1,
				})
			}, nil
		case DesignPrIDE:
			seed := c.Seed
			return func(chip, bank int) dram.BankGuard {
				return mitigation.NewPrIDE(mitigation.PrIDEConfig{
					InvP: 84, QueueSize: 2, Rows: geo.Rows,
					Seed: seed ^ uint64(bank)<<8 ^ uint64(chip)<<32 ^ 0x9d1,
				})
			}, nil
		case DesignMoPACD:
			return mitigation.NewFactory(mitigation.Options{
				Params:     params,
				Rows:       geo.Rows,
				NUP:        c.NUP,
				RowPress:   c.RowPress,
				Seed:       c.Seed,
				SRQSize:    c.SRQSize,
				DrainOnREF: c.DrainOnREF,
				Trace:      gtrc,
			})
		default:
			return nil, nil
		}
	}

	for sub := 0; sub < geo.Subchannels; sub++ {
		var devTrc *telemetry.DeviceTracks
		var mcTrc *telemetry.MCTracks
		var gTrc *telemetry.GuardTracks
		if c.Trace != nil {
			devTrc = c.Trace.Device(fmt.Sprintf("sub%d", sub), geo.Banks)
			mcTrc = c.Trace.MC(fmt.Sprintf("mc%d", sub))
			gTrc = c.Trace.Mitigation(fmt.Sprintf("mit%d", sub))
		}
		ng, gerr := makeGuard(gTrc)
		if gerr != nil {
			return nil, gerr
		}
		// Workload stats shard per subchannel so activation counting
		// stays domain-local; collect() merges the disjoint shards.
		shard := NewWorkloadStats(geo, tparams)
		s.wstats = append(s.wstats, shard)
		var obs dram.Observer = shard
		if s.oracles != nil {
			obs = MultiObserver(shard, s.oracles[sub])
		}
		// Under speculation the stats/oracle sinks are fed through a
		// journal (commit replays, rollback discards) instead of being
		// checkpointed — their aggregate state is too big to snapshot
		// per stretch.
		var specObs *specObserver
		if s.specOn {
			specObs = &specObserver{inner: obs}
			obs = specObs
		}
		dev, derr := dram.NewDevice(dram.Config{
			Banks:    geo.Banks,
			Rows:     geo.Rows,
			Chips:    chips,
			RFMLevel: c.RFMLevel,
			LogDepth: c.CommandLogDepth,
			Timing:   tparams,
			NewGuard: ng,
			Observer: subObserver{obs, sub, geo.Banks},
			Trace:    devTrc,
		})
		if derr != nil {
			return nil, derr
		}
		subCfg := mcCfg
		subCfg.Trace = mcTrc
		ctl, cerr := mc.New(subSched[sub], dev, subCfg)
		if cerr != nil {
			return nil, cerr
		}
		s.devs = append(s.devs, dev)
		s.ctrls = append(s.ctrls, ctl)
		if s.specOn {
			d := s.dom.Domain(sub)
			d.Attach(ctl)
			d.Attach(dev)
			d.Attach(specObs)
			d.Attach(&specSubState{s: s, sub: sub})
			if c.Trace != nil {
				buf := telemetry.NewSpecBuffer(c.Trace)
				devTrc.SetEmitter(buf)
				mcTrc.SetEmitter(buf)
				gTrc.SetEmitter(buf)
				d.Attach(buf)
			}
		}
	}
	// All controllers share one timing set, so one gap serves them all.
	s.gap = s.ctrls[0].MinSchedGap()

	// An empty workload name builds a coreless system; attack drivers
	// (RunAttack) attach their own sources. An "attack:<spec>" name
	// makes a parameterized attack pattern a first-class workload: every
	// core replays the spec's access stream, which gives the determinism
	// suite (and any caller) oracle-on, domains-capable attack runs
	// through the ordinary Run path.
	if spec, isAttack := strings.CutPrefix(c.Workload, "attack:"); isAttack {
		as, perr := workload.ParseAttackSpec(spec)
		if perr != nil {
			return nil, perr
		}
		if verr := as.Validate(geo); verr != nil {
			return nil, verr
		}
		for core := 0; core < c.Cores; core++ {
			src, berr := as.Build(mapper)
			if berr != nil {
				return nil, berr
			}
			if err := s.addCore(src); err != nil {
				return nil, err
			}
		}
	} else if c.Workload != "" {
		specs, err := workload.PerCoreSpecs(c.Workload, c.Cores)
		if err != nil {
			return nil, err
		}
		for core := 0; core < c.Cores; core++ {
			gen, gerr := workload.NewGenerator(specs[core], mapper, core, c.Cores, c.Seed+77)
			if gerr != nil {
				return nil, gerr
			}
			if err := s.addCore(gen); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Mapper returns the system's address mapper.
func (s *System) Mapper() addrmap.Mapper { return s.mapper }

// Submit routes a physical-address access into the memory system,
// paying the frontend latency in both directions. Externally attached
// cores (trace replay, attack drivers) use it. onDone may be nil for
// fire-and-forget accesses.
func (s *System) Submit(addr int64, write bool, onDone func(int64)) {
	if onDone == nil {
		s.submit(addr, write, nil, nil)
		return
	}
	s.submit(addr, write, callOnDone, onDone)
}

// callOnDone adapts a plain func(int64) completion onto the pre-bound
// event.Func form used internally.
func callOnDone(ctx any, at int64) { ctx.(func(int64))(at) }

// AttachCore adds an externally sourced core (e.g. a trace replay) to
// the system and returns it.
func (s *System) AttachCore(src cpu.Source, targetInstr int64) (*cpu.Core, error) {
	core, err := cpu.New(s.coreSched, cpu.Config{
		Width: 8, ROB: 256, TargetInstr: targetInstr, Submit: s.submit,
		OnFinish: s.coreFinished,
		Trace:    s.coreTrack(),
	}, src)
	if err != nil {
		return nil, err
	}
	if err := s.attachSpecCore(core, src); err != nil {
		return nil, err
	}
	s.cores = append(s.cores, core)
	s.running++
	return core, nil
}

// coreTrack registers the next core's telemetry track (nil when tracing
// is off).
func (s *System) coreTrack() *telemetry.CoreTracks {
	if s.cfg.Trace == nil {
		return nil
	}
	ct := s.cfg.Trace.Core(fmt.Sprintf("core%d", len(s.cores)))
	if s.coreBuf != nil {
		ct.SetEmitter(s.coreBuf)
	}
	return ct
}

// attachSpecCore registers a new core and its access source with the
// core domain's checkpoint set. Sources must be rewindable — every
// shipped source (workload generators, attack patterns) is; externally
// attached ones that are not must run without speculation.
func (s *System) attachSpecCore(core *cpu.Core, src cpu.Source) error {
	if !s.specOn {
		return nil
	}
	ck, ok := src.(event.Checkpointable)
	if !ok {
		return fmt.Errorf("sim: source %T is not checkpointable; disable Speculate to attach it", src)
	}
	d := s.dom.Domain(int(s.coreDomID))
	d.Attach(core)
	d.Attach(ck)
	return nil
}

// coreFinished keeps the running-core count that lets the run loop test
// completion with one integer compare instead of polling every core.
func (s *System) coreFinished() { s.running-- }

// addCore attaches a core fed by src to the memory system.
func (s *System) addCore(src cpu.Source) error {
	core, err := cpu.New(s.coreSched, cpu.Config{
		Width:       8,
		ROB:         256,
		TargetInstr: s.cfg.InstrPerCore,
		Submit:      s.submit,
		OnFinish:    s.coreFinished,
		Trace:       s.coreTrack(),
	}, src)
	if err != nil {
		return err
	}
	if err := s.attachSpecCore(core, src); err != nil {
		return err
	}
	s.cores = append(s.cores, core)
	s.running++
	return nil
}

// FrontendLatencyNs is the fixed LLC-lookup plus interconnect latency a
// miss pays on each direction between the core and the memory
// controller. It dilutes the DRAM-timing delta exactly as the cache
// hierarchy does on real systems.
const FrontendLatencyNs = 15

// txn carries one in-flight access's completion context across the
// controller boundary: the controller fires txnComplete at data
// completion, which schedules the return-trip hop that finally invokes
// the submitter's pre-bound callback. txns are allocated and recycled
// only in the core domain (the submit and deliver sides), so the free
// list needs no locking even in sharded mode.
type txn struct {
	sys  *System
	done event.Func
	ctx  any
	sub  int32 // owning subchannel (domain routing for the return hop)
}

func (s *System) newTxn() *txn {
	if n := len(s.freeTxn); n > 0 {
		t := s.freeTxn[n-1]
		s.freeTxn = s.freeTxn[:n-1]
		return t
	}
	return &txn{sys: s}
}

// txnComplete runs at data completion inside the controller's clock
// domain and pays the controller-to-core return latency. The hop is
// tagged with the controller's subchannel index so two completions
// reaching the core at the same instant resolve in the same order the
// sharded engine's barrier merge would pick.
func txnComplete(ctx any, doneAt int64) {
	t := ctx.(*txn)
	q := &t.sys.delivQ[t.sub]
	q.next(t.sys.eng.Now()) // drop fired entries (manual drivers never barrier-drain)
	q.push(doneAt + FrontendLatencyNs)
	t.sys.eng.Send(int(t.sub), FrontendLatencyNs, txnDeliver, t, doneAt+FrontendLatencyNs)
}

// txnCompleteDom is txnComplete for sharded mode: it runs in the
// subchannel's domain and ships the return hop to the core domain
// through the barrier mailbox. The scheduling instants are identical
// to the serial path, so the delivered schedule is too.
func txnCompleteDom(ctx any, doneAt int64) {
	t := ctx.(*txn)
	s := t.sys
	s.delivQ[t.sub].push(doneAt + FrontendLatencyNs)
	s.dom.Domain(int(t.sub)).Send(s.coreDomID, FrontendLatencyNs, txnDeliver, t, doneAt+FrontendLatencyNs)
}

// txnDeliver hands the completed access back to its submitter and
// recycles the txn. It always runs in the core domain. During a
// speculative stretch the txn's fields stay intact and recycling is
// deferred onto specTxns: a rollback restores the pending txnDeliver
// event, and its replay needs the context whole (a commit recycles
// the parked txns in delivery order — see specCoreState).
func txnDeliver(ctx any, at int64) {
	t := ctx.(*txn)
	s := t.sys
	if s.specArmed {
		s.specTxns = append(s.specTxns, t)
		t.done(t.ctx, at)
		return
	}
	done, dctx := t.done, t.ctx
	t.done, t.ctx = nil, nil
	s.freeTxn = append(s.freeTxn, t)
	done(dctx, at)
}

// packLoc squeezes a decoded bank/row/col location plus the write flag
// into the int64 event payload, so the cross-domain arrival hop builds
// the controller request inside the controller's own domain (pooled
// requests never cross domains).
func packLoc(bank, row, col int, write bool) int64 {
	if uint(bank) >= 1<<8 || uint(row) >= 1<<32 || uint(col) >= 1<<16 {
		panic("sim: address geometry exceeds cross-domain payload packing")
	}
	v := int64(row)<<25 | int64(col)<<9 | int64(bank)<<1
	if write {
		v |= 1
	}
	return v
}

// fillLoc unpacks a packLoc payload into a controller request.
func fillLoc(r *mc.Request, v int64) {
	r.Write = v&1 != 0
	r.Bank = int(v >> 1 & 0xff)
	r.Col = int(v >> 9 & 0xffff)
	r.Row = int(v >> 25)
}

// deliverWrite is the sharded-mode arrival hop for fire-and-forget
// writes: it runs in the subchannel's domain with the controller as
// context.
func deliverWrite(ctx any, arg int64) {
	c := ctx.(*mc.Controller)
	r := c.NewRequest()
	fillLoc(r, arg)
	c.Enqueue(r)
}

// deliverRead is the sharded-mode arrival hop for reads: the txn
// carries the completion context back out through txnCompleteDom.
func deliverRead(ctx any, arg int64) {
	t := ctx.(*txn)
	c := t.sys.ctrls[t.sub]
	r := c.NewRequest()
	fillLoc(r, arg)
	r.Done, r.DoneCtx = txnCompleteDom, t
	c.Enqueue(r)
}

// submit routes a physical address to its subchannel controller after
// the core-to-controller latency; the completion pays the return trip.
// The whole path — arrival hop, controller request, completion hop — is
// closure-free and runs on pooled objects. In sharded mode the arrival
// hop crosses the domain boundary through the mailbox instead of the
// shared heap; the event instants are the same.
func (s *System) submit(addr int64, write bool, done event.Func, ctx any) {
	loc := s.mapper.Decode(addr)
	if s.dom != nil {
		core := s.dom.Domain(int(s.coreDomID))
		arg := packLoc(loc.Bank, loc.Row, loc.Col, write)
		s.arrQ[loc.Sub].push(core.Now() + FrontendLatencyNs)
		if done == nil {
			core.Send(int32(loc.Sub), FrontendLatencyNs, deliverWrite, s.ctrls[loc.Sub], arg)
			return
		}
		t := s.newTxn()
		t.done, t.ctx, t.sub = done, ctx, int32(loc.Sub)
		core.Send(int32(loc.Sub), FrontendLatencyNs, deliverRead, t, arg)
		return
	}
	r := s.ctrls[loc.Sub].NewRequest()
	r.Bank, r.Row, r.Col, r.Write = loc.Bank, loc.Row, loc.Col, write
	if done != nil {
		t := s.newTxn()
		t.done, t.ctx, t.sub = done, ctx, int32(loc.Sub)
		r.Done, r.DoneCtx = txnComplete, t
	}
	q := &s.arrQ[loc.Sub]
	q.next(s.eng.Now()) // drop fired entries (manual drivers never barrier-drain)
	q.push(s.eng.Now() + FrontendLatencyNs)
	s.eng.Send(int(s.coreDomID), FrontendLatencyNs, mc.EnqueueOwned, r, 0)
}

// Engine exposes the serial event engine (attack drivers and trace
// replay advance it manually). Manual drivers only exist on coreless
// systems, which force serial mode, so Engine is non-nil for them; it
// returns nil on a sharded system.
func (s *System) Engine() *event.Engine { return s.eng }

// DomainCount reports the number of parallel event domains the system
// runs on (1 = serial engine).
func (s *System) DomainCount() int {
	if s.dom == nil {
		return 1
	}
	return s.dom.N()
}

// Oracle returns the attached security oracle, merged across the
// per-subchannel shards (nil unless requested). With more than one
// shard the result is a snapshot: call it again after further events to
// observe them. OracleActivations is the cheap way to poll progress.
func (s *System) Oracle() *oracle.Oracle {
	if s.oracles == nil {
		return nil
	}
	return oracle.Merge(s.oracles...)
}

// OracleActivations returns the total activation count across the
// oracle shards without merging them — the per-event polling accessor
// attack drivers use.
func (s *System) OracleActivations() int64 {
	var n int64
	for _, o := range s.oracles {
		n += o.Activations()
	}
	return n
}

// Controllers returns the per-subchannel controllers.
func (s *System) Controllers() []*mc.Controller { return s.ctrls }

// Devices returns the per-subchannel devices.
func (s *System) Devices() []*dram.Device { return s.devs }

// ErrCanceled is returned (wrapped) by RunContext when the context ends
// before the run completes naturally.
var ErrCanceled = errors.New("sim: run canceled")

// cancelCheckEvents is how many events RunContext executes between
// context polls. Events are nanosecond-scale, so this bounds the
// cancellation latency to microseconds of wall time while keeping the
// hot loop free of per-event synchronisation.
const cancelCheckEvents = 4096

// Run executes until every core retires its target (or the safety cap of
// maxNs is reached; 0 means one simulated second).
func (s *System) Run(maxNs int64) (Result, error) {
	return s.RunContext(context.Background(), maxNs)
}

// maxEpochNs caps adaptive epochs at about a millisecond of simulated
// time. The horizon terms keep epochs far below this in practice (a
// controller always has a scheduler pass armed no later than its next
// tREFI deadline); the cap just bounds the idle jump and keeps the
// bound arithmetic clear of overflow when no send source is pending.
const maxEpochNs = 1 << 20

// horizonBound returns the exclusive epoch bound for an epoch starting
// at start (the earliest pending event): ES + FrontendLatencyNs, where
// ES lower-bounds the earliest instant any component could inject a
// cross-domain hop from the committed state. Every domain can then run
// to the bound without hearing from its peers, because a hop sent at
// t >= ES arrives at t + FrontendLatencyNs >= bound.
//
// ES is the minimum over every send source in the system:
//
//   - each core's pending self-wake (an advance can submit new misses
//     at its own instant, and miss completions arriving mid-epoch only
//     wake the core at strictly later times);
//   - each controller's earliest pending completion callback, which
//     fires the controller->core return hop at its own instant;
//   - each pending completion hop already in flight toward the cores
//     (its delivery can trigger new submissions at its own instant);
//   - each controller's next chance to *schedule* a new completion: no
//     scheduler pass runs before min(tick, earliest pending arrival
//     hop), and a pass at t cannot complete a column access before
//     t + MinSchedGap. DRAM devices and mitigation guards are passive
//     (they never schedule events), so controller passes and the
//     completions they schedule are the only controller-side sources.
//
// Events already pending at times below the returned ES cannot send:
// they are controller scheduler passes and arrival deliveries, whose
// sends are bounded by the gap term above.
//
// The same function drives the serial engine's run loop, computed from
// the same component state at the same committed instants — that keeps
// the epoch geometry, and with it the executed event set at the final
// barrier, byte-identical between the two engines.
func (s *System) horizonBound(start int64) int64 {
	now := s.nowNs()
	es := mc.Never
	for _, c := range s.cores {
		if w := c.WakeAt(); w >= 0 && w < es {
			es = w
		}
	}
	for i := range s.ctrls {
		ctl := s.ctrls[i]
		if t := ctl.NextSendAt(now); t < es {
			es = t
		}
		if t := s.delivQ[i].next(now); t < es {
			es = t
		}
		evt := ctl.TickAt()
		if t := s.arrQ[i].next(now); t < evt {
			evt = t
		}
		if evt != mc.Never {
			if t := evt + s.gap; t < es {
				es = t
			}
		}
	}
	// Sends happen inside event executions, so nothing can send before
	// the earliest pending event either way; clamping also restores
	// progress when a tracked instant has already passed.
	if es < start {
		es = start
	}
	if es > start+maxEpochNs {
		es = start + maxEpochNs
	}
	return es + FrontendLatencyNs
}

// RunContext is Run with cooperative cancellation: the context is
// polled every cancelCheckEvents executed events, so per-job deadlines,
// client aborts, and server drains interrupt a run mid-flight. A
// cancelled run returns an error wrapping both ErrCanceled and the
// context's cause.
//
// Both engines advance in adaptive epochs bounded by horizonBound, and
// the finish condition (every core retired its target) is evaluated at
// epoch boundaries. Epoch-aligned stopping is what makes the sharded
// schedule reproducible on the serial engine: the set of executed
// events is exactly "everything before the first boundary at which all
// cores are done", independent of how work interleaves across domains
// inside the final window — and both engines compute the identical
// boundary sequence because horizonBound reads only component state
// that is itself byte-identical at each barrier.
func (s *System) RunContext(ctx context.Context, maxNs int64) (Result, error) {
	if maxNs <= 0 {
		maxNs = 1_000_000_000
	}
	canceled := func() (Result, error) {
		return Result{}, fmt.Errorf("%w at t=%d ns: %w", ErrCanceled, s.nowNs(), context.Cause(ctx))
	}
	if ctx.Err() != nil {
		return canceled()
	}
	steps := 0
	if s.dom != nil {
		defer s.dom.Shutdown()
		for s.liveCores() > 0 {
			at, ok := s.dom.NextAt()
			if !ok || at >= maxNs {
				break
			}
			n, _ := s.dom.RunEpoch()
			if steps += n; steps >= cancelCheckEvents {
				steps = 0
				if ctx.Err() != nil {
					return canceled()
				}
			}
		}
		// Park the workers and discard any in-flight speculative
		// stretch before reading component state: the cap check and
		// collect() below walk cores and controllers, which a
		// speculating worker may still be mutating. The deferred
		// Shutdown then no-ops.
		s.dom.Shutdown()
	} else {
		for s.running > 0 {
			at, ok := s.eng.NextAt()
			if !ok || at >= maxNs {
				break
			}
			steps += s.eng.RunUntil(s.horizonBound(at) - 1)
			if steps >= cancelCheckEvents {
				steps = 0
				if ctx.Err() != nil {
					return canceled()
				}
			}
		}
	}
	if s.running > 0 {
		return Result{}, fmt.Errorf("sim: run hit the %d ns cap before all cores finished", maxNs)
	}
	return s.collect(), nil
}

func (s *System) collect() Result {
	res := Result{Config: s.cfg, TimeNs: s.nowNs(), Oracle: s.Oracle()}
	for _, c := range s.cores {
		ipc := c.IPC()
		res.IPC = append(res.IPC, ipc)
		res.SumIPC += ipc
	}
	for _, ctl := range s.ctrls {
		st := ctl.Stats()
		res.MC.Reads += st.Reads
		res.MC.Writes += st.Writes
		res.MC.RowHits += st.RowHits
		res.MC.RowMisses += st.RowMisses
		res.MC.RowConflicts += st.RowConflicts
		res.MC.SumLatency += st.SumLatency
		res.MC.AlertStalls += st.AlertStalls
		res.MC.StallNs += st.StallNs
		res.MC.RefreshNs += st.RefreshNs
		if st.MaxLatency > res.MC.MaxLatency {
			res.MC.MaxLatency = st.MaxLatency
		}
	}
	for _, dev := range s.devs {
		st := dev.Stats()
		res.Dev.Activates += st.Activates
		res.Dev.Reads += st.Reads
		res.Dev.Precharges += st.Precharges
		res.Dev.PrechargesCU += st.PrechargesCU
		res.Dev.Refreshes += st.Refreshes
		res.Dev.RFMs += st.RFMs
		res.Dev.Alerts += st.Alerts
		res.Dev.Mitigations += st.Mitigations
		res.Dev.GuardMitigations += st.GuardMitigations
		for chip := 0; chip < dev.Chips(); chip++ {
			for bank := 0; bank < dev.Banks(); bank++ {
				if g, ok := dev.Guard(chip, bank).(*mitigation.MoPACD); ok {
					st := g.Stats()
					res.SRQ.Activations += st.Activations
					res.SRQ.Insertions += st.Insertions
					res.SRQ.Coalesced += st.Coalesced
					res.SRQ.DroppedFull += st.DroppedFull
					res.SRQ.CounterUpdates += st.CounterUpdates
					res.SRQ.DrainsOnREF += st.DrainsOnREF
					res.SRQ.DrainsOnABO += st.DrainsOnABO
					res.SRQ.Mitigations += st.Mitigations
					res.SRQ.TardinessAlerts += st.TardinessAlerts
					res.SRQ.SRQFullAlerts += st.SRQFullAlerts
					res.SRQ.MitigAlerts += st.MitigAlerts
				}
			}
		}
	}
	var lat stats.Histogram
	for _, ctl := range s.ctrls {
		lat.Merge(ctl.LatencyHistogram())
	}
	res.Latency = lat.Snapshot()
	res.Workload = SnapshotShards(s.nowNs(), s.wstats)
	return res
}

// Summary returns the flat JSON-friendly digest of the run.
func (r Result) Summary() ResultSummary {
	s := ResultSummary{
		Design:       r.Config.Design.String(),
		Workload:     r.Config.Workload,
		TRH:          r.Config.TRH,
		Seed:         r.Config.Seed,
		TimeNs:       r.TimeNs,
		SumIPC:       r.SumIPC,
		RBHR:         r.RBHR(),
		APRI:         r.Workload.APRI,
		Reads:        r.MC.Reads,
		Writes:       r.MC.Writes,
		Activates:    r.Dev.Activates,
		Alerts:       r.Dev.Alerts,
		Mitigations:  r.Dev.Mitigations,
		P50LatencyNs: r.Latency.P50,
		P99LatencyNs: r.Latency.P99,
		CUPer100ACT:  r.CounterUpdatesPer100ACTs(),
		SRQInsPer100: r.SRQInsertionsPer100ACTs(),
	}
	if r.MC.Reads > 0 {
		s.AvgLatencyNs = float64(r.MC.SumLatency) / float64(r.MC.Reads)
	}
	if r.Oracle != nil {
		sec := r.Oracle.Secure()
		s.Secure = &sec
		s.MaxUnmitig, _, _ = r.Oracle.MaxUnmitigated()
	}
	return s
}

// Slowdown returns the throughput loss of res versus base:
// 1 - SumIPC(res)/SumIPC(base).
func Slowdown(base, res Result) float64 {
	if base.SumIPC == 0 {
		return 0
	}
	return 1 - res.SumIPC/base.SumIPC
}

// subObserver offsets bank indices so both subchannels share one
// observer with a global bank namespace.
type subObserver struct {
	inner dram.Observer
	sub   int
	banks int
}

func (o subObserver) ObserveActivate(now int64, bank, row int) {
	o.inner.ObserveActivate(now, o.sub*o.banks+bank, row)
}
func (o subObserver) ObserveMitigation(now int64, bank, row int) {
	o.inner.ObserveMitigation(now, o.sub*o.banks+bank, row)
}
func (o subObserver) ObserveRefresh(now int64, bank, rowLo, rowHi int) {
	o.inner.ObserveRefresh(now, o.sub*o.banks+bank, rowLo, rowHi)
}

// multiObserver fans events out to several observers.
type multiObserver []dram.Observer

// MultiObserver combines observers; nil entries are dropped.
func MultiObserver(obs ...dram.Observer) dram.Observer {
	var out multiObserver
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	return out
}

func (m multiObserver) ObserveActivate(now int64, bank, row int) {
	for _, o := range m {
		o.ObserveActivate(now, bank, row)
	}
}
func (m multiObserver) ObserveMitigation(now int64, bank, row int) {
	for _, o := range m {
		o.ObserveMitigation(now, bank, row)
	}
}
func (m multiObserver) ObserveRefresh(now int64, bank, rowLo, rowHi int) {
	for _, o := range m {
		o.ObserveRefresh(now, bank, rowLo, rowHi)
	}
}
