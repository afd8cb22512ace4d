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
	"sync"

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
	if d := r.Config.Design; d.valid() && designs[d].perChip {
		chips := int64(r.Config.Chips)
		if chips <= 0 {
			chips = 1
		}
		return float64(r.SRQ.CounterUpdates) / float64(chips) / float64(r.Dev.Activates) * 100
	}
	return float64(r.Dev.PrechargesCU) / float64(r.Dev.Activates) * 100
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

// System is a fully wired simulated machine.
type System struct {
	cfg    Config
	eng    *event.Engine
	mapper addrmap.Mapper
	devs   []*dram.Device
	ctrls  []*mc.Controller
	cores  []*cpu.Core
	// orc (nil unless TrackSecurity) and wstats observe every
	// subchannel's device through an observer's global bank namespace.
	orc     *oracle.Oracle
	wstats  *WorkloadStats
	tparams timing.Params
	freeTxn []*txn // recycled completion contexts
	running int    // cores that have not yet retired their target
}

// released holds Systems handed back by Release for NewSystem to reuse.
var released sync.Pool

// NewSystem wires a system for the configuration. It reuses the memory
// of a System released earlier when one is at hand (see Release).
func NewSystem(c Config) (*System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s, _ := released.Get().(*System)
	if s == nil {
		s = new(System)
	}
	if err := s.init(c); err != nil {
		return nil, err
	}
	return s, nil
}

// Release hands s's memory to a later NewSystem, which re-initialises
// it in place: the event engine, the controllers, devices and cores
// and the workload-stats row table keep their storage. Neither s nor
// anything obtained from it (engine, controllers, devices, cores) may
// be used after Release. Results collected from s stay valid: nothing a
// Result points to is ever reused, and guards, riders and the oracle
// are built anew for every run.
func (s *System) Release() { released.Put(s) }

// reuse returns the element that s's storage holds just past its
// length from an earlier run, or a new one.
func reuse[T any](s []*T) *T {
	if n := len(s); n < cap(s) {
		if p := s[:n+1][n]; p != nil {
			return p
		}
	}
	return new(T)
}

// init wires s, zero or released, for the validated configuration c.
// Everything s keeps from an earlier run is storage: each component's
// Init or reset clears its state, so a recycled System runs exactly as
// a new one.
func (s *System) init(c Config) error {
	c.setDefaults()
	spec := designs[c.Design]
	tparams, mcCfg, params := c.wiring()
	geo := addrmap.Default()
	mapper, err := addrmap.NewMOP(geo, 4)
	if err != nil {
		return err
	}
	eng, wstats := s.eng, s.wstats
	if eng == nil {
		eng = event.NewEngine()
	} else {
		eng.Reset()
	}
	if wstats == nil {
		wstats = new(WorkloadStats)
	}
	wstats.reset(geo, tparams)
	*s = System{
		cfg: c, eng: eng, mapper: mapper,
		devs: s.devs[:0], ctrls: s.ctrls[:0], cores: s.cores[:0],
		wstats: wstats, tparams: tparams, freeTxn: s.freeTxn,
	}
	if c.TrackSecurity {
		s.orc = oracle.New(c.TRH)
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
		var ng func(chip, bank int) dram.BankGuard
		if spec.guard != nil {
			var gerr error
			if ng, gerr = spec.guard(c, params, geo.Rows, gTrc); gerr != nil {
				return gerr
			}
		}
		dev := reuse(s.devs)
		if err := dev.Init(dram.Config{
			Banks:    geo.Banks,
			Rows:     geo.Rows,
			Chips:    c.guardChips(),
			RFMLevel: c.RFMLevel,
			LogDepth: c.CommandLogDepth,
			Timing:   tparams,
			NewGuard: ng,
			Observer: &observer{s.wstats, s.orc, sub * geo.Banks},
			Trace:    devTrc,
		}); err != nil {
			return err
		}
		s.devs = append(s.devs, dev)
		subCfg := mcCfg
		subCfg.Trace = mcTrc
		ctl := reuse(s.ctrls)
		if err := ctl.Init(s.eng, dev, subCfg); err != nil {
			return err
		}
		s.ctrls = append(s.ctrls, ctl)
	}

	// An empty workload name builds a coreless system; trace replay
	// attaches its own sources. An "attack:<spec>" name makes an attack
	// pattern a first-class workload: every core replays the spec's
	// access stream. RunAttack builds every attack run this way, and the
	// determinism suite (and any caller) gets oracle-on attack runs
	// through the ordinary Run path.
	if spec, isAttack := strings.CutPrefix(c.Workload, "attack:"); isAttack {
		as, perr := workload.ParseAttackSpec(spec)
		if perr != nil {
			return perr
		}
		if verr := as.Validate(geo); verr != nil {
			return verr
		}
		for core := 0; core < c.Cores; core++ {
			src, berr := as.Build(mapper)
			if berr != nil {
				return berr
			}
			if err := s.addCore(src); err != nil {
				return err
			}
		}
	} else if c.Workload != "" {
		specs, err := workload.PerCoreSpecs(c.Workload, c.Cores)
		if err != nil {
			return err
		}
		for core := 0; core < c.Cores; core++ {
			gen, gerr := workload.NewGenerator(specs[core], mapper, core, c.Cores, c.Seed+77)
			if gerr != nil {
				return gerr
			}
			if err := s.addCore(gen); err != nil {
				return err
			}
		}
	}
	return nil
}

// wiring resolves what c's design sets below the cores: its timing set,
// the controller config with the design's derive applied, and the
// derived security parameters. c must be defaulted.
func (c Config) wiring() (timing.Params, mc.Config, security.Params) {
	spec := designs[c.Design]
	tparams := spec.timing()
	mcCfg := mc.Config{
		Timing:           tparams,
		Policy:           c.Policy,
		TimeoutNs:        c.TimeoutNs,
		RFMLevel:         c.RFMLevel,
		MaxPostponedREFs: c.MaxPostponedREFs,
		Seed:             c.Seed ^ 0xc0ffee,
	}
	var params security.Params
	if spec.derive != nil {
		params = spec.derive(c, &mcCfg)
	}
	return tparams, mcCfg, params
}

// guardChips is the number of chips whose guard state c replicates.
func (c Config) guardChips() int {
	if designs[c.Design].perChip {
		return c.Chips
	}
	return 1
}

// Mapper returns the system's address mapper.
func (s *System) Mapper() addrmap.Mapper { return s.mapper }

// Submit routes a physical-address access into the memory system,
// paying the frontend latency in both directions, for callers that
// drive accesses themselves. onDone may be nil for fire-and-forget
// accesses.
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
	core := reuse(s.cores)
	if err := core.Init(s.eng, cpu.Config{
		Width: cpu.DefaultWidth, ROB: 256, TargetInstr: targetInstr, Submit: s.submit,
		OnFinish: s.coreFinished,
		Trace:    s.coreTrack(),
	}, src); err != nil {
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
	return s.cfg.Trace.Core(fmt.Sprintf("core%d", len(s.cores)))
}

// coreFinished keeps the running-core count that lets the run loop test
// completion with one integer compare instead of polling every core.
func (s *System) coreFinished() { s.running-- }

// addCore attaches a core fed by src that retires Config.InstrPerCore.
func (s *System) addCore(src cpu.Source) error {
	_, err := s.AttachCore(src, s.cfg.InstrPerCore)
	return err
}

// FrontendLatencyNs is the fixed LLC-lookup plus interconnect latency a
// miss pays on each direction between the core and the memory
// controller. It dilutes the DRAM-timing delta exactly as the cache
// hierarchy does on real systems.
const FrontendLatencyNs = 15

// txn carries one in-flight access's completion context across the
// controller boundary: the controller calls txnIssued when it issues
// the column command, which schedules the return-trip hop that finally
// invokes the submitter's pre-bound callback.
type txn struct {
	sys  *System
	done event.Func
	ctx  any
}

func (s *System) newTxn() *txn {
	if n := len(s.freeTxn); n > 0 {
		t := s.freeTxn[n-1]
		s.freeTxn = s.freeTxn[:n-1]
		return t
	}
	return &txn{sys: s}
}

// txnIssued runs when the controller issues the access's column
// command, with the instant doneAt its data transfer completes. It
// schedules the controller-to-core return hop at once, landing
// FrontendLatencyNs after doneAt, so the completion instant itself
// needs no event.
func txnIssued(ctx any, doneAt int64) {
	t := ctx.(*txn)
	t.sys.eng.AtFunc(doneAt+FrontendLatencyNs, txnDeliver, t, doneAt+FrontendLatencyNs)
}

// txnDeliver hands the completed access back to its submitter and
// recycles the txn.
func txnDeliver(ctx any, at int64) {
	t := ctx.(*txn)
	done, dctx := t.done, t.ctx
	t.done, t.ctx = nil, nil
	t.sys.freeTxn = append(t.sys.freeTxn, t)
	done(dctx, at)
}

// submit routes a physical address to its subchannel controller after
// the core-to-controller latency; the completion pays the return trip.
// The whole path — arrival hop, controller request, completion hop — is
// closure-free and runs on pooled objects.
func (s *System) submit(addr int64, write bool, done event.Func, ctx any) {
	loc := s.mapper.Decode(addr)
	r := s.ctrls[loc.Sub].NewRequest()
	r.Bank, r.Row, r.Col, r.Write = loc.Bank, loc.Row, loc.Col, write
	if done != nil {
		t := s.newTxn()
		t.done, t.ctx = done, ctx
		r.Done, r.DoneCtx = txnIssued, t
	}
	s.eng.AfterFunc(FrontendLatencyNs, mc.EnqueueOwned, r, 0)
}

// Engine exposes the event engine.
func (s *System) Engine() *event.Engine { return s.eng }

// Oracle returns the attached security oracle (nil unless requested).
func (s *System) Oracle() *oracle.Oracle { return s.orc }

// OracleActivations returns the oracle's activation count, or 0 when
// no oracle is attached — the per-event stop test RunAttack uses.
func (s *System) OracleActivations() int64 {
	if s.orc == nil {
		return 0
	}
	return s.orc.Activations()
}

// Controllers returns the per-subchannel controllers.
func (s *System) Controllers() []*mc.Controller { return s.ctrls }

// Devices returns the per-subchannel devices.
func (s *System) Devices() []*dram.Device { return s.devs }

// ErrCanceled is returned (wrapped) by RunContext and RunAttack when the
// context ends before the run completes.
var ErrCanceled = errors.New("sim: run canceled")

// cancelCheckEvents is how many events run executes between context
// polls. Events are nanosecond-scale, so this bounds the cancellation
// latency to microseconds of wall time while keeping the hot loop free
// of per-event synchronisation.
const cancelCheckEvents = 4096

// Run executes until every core retires its target (or the safety cap of
// maxNs is reached; 0 means one simulated second).
func (s *System) Run(maxNs int64) (Result, error) {
	return s.RunContext(context.Background(), maxNs)
}

// RunContext is Run with cooperative cancellation: per-job deadlines,
// client aborts, and server drains interrupt a run mid-flight. A
// cancelled run returns an error wrapping both ErrCanceled and the
// context's cause.
//
// The run stops at the event that retires the last core, so TimeNs is
// the latest core's FinishedAt.
func (s *System) RunContext(ctx context.Context, maxNs int64) (Result, error) {
	if maxNs <= 0 {
		maxNs = 1_000_000_000
	}
	if err := s.run(ctx, maxNs, func() bool { return s.running == 0 }); err != nil {
		return Result{}, err
	}
	return s.collect(), nil
}

// run is every run loop: it steps the engine until done reports true,
// polling ctx every cancelCheckEvents events. It fails when ctx ends,
// when the clock reaches capNs, or when the engine drains first.
func (s *System) run(ctx context.Context, capNs int64, done func() bool) error {
	for n := cancelCheckEvents; !done(); n++ {
		if n == cancelCheckEvents {
			n = 0
			if ctx.Err() != nil {
				return fmt.Errorf("%w at t=%d ns: %w", ErrCanceled, s.eng.Now(), context.Cause(ctx))
			}
		}
		if s.eng.Now() >= capNs {
			return fmt.Errorf("sim: run hit the %d ns cap", capNs)
		}
		if !s.eng.Step() {
			return fmt.Errorf("sim: run stalled at %d ns", s.eng.Now())
		}
	}
	return nil
}

func (s *System) collect() Result {
	res := Result{Config: s.cfg, TimeNs: s.eng.Now(), Oracle: s.Oracle()}
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
		addSRQ(&res.SRQ, dev)
	}
	var lat stats.Histogram
	for _, ctl := range s.ctrls {
		lat.Merge(ctl.LatencyHistogram())
	}
	res.Latency = lat.Snapshot()
	res.Workload = s.wstats.Snapshot(s.eng.Now())
	return res
}

// guardPlane is a device's own guards or a rider plane.
type guardPlane interface {
	Chips() int
	Banks() int
	Guard(chip, bank int) dram.BankGuard
}

// addSRQ adds the stats of p's MoPAC-D guards to srq.
func addSRQ(srq *mitigation.MoPACDStats, p guardPlane) {
	for chip := 0; chip < p.Chips(); chip++ {
		for bank := 0; bank < p.Banks(); bank++ {
			if g, ok := p.Guard(chip, bank).(*mitigation.MoPACD); ok {
				st := g.Stats()
				srq.Activations += st.Activations
				srq.Insertions += st.Insertions
				srq.Coalesced += st.Coalesced
				srq.DroppedFull += st.DroppedFull
				srq.CounterUpdates += st.CounterUpdates
				srq.DrainsOnREF += st.DrainsOnREF
				srq.DrainsOnABO += st.DrainsOnABO
				srq.Mitigations += st.Mitigations
				srq.TardinessAlerts += st.TardinessAlerts
				srq.SRQFullAlerts += st.SRQFullAlerts
				srq.MitigAlerts += st.MitigAlerts
			}
		}
	}
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

// observer is one subchannel's dram.Observer: it offsets bank indices
// into the global bank namespace that wstats and the oracle share, and
// calls both directly. orc is nil unless the run tracks security.
type observer struct {
	ws   *WorkloadStats
	orc  *oracle.Oracle
	base int // the subchannel's first global bank
}

func (o *observer) ObserveActivate(now int64, bank, row int) {
	o.ws.ObserveActivate(now, o.base+bank, row)
	if o.orc != nil {
		o.orc.ObserveActivate(now, o.base+bank, row)
	}
}
func (o *observer) ObserveMitigation(now int64, bank, row int) {
	if o.orc != nil {
		o.orc.ObserveMitigation(now, o.base+bank, row)
	}
}
func (o *observer) ObserveRefresh(now int64, bank, rowLo, rowHi int) {
	if o.orc != nil {
		o.orc.ObserveRefresh(now, o.base+bank, rowLo, rowHi)
	}
}
