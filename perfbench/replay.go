package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"mopac/internal/addrmap"
	"mopac/internal/attack"
	"mopac/internal/cpu"
	"mopac/internal/dram"
	"mopac/internal/event"
	"mopac/internal/mc"
	"mopac/internal/mitigation"
	"mopac/internal/oracle"
	"mopac/internal/security"
	"mopac/internal/sim"
	"mopac/internal/timing"
	"mopac/internal/workload"
)

// This file holds the replays: each drives one layer's public API on
// inputs taken from a workload, with nothing else running, and reports
// the median cost per unit of work over replayReps repetitions.

const replayReps = 3

// replayTRH is the threshold every guard and the oracle run at.
const replayTRH = 500

// replayInputs are the workload-derived inputs the replays consume.
type replayInputs struct {
	seed        uint64
	size        sizes
	sweepSample []sim.Config // sweep configs the sim replays run
	serveCfgs   []sim.Config // fresh serve job configs
	attackSpecs []workload.AttackSpec
}

// timeMedian runs fn replayReps times and returns the median of
// elapsed ÷ units, in nanoseconds per unit.
func timeMedian(units float64, fn func() error) (float64, error) {
	var per []float64
	for i := 0; i < replayReps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/units)
	}
	return median(per), nil
}

// capture is one simulated baseline run's command logs, one per
// subchannel: default geometry, DDR5 timing.
type capture struct {
	logs [][]dram.LogEntry
	acts int
}

// captureRun runs cfg on the baseline design with command logging on
// and returns its logs. depth must hold the whole run.
func captureRun(cfg sim.Config, depth int) (capture, error) {
	cfg.Design = sim.DesignBaseline
	cfg.CommandLogDepth = depth
	sys, err := sim.NewSystem(cfg)
	if err != nil {
		return capture{}, err
	}
	if _, err := sys.Run(0); err != nil {
		return capture{}, err
	}
	var c capture
	for _, dev := range sys.Devices() {
		log := dev.CommandLog()
		if len(log) >= depth {
			return capture{}, fmt.Errorf("command log of %s overflowed %d entries", cfg.Workload, depth)
		}
		c.logs = append(c.logs, log)
		c.acts += int(dev.Stats().Activates)
	}
	return c, nil
}

// replayDevice replays a captured command log into a fresh unprotected
// device, reporting any illegal command as an error.
func replayDevice(log []dram.LogEntry, obs dram.Observer) (err error) {
	geo := addrmap.Default()
	dev, err := dram.NewDevice(dram.Config{Banks: geo.Banks, Rows: geo.Rows, Timing: timing.DDR5(), Observer: obs})
	if err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replay: %v", r)
		}
	}()
	for _, e := range log {
		switch e.Cmd {
		case dram.CmdACT:
			dev.Activate(e.At, e.Bank, e.Row)
		case dram.CmdRD:
			dev.Read(e.At, e.Bank)
		case dram.CmdWR:
			dev.Write(e.At, e.Bank)
		case dram.CmdPRE:
			dev.Precharge(e.At, e.Bank, false)
		case dram.CmdPRECU:
			dev.Precharge(e.At, e.Bank, true)
		case dram.CmdREF:
			dev.Refresh(e.At)
		case dram.CmdRFM:
			dev.ServeABO(e.At)
		}
	}
	return nil
}

// obsEvent is one ground-truth event as the oracle receives it.
type obsEvent struct {
	kind         byte // 'a' activate, 'm' mitigation, 'r' refresh
	at           int64
	bank, lo, hi int
}

// recorder is a dram.Observer that records the stream per subchannel,
// with banks numbered across subchannels as the simulator does.
type recorder struct {
	sub, banks int
	events     *[]obsEvent
}

func (r recorder) ObserveActivate(now int64, bank, row int) {
	*r.events = append(*r.events, obsEvent{'a', now, r.sub*r.banks + bank, row, 0})
}

func (r recorder) ObserveMitigation(now int64, bank, row int) {
	*r.events = append(*r.events, obsEvent{'m', now, r.sub*r.banks + bank, row, 0})
}

func (r recorder) ObserveRefresh(now int64, bank, lo, hi int) {
	*r.events = append(*r.events, obsEvent{'r', now, r.sub*r.banks + bank, lo, hi})
}

// observerStreams replays every log with a recorder attached and
// returns one oracle input stream per subchannel.
func observerStreams(c capture) ([][]obsEvent, error) {
	out := make([][]obsEvent, len(c.logs))
	for sub, log := range c.logs {
		if err := replayDevice(log, recorder{sub, addrmap.Default().Banks, &out[sub]}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func feedOracle(o *oracle.Oracle, events []obsEvent) {
	for _, e := range events {
		switch e.kind {
		case 'a':
			o.ObserveActivate(e.at, e.bank, e.lo)
		case 'm':
			o.ObserveMitigation(e.at, e.bank, e.lo)
		case 'r':
			o.ObserveRefresh(e.at, e.bank, e.lo, e.hi)
		}
	}
}

// guardKind builds one bank's guard; cuInv > 0 makes a counter-update
// precharge happen with probability 1/cuInv (MoPAC-C), cuInv == 1 on
// every precharge (PRAC), 0 never.
type guardKind struct {
	name  string
	cuInv int
	build func(bank int, seed uint64) dram.BankGuard
}

func guardKinds() ([]guardKind, error) {
	geo := addrmap.Default()
	prac := security.DeriveWithP(security.VariantPRAC, replayTRH, 1)
	mopacc := security.DeriveMoPACC(replayTRH)
	mopacd, err := mitigation.NewFactory(mitigation.Options{
		Params: security.DeriveMoPACD(replayTRH), Rows: geo.Rows, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	return []guardKind{
		{"moat", 1, func(int, uint64) dram.BankGuard {
			return mitigation.NewMOAT(mitigation.MOATFromParams(prac, geo.Rows))
		}},
		{"moat_mopacc", mopacc.UpdateWeight(), func(int, uint64) dram.BankGuard {
			return mitigation.NewMOAT(mitigation.MOATFromParams(mopacc, geo.Rows))
		}},
		{"mopacd", 0, func(bank int, _ uint64) dram.BankGuard { return mopacd(0, bank) }},
		{"qprac", 1, func(int, uint64) dram.BankGuard {
			return mitigation.NewQPRAC(mitigation.QPRACFromParams(prac, geo.Rows))
		}},
		{"mint", 0, func(bank int, seed uint64) dram.BankGuard {
			return mitigation.NewMINT(mitigation.MINTConfig{Window: 84, Rows: geo.Rows, Seed: seed ^ uint64(bank)<<8})
		}},
		{"pride", 0, func(bank int, seed uint64) dram.BankGuard {
			return mitigation.NewPrIDE(mitigation.PrIDEConfig{InvP: 84, QueueSize: 2, Rows: geo.Rows, Seed: seed ^ uint64(bank)<<8})
		}},
		{"trr", 0, func(int, uint64) dram.BankGuard {
			return mitigation.NewTRR(mitigation.TRRConfig{Entries: 16, MitigatePerREFs: 4, Rows: geo.Rows})
		}},
	}, nil
}

// replayGuards feeds one subchannel's ACT/PRE/REF stream to a fresh
// set of per-bank guards. An alert is served at once with one ABO
// action, as a one-RFM episode would. It returns the alerts served.
func replayGuards(k guardKind, log []dram.LogEntry, banks int, seed uint64) int {
	guards := make([]dram.BankGuard, banks)
	for b := range guards {
		guards[b] = k.build(b, seed)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6375)) // "cu"
	openRow := make([]int, banks)
	openAt := make([]int64, banks)
	alerts := 0
	for _, e := range log {
		switch e.Cmd {
		case dram.CmdACT:
			g := guards[e.Bank]
			g.Activate(e.At, e.Row)
			openRow[e.Bank], openAt[e.Bank] = e.Row, e.At
			if g.AlertRequested() {
				alerts++
				for _, gg := range guards {
					gg.ABOAction(e.At)
				}
			}
		case dram.CmdPRE, dram.CmdPRECU:
			cu := k.cuInv == 1 || (k.cuInv > 1 && rng.IntN(k.cuInv) == 0)
			guards[e.Bank].PrechargeClose(e.At, openRow[e.Bank], e.At-openAt[e.Bank], cu)
		case dram.CmdREF:
			for _, g := range guards {
				g.Refresh(e.At)
			}
		}
	}
	return alerts
}

// runReplays measures every replayed layer and returns its metrics.
func runReplays(in replayInputs) (map[string]metric, error) {
	m := map[string]metric{}
	geo := addrmap.Default()
	mapper, err := addrmap.NewMOP(geo, 4)
	if err != nil {
		return nil, err
	}

	// The sweep's stream: a baseline run of one sweep workload, four
	// times the sweep's instruction count for a longer log.
	sweepCap, err := captureRun(sim.Config{
		Workload: in.size.sweepWorkloads[0], InstrPerCore: 4 * in.size.sweepInstr, Seed: in.seed,
	}, 1<<20)
	if err != nil {
		return nil, fmt.Errorf("capture sweep stream: %w", err)
	}
	protocolOK := 1.0
	cmds := 0
	for _, log := range sweepCap.logs {
		cmds += len(log)
		if err := dram.CheckProtocol(log, timing.DDR5()); err != nil {
			fmt.Printf("protocol violation: %v\n", err)
			protocolOK = 0
		}
	}
	m["dram.protocol_ok"] = metric{protocolOK, "bool"}
	if protocolOK == 1 {
		ns, err := timeMedian(float64(cmds), func() error {
			for _, log := range sweepCap.logs {
				if err := replayDevice(log, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		m["dram.ns_per_cmd"] = metric{ns, "ns"}
	}

	// The attack's stream: the search's stock double-sided baseline
	// pattern, sized to the search's activation budget.
	attackCap, err := captureRun(sim.Config{
		Workload: "attack:" + attack.BaselineSpec().String(), Cores: 1,
		InstrPerCore: 8 * in.size.attackActs, Seed: in.seed,
	}, 1<<20)
	if err != nil {
		return nil, fmt.Errorf("capture attack stream: %w", err)
	}

	kinds, err := guardKinds()
	if err != nil {
		return nil, err
	}
	for _, k := range kinds {
		for _, src := range []struct {
			c      capture
			suffix string
		}{{sweepCap, "ns_per_act"}, {attackCap, "attack_ns_per_act"}} {
			alerts := 0
			ns, err := timeMedian(float64(src.c.acts), func() error {
				alerts = 0
				for _, log := range src.c.logs {
					alerts += replayGuards(k, log, geo.Banks, in.seed)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			m["mitigation."+k.name+"."+src.suffix] = metric{ns, "ns"}
			if k.name == "mopacd" && src.suffix == "attack_ns_per_act" {
				m["mitigation.alerts_per_kact"] = metric{1000 * float64(alerts) / float64(src.c.acts), "1/kACT"}
			}
		}
	}

	// The oracle on the attack's ground-truth stream.
	streams, err := observerStreams(attackCap)
	if err != nil {
		return nil, err
	}
	ns, err := timeMedian(float64(attackCap.acts), func() error {
		o := oracle.New(replayTRH)
		for _, s := range streams {
			feedOracle(o, s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["oracle.ns_per_act"] = metric{ns, "ns"}
	shards := make([]*oracle.Oracle, len(streams))
	for i, s := range streams {
		shards[i] = oracle.New(replayTRH)
		feedOracle(shards[i], s)
	}
	ns, err = timeMedian(1e3, func() error { oracle.Merge(shards...); return nil })
	if err != nil {
		return nil, err
	}
	m["oracle.merge_us"] = metric{ns, "us"}

	if err := replayEngineLayers(m, in, mapper); err != nil {
		return nil, err
	}
	if err := replaySimLayers(m, in); err != nil {
		return nil, err
	}
	return m, nil
}

// replayEngineLayers measures the event engine, the core model, the
// controller and the workload generators.
func replayEngineLayers(m map[string]metric, in replayInputs, mapper addrmap.Mapper) error {
	scale := max(in.size.replayScale, 1)
	specs, err := workload.PerCoreSpecs(in.size.sweepWorkloads[0], 8)
	if err != nil {
		return err
	}

	// Event engine: 256 pending self-rescheduling events with seeded
	// delays.
	const pendingEvents = 256
	fires := 1 << 20 / scale
	delays := make([]int64, 1024)
	rng := rand.New(rand.NewPCG(in.seed, 0x6576)) // "ev"
	for i := range delays {
		delays[i] = 1 + rng.Int64N(64)
	}
	ns, err := timeMedian(float64(fires), func() error {
		eng := event.NewEngine()
		var fn event.Func
		i := 0
		fn = func(_ any, _ int64) {
			i++
			eng.AfterFunc(delays[i&1023], fn, nil, 0)
		}
		for j := 0; j < pendingEvents; j++ {
			eng.AfterFunc(delays[j], fn, nil, 0)
		}
		for n := 0; n < fires && eng.Step(); n++ {
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["event.ns_per_event"] = metric{ns, "ns"}

	// Core: one core on the sweep workload's first spec, every miss
	// answered after a fixed latency.
	const missLatencyNs = 60
	instr := int64(2_000_000 / scale)
	ns, err = timeMedian(float64(instr), func() error {
		eng := event.NewEngine()
		gen, err := workload.NewGenerator(specs[0], mapper, 0, 1, in.seed)
		if err != nil {
			return err
		}
		core, err := cpu.New(eng, cpu.Config{
			Width: 8, ROB: 256, TargetInstr: instr,
			Submit: func(_ int64, _ bool, done event.Func, ctx any) {
				if done != nil {
					eng.AfterFunc(missLatencyNs, done, ctx, 0)
				}
			},
		}, gen)
		if err != nil {
			return err
		}
		eng.RunWhile(func() bool { return !core.Done() })
		if !core.Done() {
			return fmt.Errorf("core replay stalled")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["cpu.ns_per_instr"] = metric{ns, "ns"}

	// Controller: the sweep workload's reads to subchannel 0 on an
	// unprotected device, enqueued in batches of a realistic queue depth,
	// each batch served to the end before the next arrives.
	const batch = 32
	var locs []addrmap.Loc
	for core := 0; len(locs) < 16384/scale; core = (core + 1) % len(specs) {
		gen, err := workload.NewGenerator(specs[core], mapper, core, len(specs), in.seed)
		if err != nil {
			return err
		}
		for j := 0; j < 256; j++ {
			a, _ := gen.Next()
			if l := mapper.Decode(a.Addr); l.Sub == 0 {
				locs = append(locs, l)
			}
		}
	}
	ns, err = timeMedian(float64(len(locs)), func() error {
		eng := event.NewEngine()
		tm := timing.DDR5()
		geo := mapper.Geometry()
		dev, err := dram.NewDevice(dram.Config{Banks: geo.Banks, Rows: geo.Rows, Timing: tm})
		if err != nil {
			return err
		}
		ctl, err := mc.New(eng, dev, mc.Config{Timing: tm, Seed: in.seed})
		if err != nil {
			return err
		}
		for i := 0; i < len(locs); i += batch {
			for _, l := range locs[i:min(i+batch, len(locs))] {
				r := ctl.NewRequest()
				r.Bank, r.Row, r.Col = l.Bank, l.Row, l.Col
				ctl.Enqueue(r)
			}
			eng.RunWhile(func() bool { return ctl.Pending() > 0 })
		}
		if ctl.Pending() > 0 {
			return fmt.Errorf("controller replay left %d requests", ctl.Pending())
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["mc.ns_per_request"] = metric{ns, "ns"}

	// Workload generators, construction included.
	const accesses = 1 << 16
	ns, err = timeMedian(float64(accesses*len(specs)), func() error {
		for core, spec := range specs {
			gen, err := workload.NewGenerator(spec, mapper, core, len(specs), in.seed)
			if err != nil {
				return err
			}
			for j := 0; j < accesses; j++ {
				gen.Next()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["workload.ns_per_access"] = metric{ns, "ns"}
	ns, err = timeMedian(float64(accesses*len(in.attackSpecs)), func() error {
		for _, s := range in.attackSpecs {
			src, err := s.Build(mapper)
			if err != nil {
				return err
			}
			for j := 0; j < accesses; j++ {
				src.Next()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["workload.attack_ns_per_access"] = metric{ns, "ns"}
	return nil
}

// replaySimLayers measures whole serial runs, system construction,
// config hashing and parameter derivation.
func replaySimLayers(m map[string]metric, in replayInputs) error {
	var fired uint64
	var apriErr []float64
	var host time.Duration
	for _, cfg := range in.sweepSample {
		start := time.Now()
		sys, err := sim.NewSystem(cfg)
		if err != nil {
			return err
		}
		res, err := sys.Run(0)
		if err != nil {
			return err
		}
		host += time.Since(start)
		fired += sys.Engine().Fired()
		if cfg.Design == sim.DesignBaseline {
			if pub, err := workload.Published(cfg.Workload); err == nil && pub.APRI > 0 {
				apriErr = append(apriErr, 100*math.Abs(res.Workload.APRI-pub.APRI)/pub.APRI)
			}
		}
	}
	m["sim.host_ns_per_event"] = metric{float64(host.Nanoseconds()) / float64(fired), "ns"}
	m["sim.events_per_run"] = metric{float64(fired) / float64(len(in.sweepSample)), "count"}
	m["workload.apri_err_pct"] = metric{median(apriErr), "%"}

	ns, err := timeMedian(1e3*float64(len(in.serveCfgs)), func() error {
		for _, cfg := range in.serveCfgs {
			if _, err := sim.NewSystem(cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["sim.new_system_us"] = metric{ns, "us"}

	cfgs := append(append([]sim.Config(nil), in.sweepSample...), in.serveCfgs...)
	ns, err = timeMedian(1e3*float64(len(cfgs)), func() error {
		for _, cfg := range cfgs {
			_ = cfg.Hash()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["runkey.hash_us"] = metric{ns, "us"}

	// The derivations the serve jobs' protected designs need.
	var derive []func()
	for _, cfg := range in.serveCfgs {
		trh := cfg.TRH
		switch cfg.Design {
		case sim.DesignPRAC:
			derive = append(derive, func() { security.DeriveWithP(security.VariantPRAC, trh, 1) })
		case sim.DesignMoPACC:
			derive = append(derive, func() { security.DeriveMoPACC(trh) })
		case sim.DesignMoPACD:
			derive = append(derive, func() { security.DeriveMoPACD(trh) })
		}
	}
	ns, err = timeMedian(1e3*float64(len(derive)), func() error {
		for _, d := range derive {
			d()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["security.derive_us"] = metric{ns, "us"}
	return nil
}
