package sim

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mopac/internal/telemetry"
)

// soloResult runs cfg on its own.
func soloResult(t *testing.T, cfg Config) Result {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultJSON is the bytes the planner's store would hold for res.
func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRideRule pins which configs the registry-derived rule admits:
// designs on baseline timings whose derive leaves the controller alone,
// and nothing that is observed beyond its Result.
func TestRideRule(t *testing.T) {
	var admitted []string
	for _, d := range Designs() {
		if canRide(Config{Design: d, TRH: 500, Workload: "mcf"}) {
			admitted = append(admitted, d.String())
		}
	}
	if got, want := strings.Join(admitted, ","), "Baseline,MoPAC-D,TRR,MINT,PrIDE"; got != want {
		t.Fatalf("designs that ride = %s, want %s", got, want)
	}
	for _, cfg := range []Config{
		{Design: DesignPRAC},
		{Design: DesignQPRAC},
		{Design: DesignMoPACC},
		{Design: DesignMoPACC, RowPress: true},
		{Design: DesignChronos},
		{Design: DesignMoPACD, TrackSecurity: true},
		{Design: DesignMoPACD, CommandLogDepth: 64},
		{Design: DesignMoPACD, Trace: telemetry.New(telemetry.Options{})},
		{Design: DesignMoPACD, SRQSize: -1},
		{Design: DesignBaseline, TrackSecurity: true},
	} {
		cfg.Workload = "mcf"
		if canRide(cfg) {
			t.Errorf("%+v must not ride", cfg)
		}
	}
	for _, cfg := range []Config{
		{Design: DesignMoPACD, TRH: 250, NUP: true},
		{Design: DesignMoPACD, TRH: 1000, RowPress: true},
		{Design: DesignMoPACD, TRH: 250, Chips: 8, SRQSize: 8, DrainOnREF: new(int)},
		{Design: DesignMoPACD, TRH: 500, PInvOverride: 64, Policy: 2, TimeoutNs: 100},
	} {
		cfg.Workload = "mcf"
		if !canRide(cfg) {
			t.Errorf("%+v must ride", cfg)
		}
	}
}

// riderMembers is every config the rule admits that the differential
// test rides: each admitted design at every threshold, and the MoPAC-D
// knobs the figures sweep.
func riderMembers(t *testing.T, base Config) []Config {
	t.Helper()
	drain := 2
	var out []Config
	for _, d := range Designs() {
		probe := base
		probe.Design = d
		if !canRide(probe) {
			continue
		}
		for _, trh := range []int{250, 500, 1000, 4000} {
			c := probe
			c.TRH = trh
			out = append(out, c)
		}
	}
	for _, c := range []Config{
		{Design: DesignMoPACD, TRH: 500, NUP: true},
		{Design: DesignMoPACD, TRH: 250, NUP: true},
		{Design: DesignMoPACD, TRH: 500, SRQSize: 8},
		{Design: DesignMoPACD, TRH: 500, SRQSize: 32},
		{Design: DesignMoPACD, TRH: 500, DrainOnREF: &drain},
		{Design: DesignMoPACD, TRH: 250, Chips: 1},
		{Design: DesignMoPACD, TRH: 250, Chips: 8},
		{Design: DesignMoPACD, TRH: 500, RowPress: true},
		{Design: DesignMoPACD, TRH: 1000, RowPress: true},
		{Design: DesignMoPACD, TRH: 500, PInvOverride: 8},
		// No update count meets the security target at this p, so the
		// guards cannot be built.
		{Design: DesignMoPACD, TRH: 500, PInvOverride: 32},
	} {
		c.Workload, c.InstrPerCore, c.Seed = base.Workload, base.InstrPerCore, base.Seed
		out = append(out, c)
	}
	return out
}

// TestSharedRunMatchesSolo is the differential test: every admitted
// design and knob, ridden on five workloads, gives the byte-identical
// Result of its own run, or is reported diverged. Every config whose
// own run alerts must be reported diverged, and a config whose guards
// cannot be built must not ride. The twin rides along too, so its
// Result is checked unchanged by its riders.
func TestSharedRunMatchesSolo(t *testing.T) {
	rode, diverged, unbuilt := map[Design]int{}, 0, 0
	for _, wl := range []string{"mcf", "xz", "lbm", "bwaves", "add"} {
		base := Config{Workload: wl, InstrPerCore: 15_000, Seed: 3}
		twin := twinOf(base)
		members := append(riderMembers(t, base), twin)
		res, ok, err := rideTwin(context.Background(), twin, members)
		if err != nil {
			t.Fatal(err)
		}
		if !ok[len(members)-1] {
			t.Fatalf("%s: the twin diverged from its own run", wl)
		}
		for i, m := range members {
			sys, err := NewSystem(m)
			if err != nil {
				// Guards that cannot be built never ride; the member's
				// own run reports the error.
				if ok[i] {
					t.Fatalf("%s %+v: rode, but its own run fails: %v", wl, m, err)
				}
				unbuilt++
				continue
			}
			solo, err := sys.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if !ok[i] {
				diverged++
				continue
			}
			if solo.Dev.Alerts > 0 {
				t.Fatalf("%s %+v: rode to the end, but its own run alerts %d times", wl, m, solo.Dev.Alerts)
			}
			if got, want := resultJSON(t, res[i]), resultJSON(t, solo); got != want {
				t.Fatalf("%s %+v: ridden Result differs from its own run:\nridden: %s\nsolo:   %s", wl, m, got, want)
			}
			rode[m.Design]++
		}
	}
	for _, d := range []Design{DesignBaseline, DesignMoPACD, DesignTRR, DesignMINT, DesignPrIDE} {
		if rode[d] == 0 {
			t.Errorf("no %v config rode to the end", d)
		}
	}
	if unbuilt == 0 {
		t.Error("no member had guards that cannot be built")
	}
	t.Logf("rode %v; diverged %d; unbuilt %d", rode, diverged, unbuilt)
}

// TestSharedFlushDivergence forces a divergence: a one-entry SRQ at
// T_RH 250 alerts within the run, so its ride ends, it is re-run on
// its own, counted once, and its Result equals its own run's.
func TestSharedFlushDivergence(t *testing.T) {
	sc := planScale()
	sc.Workloads = []string{"lbm"}
	r := NewRunner(sc)
	p := r.Planner()
	tiny := r.scaled(Config{Design: DesignMoPACD, TRH: 250, Workload: "lbm", SRQSize: 1})
	calm := r.scaled(Config{Design: DesignMoPACD, TRH: 4000, Workload: "lbm"})
	twin := r.scaled(baselineFor(calm))
	for _, cfg := range []Config{twin, tiny, calm} {
		p.Need(cfg)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Executed != st.Unique || st.Unique != 3 || st.Shared != 2 || st.Rerun != 1 {
		t.Fatalf("stats %+v: want 3 executed and unique, the twin and the calm rider shared, 1 re-run", st)
	}
	for _, cfg := range []Config{twin, tiny, calm} {
		got, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		solo := soloResult(t, cfg)
		if resultJSON(t, got) != resultJSON(t, solo) {
			t.Fatalf("%+v: planner Result differs from its own run", cfg)
		}
		if cfg.SRQSize == 1 && solo.Dev.Alerts == 0 {
			t.Fatal("the one-entry SRQ run no longer alerts; the test forces no divergence")
		}
	}
}

// TestSharedFlushInvalidMemberFailsAlone: a config that fails
// validation is not grouped, and one whose guards cannot be built
// leaves its shared run for a solo run. Either fails with its own
// error, and its would-be group still delivers.
func TestSharedFlushInvalidMemberFailsAlone(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bad   Config
		want  string
		rerun int64
	}{
		{"invalid", Config{Design: DesignMoPACD, TRH: 500, SRQSize: -1}, ErrInvalidConfig.Error(), 0},
		{"unbuildable", Config{Design: DesignMoPACD, TRH: 500, PInvOverride: 32}, "no critical update count", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := planScale()
			sc.Parallel = 1
			r := NewRunner(sc)
			p := r.Planner()
			good := []Config{
				r.scaled(Config{Design: DesignMoPACD, TRH: 500, Workload: "add"}),
				r.scaled(Config{Design: DesignTRR, Workload: "add"}),
			}
			tc.bad.Workload = "add"
			bad := r.scaled(tc.bad)
			p.Need(good[0])
			p.Need(bad)
			p.Need(good[1])
			if err := p.Flush(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("flush error = %v, want the bad config's own", err)
			}
			if _, err := p.Get(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("bad config error = %v", err)
			}
			for _, cfg := range good {
				got, err := p.Get(cfg)
				if err != nil {
					t.Fatalf("%v: %v", cfg.Design, err)
				}
				if resultJSON(t, got) != resultJSON(t, soloResult(t, cfg)) {
					t.Fatalf("%v: shared Result differs from its own run", cfg.Design)
				}
			}
			if st := p.Stats(); st.Shared != 2 || st.Rerun != tc.rerun {
				t.Fatalf("stats %+v: want the two valid configs shared, %d re-run", st, tc.rerun)
			}
		})
	}
}
