package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mopac/internal/mc"
	"mopac/internal/telemetry"
)

// recycleCase is one configuration TestRecycledSystemMatchesFresh runs
// on a new System and on recycled ones. With members set, cfg is their
// twin and the run is a shared run with riders.
type recycleCase struct {
	name    string
	cfg     Config
	members []Config
}

func recycleCases() []recycleCase {
	base := func(d Design) Config {
		return Config{Design: d, TRH: 500, Workload: "mcf", Cores: 2, InstrPerCore: 15_000, Seed: 3}
	}
	with := func(d Design, f func(*Config)) Config {
		c := base(d)
		f(&c)
		return c
	}
	var cs []recycleCase
	for _, d := range Designs() {
		cs = append(cs, recycleCase{name: d.String(), cfg: base(d)})
	}
	drain := 2
	cs = append(cs,
		recycleCase{name: "NUP", cfg: with(DesignMoPACD, func(c *Config) { c.NUP, c.TRH = true, 250 })},
		recycleCase{name: "RowPress-C", cfg: with(DesignMoPACC, func(c *Config) { c.RowPress = true })},
		recycleCase{name: "RowPress-D", cfg: with(DesignMoPACD, func(c *Config) { c.RowPress = true })},
		recycleCase{name: "Chips1", cfg: with(DesignMoPACD, func(c *Config) { c.Chips, c.TRH = 1, 250 })},
		recycleCase{name: "Chips8", cfg: with(DesignMoPACD, func(c *Config) { c.Chips, c.TRH = 8, 250 })},
		recycleCase{name: "SRQSize", cfg: with(DesignMoPACD, func(c *Config) { c.SRQSize, c.TRH = 2, 250 })},
		recycleCase{name: "DrainOnREF", cfg: with(DesignMoPACD, func(c *Config) { c.DrainOnREF = &drain })},
		recycleCase{name: "Timeout", cfg: with(DesignMoPACC, func(c *Config) { c.Policy, c.TimeoutNs = mc.TimeoutPage, 60 })},
		recycleCase{name: "Traced", cfg: with(DesignMoPACD, func(c *Config) { c.Trace = telemetry.New(telemetry.Options{}) })},
		recycleCase{name: "CommandLog", cfg: with(DesignPRAC, func(c *Config) { c.CommandLogDepth = 512 })},
		recycleCase{name: "AttackOracle", cfg: Config{
			Design: DesignMoPACD, TRH: 500, Cores: 2, InstrPerCore: 20_000, Seed: 2, TrackSecurity: true,
			Workload: "attack:refresh-sync:sub=1,bank=27,victim=64053,aggr=4,burst=7,phase=3895,gap=189,spread=5",
		}},
		recycleCase{name: "SharedRun", cfg: twinOf(base(DesignMoPACD)), members: []Config{
			base(DesignMoPACD), base(DesignMINT), base(DesignTRR), base(DesignPrIDE),
			with(DesignMoPACD, func(c *Config) { c.SRQSize, c.TRH = 1, 250 }), // diverges
		}},
	)
	return cs
}

// output runs c on s, which init has not yet seen c on, and returns
// everything the run reports: the Result JSON (with the oracle's
// verdict through the summary), and the command log, the trace, or the
// riders' Results where c has them.
func (c recycleCase) output(t *testing.T, s *System) []byte {
	t.Helper()
	cfg := c.cfg
	if cfg.Trace != nil {
		cfg.Trace = telemetry.New(telemetry.Options{})
	}
	if err := s.init(cfg); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if c.members != nil {
		res, rode, err := s.ride(context.Background(), c.members)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			fmt.Fprintf(&out, "%v %s\n", rode[i], mustJSON(t, res[i]))
		}
		return out.Bytes()
	}
	res, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "%s\n%s\n", mustJSON(t, res), mustJSON(t, res.Summary()))
	for _, dev := range s.Devices() {
		fmt.Fprintf(&out, "%s\n", mustJSON(t, dev.CommandLog()))
	}
	if cfg.Trace != nil {
		if err := cfg.Trace.WriteChromeTrace(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// cancelAfter is a context that reports cancellation from its n-th Err
// call on, so a run stops mid-flight at a deterministic point.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// usedSystems returns two Systems for a case to recycle: one that ran a
// larger config of another design to the end, with its Result's JSON,
// and one whose run of another config was cancelled mid-flight with
// reads queued, misses in flight and events pending.
func usedSystems(t *testing.T) (finished *System, res Result, resJSON []byte, cancelled *System) {
	t.Helper()
	finished = new(System)
	big := Config{
		Design: DesignMoPACC, TRH: 250, Workload: "lbm", Cores: 8, InstrPerCore: 30_000, Seed: 9,
		TrackSecurity: true, CommandLogDepth: 64, Policy: mc.ClosePage,
	}
	if err := finished.init(big); err != nil {
		t.Fatal(err)
	}
	res, err := finished.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	cancelled = new(System)
	mid := Config{Design: DesignMoPACD, TRH: 250, Workload: "mix1", Cores: 8, InstrPerCore: 1_000_000, Seed: 5}
	if err := cancelled.init(mid); err != nil {
		t.Fatal(err)
	}
	cancelled.addRiders(Config{Design: DesignMINT, Workload: "mix1", Seed: 5})
	if _, err := cancelled.RunContext(&cancelAfter{Context: context.Background(), n: 3}, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("run was not cancelled mid-flight: %v", err)
	}
	if cancelled.ctrls[0].Pending()+cancelled.ctrls[1].Pending() == 0 || cancelled.eng.Pending() == 0 {
		t.Fatal("cancelled run left no queued reads or pending events")
	}
	return finished, res, mustJSON(t, res), cancelled
}

// TestRecycledSystemMatchesFresh is the recycling differential test:
// every case's output from a System recycled after a larger run of
// another design, and after a run cancelled mid-flight, equals its
// output from a new System byte for byte. A Result collected before
// its System was recycled stays as it was.
func TestRecycledSystemMatchesFresh(t *testing.T) {
	for _, c := range recycleCases() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			want := c.output(t, new(System))
			finished, res, resJSON, cancelled := usedSystems(t)
			if got := c.output(t, finished); !bytes.Equal(got, want) {
				t.Errorf("recycled after a finished run:\n got %.300s\nwant %.300s", got, want)
			}
			if got := c.output(t, cancelled); !bytes.Equal(got, want) {
				t.Errorf("recycled after a cancelled run:\n got %.300s\nwant %.300s", got, want)
			}
			if got := mustJSON(t, res); !bytes.Equal(got, resJSON) {
				t.Errorf("a Result changed when its System was recycled:\n got %.300s\nwant %.300s", got, resJSON)
			}
		})
	}
}

// serveDeck is perfbench's serve deck: every design × workload × T_RH
// combination of its jobs, 8 cores × 5,000 instructions each.
func serveDeck() []Config {
	var deck []Config
	for _, d := range []Design{DesignBaseline, DesignPRAC, DesignMoPACC, DesignMoPACD} {
		for _, wl := range []string{"mcf", "lbm", "parest", "fotonik3d"} {
			for _, trh := range []int{250, 500, 1000} {
				deck = append(deck, Config{Design: d, TRH: trh, Workload: wl, Cores: 8, InstrPerCore: 5_000, Seed: 1})
			}
		}
	}
	return deck
}

// runReleased runs cfg through NewSystem, RunContext and Release.
func runReleased(cfg Config) (Result, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	defer sys.Release()
	return sys.RunContext(context.Background(), 0)
}

// TestJobGarbageBudget bounds what a released serve-sized job leaves to
// the garbage collector: after one warm-up pass over the serve deck,
// the mean bytes allocated per job stay within the budget. Before
// released Systems were recycled a job allocated about 178 KB.
func TestJobGarbageBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released Systems at random under -race")
	}
	const budget = 60 << 10
	deck := serveDeck()
	for _, c := range deck {
		if _, err := runReleased(c); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range deck {
		if _, err := runReleased(c); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / uint64(len(deck))
	t.Logf("%d B and %d objects per job", perJob, (after.Mallocs-before.Mallocs)/uint64(len(deck)))
	if perJob > budget {
		t.Fatalf("a job allocates %d B, over the %d B budget", perJob, budget)
	}
}

// TestConcurrentRecycledRuns runs the serve deck on four goroutines
// that share the pool of released Systems, and checks every Result
// against its run on a new System.
func TestConcurrentRecycledRuns(t *testing.T) {
	deck := serveDeck()[:24]
	want := make([][]byte, len(deck))
	for i, c := range deck {
		s := new(System)
		if err := s.init(c); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mustJSON(t, res)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range deck {
				i := (k + w*len(deck)/4) % len(deck)
				res, err := runReleased(deck[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := mustJSON(t, res); !bytes.Equal(got, want[i]) {
					t.Errorf("%v on %s: recycled run differs from a new one", deck[i].Design, deck[i].Workload)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkServeJob is one serve-sized job: NewSystem, RunContext and
// Release, cycling through the serve deck after one warm-up pass over
// it. Run it with -benchmem: B/op is the garbage a job leaves.
func BenchmarkServeJob(b *testing.B) {
	deck := serveDeck()
	for _, c := range deck {
		if _, err := runReleased(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runReleased(deck[i%len(deck)]); err != nil {
			b.Fatal(err)
		}
	}
}
