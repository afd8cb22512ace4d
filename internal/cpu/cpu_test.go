package cpu

import (
	"testing"

	"mopac/internal/event"
)

// sliceSource replays a fixed access list.
type sliceSource struct {
	accs []Access
	i    int
}

func (s *sliceSource) Next() (Access, bool) {
	if s.i >= len(s.accs) {
		return Access{}, false
	}
	a := s.accs[s.i]
	s.i++
	return a, true
}

// fakeMemory services every request after a fixed latency.
type fakeMemory struct {
	eng     *event.Engine
	latency int64
	issued  []int64 // issue times
	writes  int
}

func (f *fakeMemory) submit(addr int64, write bool, done event.Func, ctx any) {
	f.issued = append(f.issued, f.eng.Now())
	if write {
		f.writes++
	}
	if done == nil {
		return
	}
	at := f.eng.Now() + f.latency
	f.eng.AtFunc(at, done, ctx, at)
}

func runCore(t *testing.T, target int64, lat int64, accs []Access) (*Core, *fakeMemory, *event.Engine) {
	t.Helper()
	eng := event.NewEngine()
	mem := &fakeMemory{eng: eng, latency: lat}
	core, err := New(eng, Config{
		Width: 16, ROB: 256, TargetInstr: target, Submit: mem.submit,
	}, &sliceSource{accs: accs})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100_000_000)
	return core, mem, eng
}

func TestPureComputeRunsAtFullWidth(t *testing.T) {
	core, _, _ := runCore(t, 16_000, 100, nil)
	if !core.Done() {
		t.Fatal("core never finished")
	}
	// 16000 instructions at 16/ns = 1000 ns.
	if got := core.Stats().FinishedAt; got != 1000 {
		t.Fatalf("finished at %d, want 1000", got)
	}
	if ipc := core.IPC(); ipc != 16 {
		t.Fatalf("IPC = %v, want 16", ipc)
	}
}

func TestSingleMissAddsLatency(t *testing.T) {
	core, mem, _ := runCore(t, 16_000, 200, []Access{{Gap: 0, Addr: 64}})
	if len(mem.issued) != 1 || mem.issued[0] != 0 {
		t.Fatalf("miss issued at %v, want t=0", mem.issued)
	}
	// Retirement blocked at instruction 0 until t=200, then 1000 ns of
	// compute.
	want := int64(200 + 1000)
	if got := core.Stats().FinishedAt; got != want {
		t.Fatalf("finished at %d, want %d", got, want)
	}
	if core.Stats().StallNs != 200 {
		t.Fatalf("stall = %d, want 200", core.Stats().StallNs)
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	core, mem, _ := runCore(t, 16_000, 200, []Access{
		{Gap: 0, Addr: 64},
		{Gap: 0, Addr: 128},
		{Gap: 0, Addr: 192},
	})
	// All three inside the ROB with no dependencies: all issue at t=0.
	for i, at := range mem.issued {
		if at != 0 {
			t.Fatalf("miss %d issued at %d, want 0 (MLP)", i, at)
		}
	}
	want := int64(200 + 1000)
	if got := core.Stats().FinishedAt; got != want {
		t.Fatalf("finished at %d, want %d (latency paid once)", got, want)
	}
}

func TestDependentMissesSerialise(t *testing.T) {
	core, mem, _ := runCore(t, 16_000, 200, []Access{
		{Gap: 0, Addr: 64},
		{Gap: 0, Addr: 128, Dep: true},
	})
	if len(mem.issued) != 2 {
		t.Fatalf("issued %d misses", len(mem.issued))
	}
	if mem.issued[1] < 200 {
		t.Fatalf("dependent miss issued at %d, want >= 200", mem.issued[1])
	}
	want := int64(400 + 1000)
	if got := core.Stats().FinishedAt; got != want {
		t.Fatalf("finished at %d, want %d (two serialised latencies)", got, want)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// Second miss sits 300 instructions after the first: outside the
	// 256-entry window while the first blocks retirement at 0.
	_, mem, _ := runCore(t, 16_000, 200, []Access{
		{Gap: 0, Addr: 64},
		{Gap: 299, Addr: 128},
	})
	if mem.issued[0] != 0 {
		t.Fatalf("first miss at %d", mem.issued[0])
	}
	// After the first returns at t=200, retirement must cover
	// (300-256)=44 instructions (3 ns at width 16) before the second
	// fits in the window.
	if mem.issued[1] < 200 {
		t.Fatalf("second miss issued at %d; ROB should have blocked it until 200+", mem.issued[1])
	}
	if mem.issued[1] > 210 {
		t.Fatalf("second miss issued at %d; expected shortly after 200", mem.issued[1])
	}
}

func TestGapDelaysIssue(t *testing.T) {
	// A miss 4096 instructions in cannot issue before fetch reaches
	// 4096-256 = 3840 instructions = 240 ns.
	_, mem, _ := runCore(t, 16_000, 50, []Access{{Gap: 4096, Addr: 64}})
	if len(mem.issued) != 1 {
		t.Fatalf("issued %d misses", len(mem.issued))
	}
	if mem.issued[0] != 240 {
		t.Fatalf("miss issued at %d, want 240", mem.issued[0])
	}
}

func TestMissBeyondTargetIgnored(t *testing.T) {
	core, mem, _ := runCore(t, 1000, 50, []Access{{Gap: 5000, Addr: 64}})
	if len(mem.issued) != 0 {
		t.Fatal("miss beyond the target must not issue")
	}
	if core.Stats().FinishedAt != 63 { // ceil(1000/16)
		t.Fatalf("finished at %d, want 63", core.Stats().FinishedAt)
	}
}

func TestManyMissesAllServed(t *testing.T) {
	var accs []Access
	for i := 0; i < 200; i++ {
		accs = append(accs, Access{Gap: 40, Addr: int64(i * 64), Dep: i%3 == 0})
	}
	core, mem, _ := runCore(t, 100_000, 80, accs)
	if !core.Done() {
		t.Fatal("core never finished")
	}
	if int64(len(mem.issued)) != core.Stats().Misses || len(mem.issued) != 200 {
		t.Fatalf("issued %d, stats %d, want 200", len(mem.issued), core.Stats().Misses)
	}
	// Sanity: IPC strictly below peak because of dependent misses.
	if ipc := core.IPC(); ipc >= 16 || ipc <= 0 {
		t.Fatalf("IPC = %v", ipc)
	}
}

func TestHigherLatencyLowersIPC(t *testing.T) {
	mk := func(lat int64) float64 {
		var accs []Access
		for i := 0; i < 300; i++ {
			accs = append(accs, Access{Gap: 30, Addr: int64(i * 64), Dep: true})
		}
		core, _, _ := runCore(t, 50_000, lat, accs)
		return core.IPC()
	}
	fast, slow := mk(40), mk(62)
	if !(slow < fast) {
		t.Fatalf("IPC fast=%v slow=%v; latency must hurt dependent chains", fast, slow)
	}
	// The slowdown should be roughly proportional to the latency delta
	// for a fully dependent chain.
	slowdown := 1 - slow/fast
	if slowdown < 0.2 {
		t.Fatalf("slowdown %.3f too small for 55%% latency growth", slowdown)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := event.NewEngine()
	bad := []Config{
		{Width: 0, ROB: 1, TargetInstr: 1, Submit: func(int64, bool, event.Func, any) {}},
		{Width: 1, ROB: 0, TargetInstr: 1, Submit: func(int64, bool, event.Func, any) {}},
		{Width: 1, ROB: 1, TargetInstr: 0, Submit: func(int64, bool, event.Func, any) {}},
		{Width: 1, ROB: 1, TargetInstr: 1},
	}
	for i, cfg := range bad {
		if _, err := New(eng, cfg, &sliceSource{}); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	// A store at position 0 with huge latency must not stall the core.
	core, mem, _ := runCore(t, 16_000, 1_000_000, []Access{
		{Gap: 0, Addr: 64, Write: true},
	})
	if !core.Done() {
		t.Fatal("core never finished")
	}
	if got := core.Stats().FinishedAt; got != 1000 {
		t.Fatalf("finished at %d; the store must not block", got)
	}
	if mem.writes != 1 || core.Stats().Stores != 1 {
		t.Fatalf("store not submitted: mem=%d stats=%d", mem.writes, core.Stats().Stores)
	}
}

func TestStoreForwardsToDependentLoad(t *testing.T) {
	// A load marked dependent on a preceding store issues immediately
	// (store-to-load forwarding).
	_, mem, _ := runCore(t, 16_000, 500, []Access{
		{Gap: 0, Addr: 64, Write: true},
		{Gap: 0, Addr: 128, Dep: true},
	})
	if len(mem.issued) != 2 || mem.issued[1] != 0 {
		t.Fatalf("dependent load after store issued at %v, want t=0", mem.issued)
	}
}

func TestMSHRLimitSerialisesIssues(t *testing.T) {
	eng := event.NewEngine()
	mem := &fakeMemory{eng: eng, latency: 100}
	core, err := New(eng, Config{
		Width: 16, ROB: 256, TargetInstr: 16_000, MSHRs: 1, Submit: mem.submit,
	}, &sliceSource{accs: []Access{
		{Gap: 0, Addr: 64},
		{Gap: 0, Addr: 128},
		{Gap: 0, Addr: 192},
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100_000_000)
	if !core.Done() {
		t.Fatal("core never finished")
	}
	// One MSHR: misses issue back to back at 0, 100, 200.
	want := []int64{0, 100, 200}
	for i, at := range mem.issued {
		if at != want[i] {
			t.Fatalf("issue times %v, want %v", mem.issued, want)
		}
	}
	// Total time pays three serialised latencies.
	if got := core.Stats().FinishedAt; got != 300+1000 {
		t.Fatalf("finished at %d, want 1300", got)
	}
}

func TestMSHRLimitIgnoresStores(t *testing.T) {
	eng := event.NewEngine()
	mem := &fakeMemory{eng: eng, latency: 1_000_000}
	core, err := New(eng, Config{
		Width: 16, ROB: 256, TargetInstr: 16_000, MSHRs: 1, Submit: mem.submit,
	}, &sliceSource{accs: []Access{
		{Gap: 0, Addr: 64, Write: true},
		{Gap: 0, Addr: 128, Write: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100_000_000)
	if !core.Done() || core.Stats().FinishedAt != 1000 {
		t.Fatalf("stores throttled by MSHRs: %+v", core.Stats())
	}
	if mem.writes != 2 {
		t.Fatalf("writes = %d", mem.writes)
	}
}

// runProbed runs a core against a fixed-latency memory whose completion
// handler first records whether retirement sits at the oldest blocker
// when the completion arrives, the condition missDone's settle
// shortcut keys on.
func runProbed(t *testing.T, target, lat int64, accs []Access) (Stats, []bool) {
	t.Helper()
	eng := event.NewEngine()
	var core *Core
	var atBlocker []bool
	probe := func(ctx any, arg int64) {
		atBlocker = append(atBlocker, core.retired == core.oldestBlocker())
		missDone(ctx, arg)
	}
	var err error
	core, err = New(eng, Config{
		Width: 16, ROB: 256, TargetInstr: target,
		Submit: func(_ int64, _ bool, done event.Func, ctx any) {
			at := eng.Now() + lat
			eng.AtFunc(at, probe, ctx, at)
		},
	}, &sliceSource{accs: accs})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(100_000_000)
	return core.Stats(), atBlocker
}

// TestCompletionAtBlockerStats pins a dependent chain in which every
// completion finds retirement parked at the completing miss. Misses
// sit at instructions 32, 65, 98, 131 and 164 and each depends on the
// one before, so each issues when its predecessor returns (t = 0, 200,
// ..., 800) and completes 200 ns later. Retirement reaches instruction
// 32 at t = 2 and each later miss 3 ns after the previous completion
// (33 instructions at 16 per ns, rounded up to the wake), so the
// stalls are 198 + 4 * 197 = 986 ns. The last 161 instructions after
// t = 1000 take 11 wakes' worth: finished at 1011.
func TestCompletionAtBlockerStats(t *testing.T) {
	accs := []Access{{Gap: 32, Addr: 64}}
	for i := 1; i < 5; i++ {
		accs = append(accs, Access{Gap: 32, Addr: int64(i+1) * 64, Dep: true})
	}
	st, atBlocker := runProbed(t, 325, 200, accs)
	if len(atBlocker) != 5 {
		t.Fatalf("%d completions, want 5", len(atBlocker))
	}
	for i, at := range atBlocker {
		if !at {
			t.Fatalf("completion %d arrived with retirement short of the blocker", i)
		}
	}
	if st.Retired != 325 || st.StallNs != 986 || st.FinishedAt != 1011 {
		t.Fatalf("stats %+v, want Retired 325, StallNs 986, FinishedAt 1011", st)
	}
}

// TestCompletionWhileRetiringStats pins an MLP stream whose completions
// all arrive while retirement is still moving. Independent misses at
// instructions 320, 330 and 340 issue at t = 4, 5 and 6, the first
// wakes at which retirement (64, 80, 96) brings them inside the
// 256-entry ROB, so up to three are in flight at once. Each returns
// 10 ns later, before retirement reaches instruction 320 at t = 20, so
// retirement never stalls: 1600 instructions at 16 per ns finish at
// t = 100.
func TestCompletionWhileRetiringStats(t *testing.T) {
	st, atBlocker := runProbed(t, 1600, 10, []Access{
		{Gap: 320, Addr: 64},
		{Gap: 9, Addr: 128},
		{Gap: 9, Addr: 192},
	})
	if len(atBlocker) != 3 {
		t.Fatalf("%d completions, want 3", len(atBlocker))
	}
	for i, at := range atBlocker {
		if at {
			t.Fatalf("completion %d arrived with retirement at the blocker", i)
		}
	}
	if st.Retired != 1600 || st.StallNs != 0 || st.FinishedAt != 100 {
		t.Fatalf("stats %+v, want Retired 1600, StallNs 0, FinishedAt 100", st)
	}
}

// cycleSource repeats a fixed access list forever.
type cycleSource struct {
	accs []Access
	i    int
}

func (s *cycleSource) Next() (Access, bool) {
	a := s.accs[s.i%len(s.accs)]
	s.i++
	return a, true
}

// BenchmarkCoreIssue measures the core's issue/retire loop against a
// fixed-latency memory: one op is one retired instruction of a stream
// with a miss every 20 instructions (every fourth dependent, every
// eighth a store), each read answered 60 ns after issue.
func BenchmarkCoreIssue(b *testing.B) {
	accs := make([]Access, 64)
	for i := range accs {
		accs[i] = Access{Gap: 19, Addr: int64(i) * 64, Dep: i%4 == 3, Write: i%8 == 7}
	}
	eng := event.NewEngine()
	core, err := New(eng, Config{
		Width: 8, ROB: 256, TargetInstr: int64(b.N),
		Submit: func(_ int64, _ bool, done event.Func, ctx any) {
			if done != nil {
				at := eng.Now() + 60
				eng.AtFunc(at, done, ctx, at)
			}
		},
	}, &cycleSource{accs: accs})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunWhile(func() bool { return !core.Done() })
	if !core.Done() {
		b.Fatal("core stalled")
	}
}
