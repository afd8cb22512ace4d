package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mopac
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorThroughput-8 	       5	  76089221 ns/op	     71364 simNs/op	 2369865 B/op	    4028 allocs/op
BenchmarkSimulatorThroughput-8 	       5	  75911227 ns/op	     71364 simNs/op	 2369865 B/op	    4030 allocs/op
BenchmarkEngineScheduleAndFireFunc 	  200000	        14.58 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	mopac	1.385s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU == "" {
		t.Fatalf("metadata not captured: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	sim, ok := rep.Benchmarks["BenchmarkSimulatorThroughput"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", rep.Benchmarks)
	}
	if sim.Iterations != 10 {
		t.Fatalf("iterations = %d, want summed 10", sim.Iterations)
	}
	if got := sim.Metrics["simNs/op"]; got != 71364 {
		t.Fatalf("simNs/op = %v", got)
	}
	if got := sim.Metrics["allocs/op"]; got != 4029 {
		t.Fatalf("allocs/op = %v, want averaged 4029", got)
	}
	eng := rep.Benchmarks["BenchmarkEngineScheduleAndFireFunc"]
	if got := eng.Metrics["ns/op"]; got != 14.58 {
		t.Fatalf("ns/op = %v", got)
	}
}

func TestCompare(t *testing.T) {
	base, err := parse(strings.NewReader(sample), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(strings.ReplaceAll(
		sample, "76089221 ns/op", "176089221 ns/op")), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if n := compare(base, cur, 0.30, nil, io.Discard); n != 1 {
		t.Fatalf("failures = %d, want 1 (ns/op more than doubled)", n)
	}
	if n := compare(base, base, 0.30, nil, io.Discard); n != 0 {
		t.Fatalf("self-compare failures = %d", n)
	}
	// A metric filter confines the gate: the regressed ns/op is ignored
	// when only simNs/op is checked.
	if n := compare(base, cur, 0.30, map[string]bool{"simNs/op": true}, io.Discard); n != 0 {
		t.Fatalf("filtered compare failures = %d, want 0", n)
	}
	// A benchmark missing from the current run is a note, not a failure.
	partial, err := parse(strings.NewReader(sample), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	delete(partial.Benchmarks, "BenchmarkEngineScheduleAndFireFunc")
	if n := compare(base, partial, 0.30, nil, io.Discard); n != 0 {
		t.Fatalf("missing benchmark treated as failure: %d", n)
	}
}

func TestAnnotate(t *testing.T) {
	rep := Report{Benchmarks: map[string]Entry{
		"BenchmarkSimulatorThroughput": {Metrics: map[string]float64{"ns/op": 60e6}},
	}}
	rep.annotate()
	if rep.GoMaxProcs < 1 || rep.NumCPU < 1 {
		t.Fatalf("host parallelism not recorded: %+v", rep)
	}
}
