package config

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"mopac/internal/mc"
	"mopac/internal/sim"
)

func load(t *testing.T, s string) *File {
	t.Helper()
	f, err := Load(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLoadAndExpand(t *testing.T) {
	f := load(t, `{
		"runs": [{
			"name": "demo",
			"designs": ["baseline", "prac"],
			"trhs": [500, 250],
			"workloads": ["mcf", "add"],
			"instr_per_core": 100000,
			"seed": 7
		}]
	}`)
	exps, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2*2*2 {
		t.Fatalf("expansions = %d, want 8", len(exps))
	}
	got := exps[0].Config
	if got.Design != sim.DesignBaseline || got.TRH != 500 || got.Workload != "mcf" ||
		got.InstrPerCore != 100000 || got.Seed != 7 {
		t.Fatalf("first expansion: %+v", got)
	}
	if exps[0].RunName != "demo" {
		t.Fatalf("run name lost")
	}
}

func TestGroupAliases(t *testing.T) {
	f := load(t, `{"runs":[{"designs":["baseline"],"workloads":["stream"]}]}`)
	exps, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 4 {
		t.Fatalf("stream alias expanded to %d", len(exps))
	}
	f = load(t, `{"runs":[{"designs":["baseline"],"workloads":["all"]}]}`)
	exps, _ = f.Expand()
	if len(exps) != 23 {
		t.Fatalf("all alias expanded to %d", len(exps))
	}
}

func TestDefaults(t *testing.T) {
	f := load(t, `{"runs":[{"designs":["mopac-d"],"workloads":["xz"]}]}`)
	exps, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg := exps[0].Config
	if cfg.TRH != 500 || cfg.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestDrainOverrideZero(t *testing.T) {
	f := load(t, `{"runs":[{"designs":["mopac-d"],"workloads":["xz"],"drain_on_ref":0}]}`)
	exps, _ := f.Expand()
	if exps[0].Config.DrainOnREF == nil || *exps[0].Config.DrainOnREF != 0 {
		t.Fatal("explicit zero drain override lost")
	}
	f = load(t, `{"runs":[{"designs":["mopac-d"],"workloads":["xz"]}]}`)
	exps, _ = f.Expand()
	if exps[0].Config.DrainOnREF != nil {
		t.Fatal("absent drain override must stay nil")
	}
}

func TestRejections(t *testing.T) {
	bad := []string{
		`{}`,
		`{"runs":[]}`,
		`{"runs":[{"workloads":["mcf"]}]}`,
		`{"runs":[{"designs":["warp-drive"],"workloads":["mcf"]}]}`,
		`{"runs":[{"designs":["prac"],"workloads":["nope"]}]}`,
		`{"runs":[{"designs":["prac"],"workloads":["mcf"],"policy":"sideways"}]}`,
		`{"runs":[{"designs":["prac"],"workloads":["mcf"],"trhs":[0]}]}`,
		`{"runs":[{"designs":["prac"],"workloads":["mcf"],"bogus_field":1}]}`,
		`not json`,
	}
	for i, s := range bad {
		if _, err := Load(strings.NewReader(s)); err == nil {
			t.Errorf("case %d accepted: %s", i, s)
		}
	}
}

func TestExampleRoundTrips(t *testing.T) {
	ex := Example()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ex); err != nil {
		t.Fatal(err)
	}
	f, err := Load(&buf)
	if err != nil {
		t.Fatalf("example does not load: %v", err)
	}
	exps, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) == 0 {
		t.Fatal("example expands to nothing")
	}
}

func TestExpandedConfigsRun(t *testing.T) {
	f := load(t, `{"runs":[{
		"designs":["mopac-d"],"workloads":["add"],
		"instr_per_core": 60000, "oracle": true
	}]}`)
	exps, err := f.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sim.NewSystem(exps[0].Config)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Oracle == nil || !res.Oracle.Secure() {
		t.Fatal("oracle flag not honoured")
	}
}

func TestParseDesignAndPolicy(t *testing.T) {
	if d, err := ParseDesign("MoPAC-D"); err != nil || d != sim.DesignMoPACD {
		t.Fatalf("ParseDesign = %v, %v", d, err)
	}
	if _, err := ParseDesign("nosuch"); err == nil {
		t.Fatal("unknown design must error")
	}
	if p, err := ParsePolicy(""); err != nil || p != mc.OpenPage {
		t.Fatalf("ParsePolicy(\"\") = %v, %v", p, err)
	}
	if _, err := ParsePolicy("nosuch"); err == nil {
		t.Fatal("unknown policy must error")
	}
	wls, err := expandWorkloads([]string{"stream"})
	if err != nil || len(wls) == 0 {
		t.Fatalf("expandWorkloads = %v, %v", wls, err)
	}
}

// TestRegistryEnumerations: the -list-designs surface must agree with
// the parser — every enumerated name parses, qprac is first-class, and
// the lists are sorted for stable CLI output.
func TestRegistryEnumerations(t *testing.T) {
	ds := Designs()
	if !sort.StringsAreSorted(ds) {
		t.Fatalf("Designs() not sorted: %v", ds)
	}
	found := false
	for _, n := range ds {
		d, err := ParseDesign(n)
		if err != nil {
			t.Fatalf("enumerated design %q does not parse: %v", n, err)
		}
		if d == sim.DesignQPRAC {
			found = true
		}
	}
	if !found {
		t.Fatal("qprac missing from the design registry")
	}
	// Every sim design has exactly one name, and its lower-cased String()
	// parses back to it (mopac-batch's toJobRequest relies on this).
	if len(ds) != len(sim.Designs()) {
		t.Fatalf("Designs() has %d names for %d sim designs", len(ds), len(sim.Designs()))
	}
	for _, d := range sim.Designs() {
		if got, err := ParseDesign(strings.ToLower(d.String())); err != nil || got != d {
			t.Fatalf("ParseDesign(%q) = %v, %v; want %v", strings.ToLower(d.String()), got, err, d)
		}
	}
	ps := Policies()
	if !sort.StringsAreSorted(ps) || len(ps) == 0 {
		t.Fatalf("Policies() malformed: %v", ps)
	}
	for _, n := range ps {
		if n == "" {
			t.Fatal("Policies() leaked the empty open-page alias")
		}
		if _, err := ParsePolicy(n); err != nil {
			t.Fatalf("enumerated policy %q does not parse: %v", n, err)
		}
	}
}
