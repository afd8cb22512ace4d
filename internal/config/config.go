// Package config loads and validates JSON run configurations — the
// analogue of the paper artifact's config_dramsim3/prac/make_ini.py
// generator. A file describes one or more runs (design x threshold x
// workload sweeps) that expand into concrete sim.Config values.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mopac/internal/mc"
	"mopac/internal/sim"
	"mopac/internal/workload"
)

// Run is one JSON run specification. Sweep fields (Designs, TRHs,
// Workloads) cross-multiply; scalar fields apply to every expansion.
type Run struct {
	// Name labels the run group in reports.
	Name string `json:"name"`
	// Designs are design names as listed by Designs().
	Designs []string `json:"designs"`
	// TRHs are the Rowhammer thresholds to sweep (default [500]).
	TRHs []int `json:"trhs,omitempty"`
	// Workloads are Table 4 names, or ["all"], ["spec"], ["stream"],
	// ["mixes"] group aliases.
	Workloads []string `json:"workloads"`
	// InstrPerCore sizes each run (default 1e6).
	InstrPerCore int64 `json:"instr_per_core,omitempty"`
	// Cores is the core count (default 8).
	Cores int `json:"cores,omitempty"`
	// Seed seeds every expansion (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// NUP / RowPress toggle the design options.
	NUP      bool `json:"nup,omitempty"`
	RowPress bool `json:"rowpress,omitempty"`
	// Chips, SRQSize, DrainOnREF, RFMLevel, MaxPostponedREFs tune the
	// MoPAC-D and protocol parameters; nil DrainOnREF keeps the derived
	// rate.
	Chips            int  `json:"chips,omitempty"`
	SRQSize          int  `json:"srq_size,omitempty"`
	DrainOnREF       *int `json:"drain_on_ref,omitempty"`
	RFMLevel         int  `json:"rfm_level,omitempty"`
	MaxPostponedREFs int  `json:"max_postponed_refs,omitempty"`
	// Policy: open | close | timeout (with TimeoutNs).
	Policy    string `json:"policy,omitempty"`
	TimeoutNs int64  `json:"timeout_ns,omitempty"`
	// Oracle attaches the security oracle.
	Oracle bool `json:"oracle,omitempty"`
}

// File is a whole configuration file.
type File struct {
	Runs []Run `json:"runs"`
}

// policyNames maps JSON policy names to controller policies.
var policyNames = map[string]mc.PagePolicy{
	"":        mc.OpenPage,
	"open":    mc.OpenPage,
	"close":   mc.ClosePage,
	"timeout": mc.TimeoutPage,
}

// ParseDesign resolves a design name (case-insensitive) to its sim
// design: the name is the design's String() value, so sim's design
// registry is the only name list. Every CLI, the batch file format and
// the HTTP service parse through here.
func ParseDesign(name string) (sim.Design, error) {
	for _, d := range sim.Designs() {
		if strings.EqualFold(name, d.String()) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("config: unknown design %q", name)
}

// ParsePolicy resolves a JSON page-policy name (case-insensitive,
// empty selects open-page) to its controller policy.
func ParsePolicy(name string) (mc.PagePolicy, error) {
	p, ok := policyNames[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("config: unknown policy %q", name)
	}
	return p, nil
}

// Designs enumerates every registered design name in sorted order —
// the discoverable face of the registry (`-list-designs` on the CLIs).
func Designs() []string {
	var out []string
	for _, d := range sim.Designs() {
		out = append(out, strings.ToLower(d.String()))
	}
	sort.Strings(out)
	return out
}

// Policies enumerates every named page policy in sorted order (the
// empty-string alias for open-page is omitted).
func Policies() []string {
	out := make([]string, 0, len(policyNames))
	for n := range policyNames {
		if n != "" {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Load parses a configuration file from r.
func Load(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("config: no runs defined")
	}
	for i := range f.Runs {
		if err := f.Runs[i].validate(); err != nil {
			return nil, fmt.Errorf("config: run %d (%s): %w", i, f.Runs[i].Name, err)
		}
	}
	return &f, nil
}

// LoadPath parses a configuration file from disk.
func LoadPath(path string) (*File, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return Load(fd)
}

func (r *Run) validate() error {
	if len(r.Designs) == 0 {
		return fmt.Errorf("designs are required")
	}
	for _, d := range r.Designs {
		if _, err := ParseDesign(d); err != nil {
			return fmt.Errorf("unknown design %q", d)
		}
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("workloads are required")
	}
	if _, err := expandWorkloads(r.Workloads); err != nil {
		return err
	}
	if _, ok := policyNames[strings.ToLower(r.Policy)]; !ok {
		return fmt.Errorf("unknown policy %q", r.Policy)
	}
	for _, trh := range r.TRHs {
		if trh <= 0 {
			return fmt.Errorf("non-positive threshold %d", trh)
		}
	}
	if r.InstrPerCore < 0 || r.Cores < 0 {
		return fmt.Errorf("negative sizing")
	}
	return nil
}

// expandWorkloads resolves workload names and group aliases ("all",
// "spec", "stream", "mixes") into concrete Table 4 workload names.
func expandWorkloads(names []string) ([]string, error) {
	var out []string
	for _, n := range names {
		switch strings.ToLower(n) {
		case "all":
			out = append(out, workload.All()...)
		case "spec":
			out = append(out, workload.SPEC()...)
		case "stream":
			out = append(out, workload.Stream()...)
		case "mixes":
			out = append(out, workload.Mixes()...)
		default:
			if _, err := workload.Published(n); err != nil {
				return nil, fmt.Errorf("unknown workload %q", n)
			}
			out = append(out, n)
		}
	}
	return out, nil
}

// Expansion is one concrete run with its provenance.
type Expansion struct {
	RunName string
	Config  sim.Config
}

// Expand cross-multiplies every run into concrete sim configurations.
func (f *File) Expand() ([]Expansion, error) {
	var out []Expansion
	for _, r := range f.Runs {
		wls, err := expandWorkloads(r.Workloads)
		if err != nil {
			return nil, err
		}
		trhs := r.TRHs
		if len(trhs) == 0 {
			trhs = []int{500}
		}
		for _, name := range r.Designs {
			d, err := ParseDesign(name)
			if err != nil {
				return nil, err
			}
			for _, trh := range trhs {
				for _, wl := range wls {
					cfg := sim.Config{
						Design:           d,
						TRH:              trh,
						Workload:         wl,
						Cores:            r.Cores,
						InstrPerCore:     r.InstrPerCore,
						NUP:              r.NUP,
						RowPress:         r.RowPress,
						Chips:            r.Chips,
						SRQSize:          r.SRQSize,
						DrainOnREF:       r.DrainOnREF,
						RFMLevel:         r.RFMLevel,
						MaxPostponedREFs: r.MaxPostponedREFs,
						Policy:           policyNames[strings.ToLower(r.Policy)],
						TimeoutNs:        r.TimeoutNs,
						Seed:             r.Seed,
						TrackSecurity:    r.Oracle,
					}
					if cfg.Seed == 0 {
						cfg.Seed = 1
					}
					out = append(out, Expansion{RunName: r.Name, Config: cfg})
				}
			}
		}
	}
	return out, nil
}

// Example returns a documented example configuration, used by the CLI's
// -init flag.
func Example() *File {
	drain := 2
	return &File{Runs: []Run{
		{
			Name:         "headline",
			Designs:      []string{"baseline", "prac", "mopac-c", "mopac-d"},
			TRHs:         []int{500},
			Workloads:    []string{"spec"},
			InstrPerCore: 1_000_000,
			Seed:         1,
		},
		{
			Name:       "drain-sweep",
			Designs:    []string{"mopac-d"},
			TRHs:       []int{250},
			Workloads:  []string{"lbm", "fotonik3d"},
			DrainOnREF: &drain,
		},
	}}
}
