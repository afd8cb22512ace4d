package sim

import (
	"context"
	"slices"

	"mopac/internal/dram"
	"mopac/internal/mitigation"
)

// This file lets configs share one simulation (DESIGN.md §4c, "Shared
// runs"). A guard changes what the memory system does only by asking
// for an alert: the device serves the RFM, and the controller stalls.
// A config whose design leaves the timing set and the controller
// config at the baseline's therefore issues its guardless twin's
// commands at the twin's instants for as long as its guards stay
// silent. The planner runs the twin once and carries each such
// config's guards along as a rider plane on every device (dram.Rider);
// a config whose guards ask for an alert is re-run on its own.

// twinOf returns c's guardless twin: c on the baseline design, with
// every field that only a guard reads cleared.
func twinOf(c Config) Config {
	c.Design = DesignBaseline
	c.TRH, c.Chips, c.PInvOverride, c.SRQSize = 0, 0, 0, 0
	c.NUP, c.RowPress = false, false
	c.DrainOnREF = nil
	return c
}

// canRide reports whether c may ride a shared run of its twin: it is
// valid, nothing observes it beyond its Result (no oracle, command log
// or tracer), and its design leaves the controller config, timing set
// included (ignoring its name), as the twin's. The rule reads the
// design registry, never a list of design names.
func canRide(c Config) bool {
	if c.Validate() != nil || c.TrackSecurity || c.CommandLogDepth > 0 || c.Trace != nil {
		return false
	}
	twin := twinOf(c)
	c.setDefaults()
	twin.setDefaults()
	_, cm, _ := c.wiring()
	_, tm, _ := twin.wiring()
	cm.Timing.Name = tm.Timing.Name
	return cm == tm
}

// rideTwin simulates twin once, with one rider plane per member on
// every device, and returns each member's Result. rode[i] is false
// when member i diverged, or its guards could not be built, and the
// member must run on its own. A member may be the twin itself.
func rideTwin(ctx context.Context, twin Config, members []Config) (res []Result, rode []bool, err error) {
	sys, err := NewSystem(twin)
	if err != nil {
		return nil, nil, err
	}
	defer sys.Release()
	return sys.ride(ctx, members)
}

// ride runs s, just built for the members' twin, with one rider
// plane per member on every device; see rideTwin.
func (s *System) ride(ctx context.Context, members []Config) (res []Result, rode []bool, err error) {
	planes := make([][]*dram.Rider, len(members))
	for i, m := range members {
		planes[i] = s.addRiders(m)
	}
	twinRes, err := s.RunContext(ctx, 0)
	if err != nil {
		return nil, nil, err
	}
	res = make([]Result, len(members))
	rode = make([]bool, len(members))
	for i, m := range members {
		// A member's riders share one divergence mark.
		if planes[i] == nil || planes[i][0].Diverged() {
			continue
		}
		res[i], rode[i] = riderResult(twinRes, m, planes[i]), true
	}
	return res, rode, nil
}

// addRiders attaches m's guards to every device as rider planes that
// share one divergence mark, or returns nil when they cannot be built.
func (s *System) addRiders(m Config) []*dram.Rider {
	m.setDefaults()
	spec := designs[m.Design]
	_, _, params := m.wiring()
	newGuards := make([]func(chip, bank int) dram.BankGuard, len(s.devs))
	if spec.guard != nil {
		for sub, dev := range s.devs {
			ng, err := spec.guard(m, params, dev.Rows(), nil)
			if err != nil {
				return nil
			}
			newGuards[sub] = ng
		}
	}
	riders := make([]*dram.Rider, len(s.devs))
	diverged := new(bool)
	for sub, dev := range s.devs {
		riders[sub] = dev.AddRider(m.guardChips(), newGuards[sub], diverged)
	}
	return riders
}

// riderResult is the Result m's own run gives: the twin's, with m's
// defaulted config and the counts of m's guards.
func riderResult(twin Result, m Config, planes []*dram.Rider) Result {
	m.setDefaults()
	res := twin
	res.Config = m
	res.IPC = slices.Clone(twin.IPC)
	res.Dev.Mitigations, res.Dev.GuardMitigations = 0, 0
	res.SRQ = mitigation.MoPACDStats{}
	for _, r := range planes {
		st := r.Stats()
		res.Dev.Mitigations += st.Mitigations
		res.Dev.GuardMitigations += st.GuardMitigations
		addSRQ(&res.SRQ, r)
	}
	return res
}
