package sim

import (
	"bytes"
	"io"
	"testing"
)

// TestStepsDeclareWhatTheyWrite: for every report step, PlanStep
// declares runs without executing any, and writing the section after
// one Flush declares and executes nothing more, so a step reads only
// runs its own declaration covered.
func TestStepsDeclareWhatTheyWrite(t *testing.T) {
	for _, s := range Steps() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			r := NewRunner(Scale{InstrPerCore: 20_000, Workloads: []string{"add"}, AttackActs: 2_000, Seed: 1})
			if !r.PlanStep(s.ID) {
				t.Fatalf("PlanStep(%q) = false", s.ID)
			}
			if st := r.Planner().Stats(); st.Unique == 0 || st.Executed != 0 {
				t.Fatalf("PlanStep must declare runs without executing them: %+v", st)
			}
			if err := r.Planner().Flush(); err != nil {
				t.Fatal(err)
			}
			planned := r.Planner().Stats()
			var out bytes.Buffer
			if err := r.WriteStep(s.ID, &out); err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Fatal("the step wrote nothing")
			}
			if st := r.Planner().Stats(); st.Unique != planned.Unique || st.Executed != planned.Executed {
				t.Fatalf("writing reached past the declaration: planned %+v, after writing %+v", planned, st)
			}
		})
	}
}

func TestUnknownStep(t *testing.T) {
	r := NewRunner(Scale{InstrPerCore: 20_000, Workloads: []string{"add"}, Seed: 1})
	if r.PlanStep("nope") {
		t.Fatal(`PlanStep("nope") = true`)
	}
	if err := r.WriteStep("nope", io.Discard); err == nil {
		t.Fatal(`WriteStep("nope") succeeded`)
	}
}
