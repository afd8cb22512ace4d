package mopac

import (
	"os"
	"regexp"
	"testing"

	"mopac/internal/sim"
)

// TestCommittedReportsMatchHashVersion: the committed experiment
// reports name the result semantics they were generated under. A change
// that bumps the hash version changes results, so it must regenerate
// them (make experiments) before this passes.
func TestCommittedReportsMatchHashVersion(t *testing.T) {
	header := regexp.MustCompile("(?m)^Hash version `([^`]+)`")
	for _, name := range []string{"EXPERIMENTS-results.md", "EXPERIMENTS-overheads.md"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		m := header.FindSubmatch(raw)
		if m == nil {
			t.Errorf("%s: no hash version in the header", name)
			continue
		}
		if got, want := string(m[1]), sim.HashVersion(); got != want {
			t.Errorf("%s was generated under %s; the code is at %s: regenerate it", name, got, want)
		}
	}
}
