package telemetry

import (
	"strings"
	"testing"
)

func TestEmitAndSummary(t *testing.T) {
	tr := New(Options{})
	dev := tr.Device("sub0", 2)
	mc := tr.MC("mc0")
	mit := tr.Mitigation("mit0")
	core := tr.Core("core0")

	if got := tr.Tracks(); got != 6 { // sub0, 2 banks, mc0, mit0, core0
		t.Fatalf("Tracks() = %d, want 6", got)
	}
	if name := tr.TrackName(0); name != "sub0" {
		t.Fatalf("TrackName(0) = %q", name)
	}

	dev.Act(100, 0, 7)
	dev.Read(120, 0, 7)
	dev.Write(130, 0, 7)
	dev.Precharge(180, 0, 7, false, 80)
	dev.Precharge(400, 1, 9, true, 50)
	dev.Refresh(500, 295)
	dev.ABO(900, 350)
	dev.Alert(890)
	mc.QueueDepth(100, 3)
	mc.SchedHit(110, 0, 7)
	mc.SchedMiss(111, 1, 9)
	mc.SchedConflict(112, 1, 4)
	mc.ABOStall(880, 370)
	mc.REFStall(500, 295)
	mc.Request(90, 120, 0, 7)
	mit.Mitigated(910, 1, 9)
	mit.Drain(905, 1, 2)
	mit.SRQDepth(905, 1, 0)
	core.Issue(80, false)
	core.Issue(81, true)
	core.Served(80, 130)

	if got := tr.KindCount(KindACT); got != 1 {
		t.Fatalf("KindCount(ACT) = %d", got)
	}
	if got := tr.KindCount(KindPRECU); got != 1 {
		t.Fatalf("KindCount(PREcu) = %d", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d, want 0", got)
	}

	s := tr.Summary()
	if s.Tracks != 6 || s.Records != 23 || s.Dropped != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.ReadLatency.Count != 1 || s.ReadLatency.Max != 120 {
		t.Fatalf("read latency summary = %+v", s.ReadLatency)
	}
	if s.QueueDepth.Count != 1 || s.QueueDepth.Max != 3 {
		t.Fatalf("queue depth summary = %+v", s.QueueDepth)
	}
	if s.SRQDepth.Count != 1 {
		t.Fatalf("srq depth summary = %+v", s.SRQDepth)
	}
	var kinds []string
	for _, k := range s.Counts {
		kinds = append(kinds, k.Kind)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"ACT", "PREcu", "row-open", "RFM", "ALERT", "srq-drain", "miss-served"} {
		if !strings.Contains(joined, want) {
			t.Errorf("summary counts missing kind %q in %s", want, joined)
		}
	}
}

func TestRingWrapCountsDrops(t *testing.T) {
	tr := New(Options{TrackLimit: 4})
	id := tr.NewTrack("t")
	for i := 0; i < 10; i++ {
		tr.Emit(id, KindACT, int64(i), 0, int32(i), 0)
	}
	if got := tr.Records(); got != 4 {
		t.Fatalf("Records() = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	// The ring keeps the newest records, returned in order.
	recs := tr.trackRecords(id)
	if len(recs) != 4 {
		t.Fatalf("trackRecords len = %d", len(recs))
	}
	for i, r := range recs {
		if want := int64(6 + i); r.At != want {
			t.Fatalf("recs[%d].At = %d, want %d", i, r.At, want)
		}
	}
	// Emission counts survive overwrites.
	if got := tr.KindCount(KindACT); got != 10 {
		t.Fatalf("KindCount = %d, want 10", got)
	}
}

func TestWindowFiltering(t *testing.T) {
	tr := New(Options{WindowStartNs: 100, WindowEndNs: 200})
	id := tr.NewTrack("t")
	for _, at := range []int64{0, 99, 100, 150, 199, 200, 500} {
		tr.Emit(id, KindRD, at, 0, 0, 0)
	}
	if got := tr.Records(); got != 3 {
		t.Fatalf("Records() = %d, want 3 (window [100,200))", got)
	}
}

func TestKindString(t *testing.T) {
	if KindACT.String() != "ACT" || KindSRQDepth.String() != "srq-depth" {
		t.Fatalf("kind names wrong: %q %q", KindACT, KindSRQDepth)
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Fatalf("out-of-range kind = %q", got)
	}
	for k := Kind(0); k < kindCount; k++ {
		if kindNames[k] == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestParseWindow(t *testing.T) {
	cases := []struct {
		in     string
		lo, hi int64
		err    bool
	}{
		{"", 0, 0, false},
		{"100:200", 100, 200, false},
		{":200", 0, 200, false},
		{"100:", 100, 0, false},
		{":", 0, 0, false},
		{"200:100", 0, 0, true},
		{"100:100", 0, 0, true},
		{"-5:100", 0, 0, true},
		{"abc:100", 0, 0, true},
		{"100", 0, 0, true},
	}
	for _, c := range cases {
		lo, hi, err := ParseWindow(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseWindow(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && (lo != c.lo || hi != c.hi) {
			t.Errorf("ParseWindow(%q) = (%d, %d), want (%d, %d)", c.in, lo, hi, c.lo, c.hi)
		}
	}
}
