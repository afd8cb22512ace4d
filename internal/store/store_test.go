package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, "test-v1", "rev1")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	key := "aaaa1111"
	payload := []byte(`{"x":1,"y":"z"}`)
	if _, ok := s.Load(key); ok {
		t.Fatal("load before save must miss")
	}
	if err := s.Save(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: ok=%v got=%s", ok, got)
	}
	if s.Hits() != 1 || s.Misses() != 1 || s.Writes() != 1 || s.Len() != 1 {
		t.Fatalf("counters: hits=%d misses=%d writes=%d len=%d", s.Hits(), s.Misses(), s.Writes(), s.Len())
	}
}

func TestNamespacesAreDisjoint(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir, "result-v1", "rev1")
	b, _ := Open(dir, "summary-v1", "rev1")
	c, _ := Open(dir, "result-v1", "rev2")
	if err := a.Save("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Load("k"); ok {
		t.Fatal("schema namespaces must not share entries")
	}
	if _, ok := c.Load("k"); ok {
		t.Fatal("revision namespaces must not share entries")
	}
	if _, ok := a.Load("k"); !ok {
		t.Fatal("own namespace must hit")
	}
}

func TestEmptyRevisionFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "result-v1", "")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(s.Dir()) != "dev" {
		t.Fatalf("empty revision dir = %s, want dev", s.Dir())
	}
	if _, err := Open(dir, "", "rev"); err == nil {
		t.Fatal("empty schema must be rejected")
	}
}

// TestCorruptEntriesAreMisses covers every way a line of the log can
// be bad: truncation mid-write, garbage bytes, an empty line, a valid
// envelope for a different key, a schema mismatch, and null data. Each
// is tried twice: as the log a fresh handle scans, and written in place
// over the line a handle has already indexed. All must read as misses,
// never errors or wrong data, and a re-save must recover.
func TestCorruptEntriesAreMisses(t *testing.T) {
	key := "deadbeef"
	good := []byte(`{"v":42}`)
	full := append(mustEnvelope(t, "test-v1", key, good), '\n')

	cases := map[string][]byte{
		"truncated":    full[:len(full)/2],
		"garbage":      []byte("not json at all\n"),
		"empty":        []byte("\n"),
		"wrong-key":    append(mustEnvelope(t, "test-v1", "0therkey", good), '\n'),
		"wrong-schema": append(mustEnvelope(t, "test-v2", key, good), '\n'),
		"null-data":    append(mustEnvelope(t, "test-v1", key, nil), '\n'),
	}
	for name, raw := range cases {
		// Scanned: the log holds only the bad line.
		dir := t.TempDir()
		s := open(t, dir)
		writeLog(t, s, raw)
		s = open(t, dir)
		if _, ok := s.Load(key); ok {
			t.Errorf("%s: corrupt line served as a hit", name)
		}
		if err := s.Save(key, good); err != nil {
			t.Fatalf("%s: re-save: %v", name, err)
		}
		if got, ok := s.Load(key); !ok || !bytes.Equal(got, good) {
			t.Fatalf("%s: handle did not recover: ok=%v", name, ok)
		}
		// A torn tail also takes the line appended right after it, so
		// a fresh handle needs one more save to see the record.
		if name == "truncated" {
			if _, ok := open(t, dir).Load(key); ok {
				t.Errorf("%s: line merged with a torn tail served as a hit", name)
			}
			if err := s.Save(key, good); err != nil {
				t.Fatal(err)
			}
		}
		if got, ok := open(t, dir).Load(key); !ok || !bytes.Equal(got, good) {
			t.Fatalf("%s: log did not recover: ok=%v", name, ok)
		}

		// Indexed: the line a handle points at rots in place, padded to
		// its length. The miss drops it from the index, so a re-save by
		// another handle is found by the next load's scan.
		dir = t.TempDir()
		s = open(t, dir)
		if err := s.Save(key, good); err != nil {
			t.Fatal(err)
		}
		rot := bytes.Repeat([]byte(" "), len(full))
		copy(rot, bytes.TrimSuffix(raw, []byte("\n")))
		rot[len(rot)-1] = '\n'
		writeLog(t, s, rot)
		if _, ok := s.Load(key); ok {
			t.Errorf("%s: corrupt indexed line served as a hit", name)
		}
		if err := open(t, dir).Save(key, good); err != nil {
			t.Fatalf("%s: re-save: %v", name, err)
		}
		if got, ok := s.Load(key); !ok || !bytes.Equal(got, good) {
			t.Fatalf("%s: handle did not recover from a corrupt indexed line: ok=%v", name, ok)
		}
	}
}

// writeLog writes raw over the start of s's log.
func writeLog(t *testing.T, s *Store, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(s.Dir(), "records.log"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
}

// appendLog appends raw to s's log, as another writer would.
func appendLog(t *testing.T, s *Store, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(s.Dir(), "records.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
}

// TestTornLineCostsAtMostTheNextLine: a crash mid-append leaves a line
// without its newline. The next append ends it, so a fresh scan loses
// that one record too, and every later record still loads.
func TestTornLineCostsAtMostTheNextLine(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	rec := func(k string) []byte { return []byte(fmt.Sprintf(`{"k":%q}`, k)) }
	if err := s.Save("before", rec("before")); err != nil {
		t.Fatal(err)
	}
	torn := mustEnvelope(t, "test-v1", "torn", rec("torn"))
	appendLog(t, s, torn[:len(torn)/2])
	keys := []string{"next", "later-1", "later-2", "later-3"}
	for _, k := range keys {
		if err := s.Save(k, rec(k)); err != nil {
			t.Fatal(err)
		}
	}
	// The writing handle indexed its own lines, torn neighbour or not.
	for _, k := range keys {
		if got, ok := s.Load(k); !ok || !bytes.Equal(got, rec(k)) {
			t.Fatalf("writer lost %s: ok=%v", k, ok)
		}
	}
	r := open(t, dir)
	for _, k := range []string{"torn", "next"} {
		if _, ok := r.Load(k); ok {
			t.Errorf("%s: read through a torn line", k)
		}
	}
	for _, k := range append([]string{"before"}, keys[1:]...) {
		if got, ok := r.Load(k); !ok || !bytes.Equal(got, rec(k)) {
			t.Errorf("%s lost to the torn line: ok=%v", k, ok)
		}
	}
	// Re-saving the lost record heals it for every later handle.
	if err := r.Save("next", rec("next")); err != nil {
		t.Fatal(err)
	}
	if got, ok := open(t, dir).Load("next"); !ok || !bytes.Equal(got, rec("next")) {
		t.Fatalf("re-saved record not seen: ok=%v", ok)
	}
}

// TestHandleSeesLaterAppends: a handle opened before another one saves
// finds the record on its first miss.
func TestHandleSeesLaterAppends(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir), open(t, dir)
	payload := []byte(`{"from":"a"}`)
	if err := a.Save("k", payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Load("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("b did not see a's record: ok=%v got=%s", ok, got)
	}
	if b.Hits() != 1 || b.Misses() != 0 {
		t.Fatalf("b counters: hits=%d misses=%d", b.Hits(), b.Misses())
	}
}

// TestLastWriteWins: whichever handle appended a key's last line, a
// fresh handle loads that line.
func TestLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir), open(t, dir)
	for round := 0; round < 6; round++ {
		w := a
		if round%2 == 1 {
			w = b
		}
		want := []byte(fmt.Sprintf(`{"round":%d}`, round))
		if err := w.Save("k", want); err != nil {
			t.Fatal(err)
		}
		if got, ok := open(t, dir).Load("k"); !ok || !bytes.Equal(got, want) {
			t.Fatalf("round %d: fresh handle loaded %s (ok=%v), want %s", round, got, ok, want)
		}
	}
}

// TestLenCountsDistinctKeys: re-saves append lines but not keys.
func TestLenCountsDistinctKeys(t *testing.T) {
	dir := t.TempDir()
	a, b := open(t, dir), open(t, dir)
	for _, w := range []*Store{a, b, a} {
		for _, k := range []string{"x", "y", "z"} {
			if err := w.Save(k, []byte(`1`)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, s := range map[string]*Store{"a": a, "b": b, "fresh": open(t, dir)} {
		if n := s.Len(); n != 3 {
			t.Errorf("%s: Len = %d, want 3", name, n)
		}
	}
}

func mustEnvelope(t *testing.T, schema, key string, data []byte) []byte {
	t.Helper()
	raw, err := json.Marshal(envelope{Schema: schema, Key: key, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestConcurrentStoresOnOneDir races two independent Store handles
// (stand-ins for two runner processes) over the same directory and
// keys, mixing saves and loads. Run under -race in CI; the invariant
// is that every successful load returns exactly the bytes some writer
// saved for that key — torn or mixed records are unacceptable.
func TestConcurrentStoresOnOneDir(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir)
	b := open(t, dir)

	const keys = 16
	const rounds = 40
	payload := func(k int) []byte {
		return []byte(fmt.Sprintf(`{"key":%d,"payload":"%080d"}`, k, k))
	}

	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("key-%04d", k)
					if got, ok := s.Load(key); ok {
						if !bytes.Equal(got, payload(k)) {
							t.Errorf("torn read for %s: %s", key, got)
							return
						}
					}
					if err := s.Save(key, payload(k)); err != nil {
						t.Errorf("save %s: %v", key, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%04d", k)
		got, ok := a.Load(key)
		if !ok || !bytes.Equal(got, payload(k)) {
			t.Fatalf("final state of %s: ok=%v", key, ok)
		}
	}
	if n := a.Len(); n != keys {
		t.Fatalf("Len = %d, want %d (temp files must not linger as records)", n, keys)
	}
}
