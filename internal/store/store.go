// Package store is a persistent, content-addressed result store: JSON
// records addressed by canonical run keys (package runkey). It is the
// disk tier behind both the experiment planner (full results, so warm
// `make experiments` re-runs simulate nothing) and the service result
// cache (run summaries, so a restarted server keeps its history).
//
// The store is deliberately dumb and safe rather than clever:
//
//   - Entries are immutable. A key fully determines its content
//     (seeded runs are deterministic), so there is no invalidation —
//     only versioning: records live under <dir>/<schema>/<revision>/,
//     where schema names the record type ("result-v1", "summary-v1")
//     and revision is the builder's VCS revision (buildinfo). A new
//     binary writes a fresh namespace and old entries simply go cold.
//   - A namespace is one append-only log, <namespace>/records.log, of
//     one compact JSON envelope per line. A save is a single write of
//     one line on an O_APPEND descriptor, so concurrent writers, in one
//     process or several, never interleave, and a record persists as
//     soon as Save returns.
//   - Each handle keeps an in-memory index from a hash of each key to
//     its latest line, built by scanning the log at Open and extended
//     on a miss by scanning what was appended since. The last line for
//     a key wins. A load reads just the indexed line.
//   - Reads are corruption-tolerant: an unreadable, truncated, or
//     mismatched line reads as a miss, never an error, and leaves the
//     index, so the follow-up Save appends a line that wins. A torn
//     line at the tail (a crash mid-append) costs at most itself and
//     the line appended right after it: the scan resyncs at the next
//     newline. Losing a cache entry costs a recompute; trusting a bad
//     one would corrupt a published table.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// envelope wraps a record on disk. Echoing the key and schema inside
// the record lets Load reject lines that were truncated, misindexed,
// or copied across namespaces.
type envelope struct {
	Schema string          `json:"schema"`
	Key    string          `json:"key"`
	Data   json.RawMessage `json:"data"`
}

// Store is one (schema, revision) namespace of a store directory.
// Methods are safe for concurrent use by multiple goroutines and
// cooperating processes.
type Store struct {
	dir    string // namespace directory (includes schema/revision)
	schema string
	log    *os.File // records.log, opened O_APPEND
	seed   maphash.Seed

	mu      sync.Mutex
	index   map[uint64]int64 // key hash -> offset of its latest line
	scanned int64            // log offset up to which lines are indexed

	hits   atomic.Int64
	misses atomic.Int64
	writes atomic.Int64
}

// DefaultDir returns the user-level store root (~/.cache/mopac or the
// platform equivalent).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("store: no user cache dir: %w", err)
	}
	return filepath.Join(base, "mopac"), nil
}

// sanitize keeps namespace path elements to a conservative charset;
// anything else (an empty revision, a "+dirty" suffix, path
// separators) maps to safe characters.
func sanitize(s, fallback string) string {
	if s == "" {
		return fallback
	}
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Open opens (creating if needed) the namespace for one record schema
// and builder revision under dir, and indexes its log. An empty
// revision (builds outside version control, `go run`/`go test` builds)
// falls back to "dev": still persistent and correct — keys are
// content-addressed — just without automatic invalidation across
// source changes that do not change the config encoding.
func Open(dir, schema, revision string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if schema == "" {
		return nil, errors.New("store: empty schema")
	}
	ns := filepath.Join(dir, sanitize(schema, "schema"), sanitize(revision, "dev"))
	if err := os.MkdirAll(ns, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	log, err := os.OpenFile(filepath.Join(ns, "records.log"), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: ns, schema: schema, log: log, seed: maphash.MakeSeed(), index: make(map[uint64]int64)}
	s.scan()
	return s, nil
}

// Dir returns the namespace directory the log lives in.
func (s *Store) Dir() string { return s.dir }

func (s *Store) hash(key string) uint64 { return maphash.String(s.seed, key) }

// scan indexes the complete lines appended since the last scan. An
// incomplete tail stays unscanned until a newline ends it. Callers
// hold s.mu.
func (s *Store) scan() {
	fi, err := s.log.Stat()
	if err != nil || fi.Size() <= s.scanned {
		return
	}
	r := bufio.NewReader(io.NewSectionReader(s.log, s.scanned, fi.Size()-s.scanned))
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return
		}
		var env struct{ Schema, Key string }
		if json.Unmarshal(line, &env) == nil && env.Schema == s.schema {
			s.index[s.hash(env.Key)] = s.scanned
		}
		s.scanned += int64(len(line))
	}
}

// Load returns the record stored under key. A missing, unreadable, or
// corrupt line returns ok=false; a corrupt one leaves the index, so
// the follow-up Save replaces it.
func (s *Store) Load(key string) ([]byte, bool) {
	h := s.hash(key)
	s.mu.Lock()
	off, ok := s.index[h]
	if !ok {
		s.scan() // pick up what other handles appended
		off, ok = s.index[h]
	}
	s.mu.Unlock()
	if ok {
		if data, good := s.read(key, off); good {
			s.hits.Add(1)
			return data, true
		}
		// Truncated write, bit rot, or a foreign record under our
		// key's hash: recompute rather than trust it.
		s.mu.Lock()
		if s.index[h] == off {
			delete(s.index, h)
		}
		s.mu.Unlock()
	}
	s.misses.Add(1)
	return nil, false
}

// read returns the data of the line at off, if it is key's record.
func (s *Store) read(key string, off int64) ([]byte, bool) {
	line, err := bufio.NewReader(io.NewSectionReader(s.log, off, math.MaxInt64-off)).ReadBytes('\n')
	if err != nil {
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil || env.Schema != s.schema || env.Key != key ||
		len(env.Data) == 0 || string(env.Data) == "null" {
		return nil, false
	}
	return env.Data, true
}

// Save appends data under key as one line, in a single write, and
// indexes it. Concurrent saves of the same key are safe: deterministic
// runs make the payloads identical, and the last line wins.
func (s *Store) Save(key string, data []byte) error {
	line, err := json.Marshal(envelope{Schema: s.schema, Key: key, Data: data})
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", key, err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.log.Write(line); err != nil {
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	// The descriptor's offset now ends this line, wherever other
	// writers' lines landed.
	end, err := s.log.Seek(0, io.SeekCurrent)
	if err != nil {
		return fmt.Errorf("store: locate %s: %w", key, err)
	}
	off := end - int64(len(line))
	if off == s.scanned { // nobody else appended since the last scan
		s.scanned = end
	}
	s.index[s.hash(key)] = off
	s.writes.Add(1)
	return nil
}

// Len counts the distinct keys in the namespace's log.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scan()
	return len(s.index)
}

// Hits returns the number of successful loads.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses returns the number of failed loads.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Writes returns the number of records persisted.
func (s *Store) Writes() int64 { return s.writes.Load() }
