// Package store persists simulation results on disk so long sweeps survive
// crashes, OOM kills, and SIGKILL. A full paper sweep is six workloads ×
// many configurations × five widths; at large -scale that is minutes of
// CPU, and before this store a dead process lost all of it. With it, every
// completed (trace, config, width, scale) cell is durable the moment it
// finishes, and a re-run resumes from the cells already on disk.
//
// # Keying
//
// Entries are keyed by what actually determines a result:
//
//   - the trace *content* hash (trace.ContentHash) — not a file name, so a
//     regenerated identical trace still hits and a changed one cannot;
//   - the configuration fingerprint (core.Config.Fingerprint) — canonical
//     and injective over every field, so ablations can never collide;
//   - the issue width, workload scale, and (when non-default) window size
//     and self-check mode.
//
// # Durability and integrity
//
// Entries are versioned JSON written via temp-file + fsync + atomic rename
// into the store directory, so a crash mid-write can never leave a
// half-written entry under a live name. Every entry carries a 64-bit
// checksum (trace.Checksum64, the trace format's integrity primitive) over
// the serialized result; on read, a version mismatch, checksum mismatch,
// parse failure, or key mismatch makes the entry a miss — a corrupt store
// can cost recomputation, never a silently wrong result. Corruption errors
// wrap both ErrCorruptEntry and the trace corruption taxonomy
// (trace.IsCorrupt reports true), so the CLIs classify them uniformly.
//
// Only successful results are persisted: failures may be transient across
// process invocations and must be re-attempted by the next run.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Version is the entry format version. Entries written by a different
// version are treated as misses (recompute, overwrite), never trusted.
const Version = 1

var (
	// ErrMiss: no usable entry for the key (absent, unreadable, corrupt,
	// version-mismatched, or key-hash collision). Callers recompute.
	ErrMiss = errors.New("store: miss")
	// ErrCorruptEntry: the entry existed but failed integrity validation.
	// Errors wrapping it also wrap the trace corruption taxonomy, so
	// trace.IsCorrupt reports true for them.
	ErrCorruptEntry = errors.New("store: corrupt entry")
)

// Key identifies one simulation result. Every field participates in the
// identity; Workload is informational but still part of the key (it also
// makes store filenames human-readable).
type Key struct {
	Trace    uint64 `json:"trace"`              // trace.ContentHash of the simulated trace
	Config   string `json:"config"`             // core.Config.Fingerprint()
	Width    int    `json:"width"`              // maximum issue width
	Scale    int    `json:"scale"`              // workload scale (normalized, never 0)
	Window   int    `json:"window,omitempty"`   // window size; 0 = the default 2x width
	Checked  bool   `json:"checked,omitempty"`  // result produced with SelfCheck sweeps
	Workload string `json:"workload,omitempty"` // workload or input name
}

// canonical renders the key's identity string (hashed into the filename
// and compared verbatim on read).
func (k Key) canonical() string {
	return fmt.Sprintf("%016x|%s|w%d|s%d|win%d|chk%t|%s",
		k.Trace, k.Config, k.Width, k.Scale, k.Window, k.Checked, k.Workload)
}

// filename maps the key to its entry file: a human-readable prefix plus
// the key hash. Distinct keys mapping to the same name (a 64-bit hash
// collision within matching workload/width/scale) degrade to a miss via
// the on-read key comparison — never to a wrong result.
func (k Key) filename() string {
	return fmt.Sprintf("%s-w%d-s%d-%016x.json",
		sanitize(k.Workload), k.Width, k.Scale, trace.Checksum64([]byte(k.canonical())))
}

// sanitize restricts the filename prefix to portable characters.
func sanitize(s string) string {
	if s == "" {
		return "run"
	}
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	const max = 48
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	Hits        int64 `json:"hits"`         // entries served
	Misses      int64 `json:"misses"`       // lookups that fell through to computation
	Corrupt     int64 `json:"corrupt"`      // entries rejected by integrity validation (subset of Misses)
	Writes      int64 `json:"writes"`       // entries persisted
	WriteErrors int64 `json:"write_errors"` // failed persist attempts (best-effort; result still returned)
	TmpCleaned  int64 `json:"tmp_cleaned"`  // stale temp files removed at Open
}

// staleTmpAge is how old an orphaned temp file must be before Open
// removes it. The age guard keeps Open from yanking a temp file another
// live process is writing into the same directory right now; a crashed
// writer's leftovers cross the threshold soon enough (ddstore gc removes
// them on demand with a configurable age).
const staleTmpAge = time.Hour

// tmpPrefix marks in-flight entry writes; anything carrying it under a
// live name is garbage by definition.
const tmpPrefix = ".tmp-"

// corruptDirName is the quarantine subdirectory repair moves damaged
// entries into.
const corruptDirName = "corrupt"

// Store is a durable result store rooted at one directory. All methods are
// safe for concurrent use.
type Store struct {
	dir  string
	fsys faultfs.FS

	hits, misses, corrupt, writes, writeErrs, tmpCleaned atomic.Int64

	// I/O latency histograms, armed by Instrument. Atomic pointers so a
	// late Instrument call can never race a concurrent Get/Put.
	getLatency, putLatency atomic.Pointer[metrics.Histogram]
}

// Instrument registers the store's counters and I/O latency histograms
// with the serving metrics registry: the counters are read-through
// bridges over the same atomics Stats() snapshots (one source of truth,
// two views), and every subsequent Get/Put observes its wall-clock
// duration into store_get_seconds / store_put_seconds.
func (s *Store) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("store_hits_total", "store entries served", func() float64 { return float64(s.hits.Load()) })
	reg.CounterFunc("store_misses_total", "store lookups that fell through to computation", func() float64 { return float64(s.misses.Load()) })
	reg.CounterFunc("store_corrupt_total", "store entries rejected by integrity validation", func() float64 { return float64(s.corrupt.Load()) })
	reg.CounterFunc("store_writes_total", "store entries persisted", func() float64 { return float64(s.writes.Load()) })
	reg.CounterFunc("store_write_errors_total", "failed store persist attempts", func() float64 { return float64(s.writeErrs.Load()) })
	reg.CounterFunc("store_tmp_cleaned_total", "stale temp files removed at open", func() float64 { return float64(s.tmpCleaned.Load()) })
	s.getLatency.Store(reg.Histogram("store_get_seconds", "store read latency (disk + decode + verify)", nil))
	s.putLatency.Store(reg.Histogram("store_put_seconds", "store write latency (encode + fsync + rename + dir fsync)", nil))
}

// Open creates (if needed) and opens a store directory on the real
// filesystem.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, faultfs.OS{})
}

// OpenFS is Open over an explicit filesystem — faultfs.OS in production,
// a *faultfs.Sim under the power-fail property tests and campaign.
// Opening sweeps stale temp files left behind by a crashed writer (older
// than one hour; Stats.TmpCleaned counts them) so they cannot accumulate
// forever.
func OpenFS(dir string, fsys faultfs.FS) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, fsys: fsys}
	s.cleanStaleTmp()
	return s, nil
}

// cleanStaleTmp removes orphaned temp files past the stale age. Failures
// are ignored: cleanup is hygiene, never a reason to refuse to open.
func (s *Store) cleanStaleTmp() {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTmpAge)
	removed := false
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		fi, err := e.Info()
		if err != nil || fi.ModTime().After(cutoff) {
			continue
		}
		if s.fsys.Remove(filepath.Join(s.dir, e.Name())) == nil {
			s.tmpCleaned.Add(1)
			removed = true
		}
	}
	if removed {
		_ = s.fsys.SyncDir(s.dir)
	}
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the hit/miss/corruption counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrs.Load(),
		TmpCleaned:  s.tmpCleaned.Load(),
	}
}

// PerfInfo is the optional performance metadata of one entry: how long the
// simulation that produced it took and at what throughput. It is additive —
// absent in entries written before it existed, ignored by readers that
// predate it — so it costs no Version bump. It is informational only:
// excluded from the checksum'd Result payload and never part of the key.
type PerfInfo struct {
	Seconds      float64 `json:"seconds"`
	MInstrPerSec float64 `json:"minstr_per_sec"`
}

// envelope is the on-disk entry framing.
type envelope struct {
	V      int             `json:"v"`
	Key    Key             `json:"key"`
	Sum    string          `json:"sum"` // trace.Checksum64 over Result bytes, %016x
	Perf   *PerfInfo       `json:"perf,omitempty"`
	Result json.RawMessage `json:"result"`
}

// Get returns the stored result for k, or an error explaining the miss.
// Every non-nil error means "recompute": os-level failures and absent
// entries wrap ErrMiss, integrity failures wrap ErrCorruptEntry (and the
// trace corruption taxonomy) and are additionally counted in
// Stats.Corrupt. Get never returns a result that failed validation.
func (s *Store) Get(k Key) (*core.Result, error) {
	if h := s.getLatency.Load(); h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start).Seconds()) }()
	}
	data, err := s.fsys.ReadFile(filepath.Join(s.dir, k.filename()))
	if err != nil {
		s.misses.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrMiss, err)
	}
	gotKey, res, err := Decode(data)
	if err != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, err
	}
	if gotKey.canonical() != k.canonical() {
		// Filename hash collision or a moved entry: the stored key is not
		// ours, so the result is not ours either.
		s.misses.Add(1)
		return nil, fmt.Errorf("%w: entry key %q does not match requested %q", ErrMiss, gotKey.canonical(), k.canonical())
	}
	s.hits.Add(1)
	return res, nil
}

// Decode parses and integrity-checks one serialized entry, returning the
// key it was stored under and the result. It is exported for the store
// fuzzer (FuzzStoreRead): every failure must be a classified corruption
// error — never a panic, never a silently wrong result.
func Decode(data []byte) (Key, *core.Result, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Key{}, nil, fmt.Errorf("%w: %w: %v", ErrCorruptEntry, trace.ErrCorruptRecord, err)
	}
	if env.V != Version {
		return Key{}, nil, fmt.Errorf("%w: %w: entry version %d, want %d", ErrCorruptEntry, trace.ErrBadVersion, env.V, Version)
	}
	if want := fmt.Sprintf("%016x", trace.Checksum64(env.Result)); env.Sum != want {
		return Key{}, nil, fmt.Errorf("%w: %w: entry checksum %s, want %s", ErrCorruptEntry, trace.ErrCorruptRecord, env.Sum, want)
	}
	var res core.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return Key{}, nil, fmt.Errorf("%w: %w: result payload: %v", ErrCorruptEntry, trace.ErrCorruptRecord, err)
	}
	return env.Key, &res, nil
}

// Put persists res under k via temp-file + fsync + atomic rename + parent
// directory fsync. A failed Put leaves no partial entry behind (the temp
// file is removed) and the previous entry, if any, intact. A nil return is
// a durability promise: the entry survives power loss from this point on
// (the directory fsync is what makes the rename itself durable — see
// docs/robustness.md §8).
func (s *Store) Put(k Key, res *core.Result) error {
	return s.PutWithPerf(k, res, nil)
}

// PutWithPerf is Put carrying optional performance metadata in the entry
// envelope (nil p writes an entry identical to Put's).
func (s *Store) PutWithPerf(k Key, res *core.Result, p *PerfInfo) error {
	if h := s.putLatency.Load(); h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start).Seconds()) }()
	}
	err := s.put(k, res, p)
	if err != nil {
		s.writeErrs.Add(1)
		return err
	}
	s.writes.Add(1)
	return nil
}

func (s *Store) put(k Key, res *core.Result, p *PerfInfo) (err error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encoding result: %w", err)
	}
	data, err := json.Marshal(envelope{
		V:      Version,
		Key:    k,
		Sum:    fmt.Sprintf("%016x", trace.Checksum64(payload)),
		Perf:   p,
		Result: payload,
	})
	if err != nil {
		return fmt.Errorf("store: encoding entry: %w", err)
	}

	f, err := s.fsys.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			s.fsys.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", tmp, err)
	}
	if err = s.fsys.Rename(tmp, filepath.Join(s.dir, k.filename())); err != nil {
		s.fsys.Remove(tmp)
		return fmt.Errorf("store: committing entry: %w", err)
	}
	// The rename puts the entry under its live name, but only the parent
	// directory's fsync makes that name durable: without it, a power cut
	// here can silently lose an entry Put already reported as persisted.
	if err = s.fsys.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: syncing directory %s: %w", s.dir, err)
	}
	return nil
}

// Len reports the number of committed entries currently in the store
// directory (temp files and the corrupt/ quarantine excluded).
func (s *Store) Len() (int, error) {
	entries, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}
