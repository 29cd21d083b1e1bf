package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/trace"
)

func TestOpenStoreFlagContract(t *testing.T) {
	// No store requested: nil store, no error.
	st, err := OpenStore("", false)
	if st != nil || err != nil {
		t.Fatalf("OpenStore(\"\", false) = %v, %v; want nil, nil", st, err)
	}
	// -resume without -store is a usage error.
	if _, err := OpenStore("", true); Code(err) != ExitUsage {
		t.Fatalf("-resume without -store: Code = %d, want %d (%v)", Code(err), ExitUsage, err)
	}
	// -resume over a missing directory is a usage error (nothing to resume).
	missing := t.TempDir() + "/never-created"
	if _, err := OpenStore(missing, true); Code(err) != ExitUsage {
		t.Fatalf("-resume over missing dir: Code = %d, want %d (%v)", Code(err), ExitUsage, err)
	}
	// A fresh -store without -resume creates the directory.
	st, err = OpenStore(t.TempDir()+"/fresh", false)
	if err != nil || st == nil {
		t.Fatalf("fresh store: %v, %v", st, err)
	}
	// -resume over the now-existing directory succeeds.
	if _, err := OpenStore(st.Dir(), true); err != nil {
		t.Fatalf("-resume over existing store: %v", err)
	}
}

// simTrace builds a small synthetic trace for single-run tests.
func simTrace() *trace.Buffer {
	var buf trace.Buffer
	for i := 0; i < 4096; i++ {
		buf.Append(trace.Record{
			PC:    uint32(i),
			Instr: isa.Instr{Op: isa.Add, Rd: uint8(1 + i%30), Rs1: 1, Rs2: 2},
			Value: int32(i),
		})
	}
	return &buf
}

// TestSimulateStoreRoundTrip: a single run (ddsim -benchmark / -trace)
// over a caller's trace goes through the store: a cold run computes, a
// fresh Runner over the same store reports the hit, and the entry carries
// the run's PerfInfo like every sweep cell's.
func TestSimulateStoreRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buf := simTrace()
	run := func() (*core.Result, bool, error) {
		return experiments.NewRunner(0).WithStoreHandle(st).RunCell(context.Background(),
			"synthetic", 1, buf, core.ConfigD, core.Params{Width: 8})
	}
	res, fromStore, err := run()
	if err != nil || fromStore {
		t.Fatalf("cold run: res=%v fromStore=%v err=%v", res, fromStore, err)
	}
	again, fromStore, err := run()
	if err != nil || !fromStore {
		t.Fatalf("warm run: fromStore=%v err=%v", fromStore, err)
	}
	if again.Cycles != res.Cycles || again.Instructions != res.Instructions {
		t.Fatalf("stored result differs: %+v vs %+v", again, res)
	}
	if s := st.Stats(); s.Hits != 1 || s.Writes != 1 {
		t.Fatalf("store stats %+v, want 1 hit / 1 write", s)
	}
	entries, err := filepath.Glob(filepath.Join(st.Dir(), "synthetic-*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries %v, %v; want exactly one", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Perf *store.PerfInfo `json:"perf"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Perf == nil || env.Perf.Seconds <= 0 {
		t.Fatalf("entry perf = %+v, want the run's timing", env.Perf)
	}
}

// TestSimulateRetriesTransientSource: a single run whose first trace open
// fails is healed by the retry policy, and reports the attempt count when
// every open fails.
func TestSimulateRetriesTransientSource(t *testing.T) {
	buf := simTrace()
	r := experiments.NewRunner(0)
	r.Retries = 2
	r.RetryDelay = time.Millisecond
	calls := 0
	flaky := trace.NewRegenProvider(func() (trace.ErrSource, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient stream hiccup")
		}
		return buf.Reader(), nil
	})
	res, _, err := r.RunCell(context.Background(), "synthetic", 1, flaky, core.ConfigD, core.Params{Width: 8})
	if err != nil {
		t.Fatalf("transient source failure not retried: %v", err)
	}
	if calls != 2 || res == nil {
		t.Fatalf("calls = %d, res = %v; want healed on second attempt", calls, res)
	}

	// Exhaustion reports the attempt count.
	always := trace.NewRegenProvider(func() (trace.ErrSource, error) { return nil, errors.New("still broken") })
	_, _, err = r.RunCell(context.Background(), "synthetic", 1, always, core.ConfigD, core.Params{Width: 8})
	if err == nil || !strings.Contains(err.Error(), "(3 attempts)") {
		t.Fatalf("exhausted retry does not report attempts: %v", err)
	}
}

// TestSimulateCancellationIsNotRetried: a single run under a canceled
// context fails as a cancellation after one attempt, whatever the retry
// budget.
func TestSimulateCancellationIsNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf := simTrace()
	r := experiments.NewRunner(0)
	r.Retries = 3
	r.RetryDelay = time.Millisecond
	calls := 0
	prov := trace.NewRegenProvider(func() (trace.ErrSource, error) { calls++; return buf.Reader(), nil })
	_, _, err := r.RunCell(ctx, "synthetic", 1, prov, core.ConfigD, core.Params{Width: 8})
	if !Canceled(err) || Code(err) != ExitCanceled {
		t.Fatalf("err = %v (exit %d), want cancellation", err, Code(err))
	}
	if calls != 1 {
		t.Fatalf("canceled run attempted %d times, want 1", calls)
	}
}

func TestProgressTTYRewritesAndClears(t *testing.T) {
	var buf bytes.Buffer
	hook, done := progressTo(&buf, true, "tool", time.Now)

	hook(core.Progress{Records: 100000, Cycles: 200000})
	hook(core.Progress{Records: 5, Cycles: 9}) // shorter render
	done()

	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("done() did not terminate the line: %q", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\r")
	if len(lines) != 3 || lines[0] != "" { // leading \r splits an empty first element
		t.Fatalf("expected two \\r-rewrites, got %q", out)
	}
	long, short := lines[1], lines[2]
	// The shorter rewrite must be padded out to at least the longer one's
	// width, so no stale characters survive on screen.
	if len(short) < len(long) {
		t.Fatalf("short rewrite %q (len %d) does not clear long render %q (len %d)",
			short, len(short), long, len(long))
	}
	if want := "tool: 5 instructions, 9 cycles"; strings.TrimRight(short, " ") != want {
		t.Fatalf("short rewrite = %q, want %q plus padding", short, want)
	}
}

func TestProgressNonTTYThrottlesFullLines(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	hook, done := progressTo(&buf, false, "tool", now)

	for i := 0; i < 100; i++ {
		hook(core.Progress{Records: int64(i), Cycles: int64(2 * i)})
		clock = clock.Add(100 * time.Millisecond) // 100 beats over 10s
	}
	done()

	out := buf.String()
	if strings.Contains(out, "\r") {
		t.Fatalf("non-TTY progress used carriage returns: %q", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	// 10 seconds of beats at one line per 2s: a handful of lines, not 100.
	if len(lines) < 2 || len(lines) > 10 {
		t.Fatalf("non-TTY printed %d lines, want throttled handful: %q", len(lines), out)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "tool: ") || !strings.HasSuffix(l, " cycles") {
			t.Fatalf("malformed progress line %q", l)
		}
	}
	if buf.Len() == 0 || strings.HasSuffix(out, "\n\n") {
		t.Fatalf("done() must not add a newline in non-TTY mode: %q", out)
	}
	// The last beat fell inside the throttle window; done() must still
	// print it, so a log always ends on the final count.
	if last, want := lines[len(lines)-1], "tool: 99 instructions, 198 cycles"; last != want {
		t.Fatalf("last non-TTY line = %q, want the final count %q", last, want)
	}

	// A final count the throttle already printed is not repeated.
	buf.Reset()
	hook, done = progressTo(&buf, false, "tool", now)
	hook(core.Progress{Records: 7, Cycles: 8})
	done()
	if got, want := buf.String(), "tool: 7 instructions, 8 cycles\n"; got != want {
		t.Fatalf("single beat + done() = %q, want %q", got, want)
	}
}
