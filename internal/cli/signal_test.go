package cli

import (
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// The SIGINT paths of the signal contract are exercised end-to-end by the
// CLI smoke jobs; these tests pin the SIGTERM half: a TERM'd run maps to
// the documented exit code 130 and keeps the partial output produced
// before the signal (docs/robustness.md §5).

// TestSIGTERMMapsToCanceledExit: SIGTERM cancels the signal-aware context
// and classifies as ExitCanceled, exactly like SIGINT.
func TestSIGTERMMapsToCanceledExit(t *testing.T) {
	ctx, stop := Context(0)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the context")
	}
	if !Canceled(ctx.Err()) {
		t.Fatalf("ctx.Err() = %v, want a cancellation", ctx.Err())
	}
	if got := Code(ctx.Err()); got != ExitCanceled {
		t.Fatalf("Code = %d, want %d", got, ExitCanceled)
	}
}

// TestSIGTERMMidSimulationExitsCanceled: a SIGTERM landing mid-simulation
// aborts the run promptly, after partial progress was already reported,
// and the resulting error carries exit code 130 — not a failure code that
// would make scripts treat an interrupted sweep as broken.
func TestSIGTERMMidSimulationExitsCanceled(t *testing.T) {
	ctx, stop := Context(0)
	defer stop()

	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := w.TraceCached(0)
	if err != nil {
		t.Fatal(err)
	}

	var beats atomic.Int64
	var once sync.Once
	progress := func(core.Progress) {
		beats.Add(1)
		once.Do(func() { _ = syscall.Kill(os.Getpid(), syscall.SIGTERM) })
	}
	_, fromStore, err := experiments.NewRunner(0).RunCell(ctx, w.Name, w.DefaultScale, buf, core.ConfigA,
		core.Params{Width: 4, ProgressEvery: 512, Progress: progress})
	if fromStore {
		t.Fatal("no store attached, yet result claimed from store")
	}
	if !Canceled(err) {
		t.Fatalf("err = %v, want a cancellation", err)
	}
	if got := Code(err); got != ExitCanceled {
		t.Fatalf("Code = %d, want %d", got, ExitCanceled)
	}
	if beats.Load() < 1 {
		t.Fatal("no partial progress was reported before the signal")
	}
}

// TestSIGTERMMidSweepPreservesCompletedExperiments: interrupting a sweep
// with SIGTERM keeps the experiments already rendered — the documented
// "results above this point are complete" contract — and only the
// remaining work fails, as a cancellation.
func TestSIGTERMMidSweepPreservesCompletedExperiments(t *testing.T) {
	ctx, stop := Context(0)
	defer stop()

	r := experiments.NewRunner(0).WithContext(ctx)
	rep, err := experiments.Table1(r)
	if err != nil {
		t.Fatalf("first experiment failed before the signal: %v", err)
	}
	if rep.Text == "" {
		t.Fatal("first experiment produced no output")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the context")
	}

	// The next experiment fails as a cancellation (exit 130)...
	if _, err := experiments.FigureIPC(r, "figure2", workloads.All()); !Canceled(err) {
		t.Fatalf("post-signal experiment: err = %v, want cancellation", err)
	} else if Code(err) != ExitCanceled {
		t.Fatalf("Code = %d, want %d", Code(err), ExitCanceled)
	}
	// ...and the completed report is untouched partial output.
	if rep.Text == "" || rep.Degraded() {
		t.Fatal("completed experiment lost or degraded by the signal")
	}
}
