package server

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/trace"
	"repro/internal/watchdog"
)

// sweepAborts is the cell-label column's value for errors that abort the
// whole sweep instead of degrading one cell.
const sweepAborts = "(sweep aborts)"

// TestErrorTaxonomyAcrossBoundaries runs every pipeline error through every
// boundary that classifies it — retry.Do's attempt budget, the HTTP
// JobError kind (draining and not), the CLI exit code, and the rendered
// sweep-cell label — and pins the answers. docs/robustness.md §6 prints
// this table; the two must agree.
func TestErrorTaxonomyAcrossBoundaries(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		attempts int    // retry.Do under a 3-attempt policy
		kind     string // JobError.Kind, not draining
		drain    string // JobError.Kind, draining
		exit     int    // cli.Code
		label    string // per-benchmark sweep cell
	}{
		{"context.Canceled", context.Canceled, 1, KindCanceled, KindDrain, cli.ExitCanceled, sweepAborts},
		{"wrapped context.Canceled", fmt.Errorf("cell: %w", context.Canceled), 1, KindCanceled, KindDrain, cli.ExitCanceled, sweepAborts},
		{"context.DeadlineExceeded", context.DeadlineExceeded, 1, KindDeadline, KindDeadline, cli.ExitCanceled, sweepAborts},
		{"wrapped context.DeadlineExceeded", fmt.Errorf("cell: %w", context.DeadlineExceeded), 1, KindDeadline, KindDeadline, cli.ExitCanceled, sweepAborts},
		{"CellDeadlineError", &experiments.CellDeadlineError{Timeout: time.Second}, 1, KindDeadline, KindDeadline, cli.ExitSim, "n/a (deadline)"},
		{"watchdog.ErrStalled", watchdog.ErrStalled, 1, KindStalled, KindStalled, cli.ExitSim, "n/a (stalled)"},
		{"PanicError", &watchdog.PanicError{Value: "boom"}, 1, KindPanic, KindPanic, cli.ExitSim, "n/a"},
		{"InvariantError", &core.InvariantError{Invariant: "issue-width", Cycle: 3}, 1, KindInvariant, KindInvariant, cli.ExitSim, "n/a"},
		{"corrupt trace", fmt.Errorf("read: %w", trace.ErrBadMagic), 1, KindCorrupt, KindCorrupt, cli.ExitCorrupt, "n/a"},
		{"faultinject.ErrInjected", faultinject.ErrInjected, 3, KindSim, KindSim, cli.ExitSim, "n/a"},
		{"plain error", errors.New("mystery"), 3, KindSim, KindSim, cli.ExitSim, "n/a"},
		{"usage error", cli.Usagef("bad flag"), 3, KindSim, KindSim, cli.ExitUsage, "n/a"},
	}
	defer faultinject.Reset()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			policy := retry.Policy{MaxAttempts: 3, Seed: 1,
				Sleep: func(context.Context, time.Duration) error { return nil }}
			attempts, _ := retry.Do(context.Background(), policy, func(int) error { return c.err })
			if attempts != c.attempts {
				t.Errorf("retry.Do attempts = %d, want %d", attempts, c.attempts)
			}
			if got := classify(c.err, false).Kind; got != c.kind {
				t.Errorf("JobError.Kind = %q, want %q", got, c.kind)
			}
			if got := classify(c.err, true).Kind; got != c.drain {
				t.Errorf("JobError.Kind while draining = %q, want %q", got, c.drain)
			}
			if got := cli.Code(c.err); got != c.exit {
				t.Errorf("cli.Code = %d, want %d", got, c.exit)
			}
			if got := cellLabel(t, c.err); got != c.label {
				t.Errorf("sweep cell label = %q, want %q", got, c.label)
			}
		})
	}
}

// cellLabel renders the per-benchmark report with every cell failing with
// err (injected at the start of each cell computation) and returns the
// label of the first benchmark's first cell, or sweepAborts when the
// report does not render.
func cellLabel(t *testing.T, err error) string {
	t.Helper()
	faultinject.Arm(faultinject.PointExperiment, err, 0)
	defer faultinject.Disarm(faultinject.PointExperiment)
	rep, rerr := experiments.PerBenchmarkReport(experiments.NewRunner(1).WithWorkers(1), 4)
	if rerr != nil {
		return sweepAborts
	}
	rows, perr := csv.NewReader(strings.NewReader(rep.CSV)).ReadAll()
	if perr != nil || len(rows) < 2 || len(rows[1]) < 2 {
		t.Fatalf("per-benchmark CSV %q: %v", rep.CSV, perr)
	}
	return rows[1][1]
}
