// Package cli holds the plumbing shared by ddsim, ddrun, and ddtrace:
// signal-aware contexts and the exit-code contract.
//
// Exit codes (documented in docs/robustness.md):
//
//	0    success
//	1    simulation or execution failure
//	2    usage error (bad flags or arguments)
//	3    corrupt or truncated trace input
//	130  canceled (SIGINT/SIGTERM or -timeout), following shell convention
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/retry"
)

// Exit codes for the three tools.
const (
	ExitOK       = 0
	ExitSim      = 1
	ExitUsage    = 2
	ExitCorrupt  = 3
	ExitCanceled = 130
)

// usageError marks errors that stem from bad flags or arguments rather
// than a failed run.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// Usagef builds a usage error: Code maps it to ExitUsage.
func Usagef(format string, args ...any) error {
	return &usageError{fmt.Errorf(format, args...)}
}

// Canceled reports whether err stems from context cancellation or a
// deadline (SIGINT/SIGTERM or -timeout).
func Canceled(err error) bool { return retry.Classify(err).Cancellation() }

// Code maps err onto the exit-code contract above: usage errors are the
// CLIs' own; everything else follows its retry.Kind.
func Code(err error) int {
	var ue *usageError
	switch k := retry.Classify(err); {
	case err == nil:
		return ExitOK
	case errors.As(err, &ue):
		return ExitUsage
	case k.Cancellation():
		return ExitCanceled
	case k == retry.Corrupt:
		return ExitCorrupt
	default:
		return ExitSim
	}
}

// Exit prints err prefixed with the tool name (unless nil) and exits with
// Code(err).
func Exit(tool string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		if Canceled(err) {
			fmt.Fprintf(os.Stderr, "%s: canceled; results above this point are complete\n", tool)
		}
	}
	os.Exit(Code(err))
}

// Context returns a context canceled by SIGINT or SIGTERM, and by the
// timeout when positive. The returned stop function releases the signal
// handler (restoring default die-on-second-^C behavior) and any timer.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { cancel(); stop() }
}
