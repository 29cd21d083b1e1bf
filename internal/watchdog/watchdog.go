// Package watchdog detects hung operations through progress heartbeats.
//
// The experiment pipeline's failure modes fall into two families: loud
// (errors, panics, cancellation — all classified by internal/retry) and
// silent (a cell that simply stops making progress, wedging a Prefetch
// worker forever). This package handles the silent family: Run executes an
// operation on its own goroutine, watches a heartbeat the operation must
// keep beating, and — when the heartbeat goes stale past the stall
// deadline — cancels just that operation and returns ErrStalled instead of
// waiting forever.
//
// A stalled error is deliberately NOT a context cancellation: callers that
// treat cancellation as fatal (the experiments runner) must see a stalled
// cell as one degraded cell, not as the end of the world. Run therefore
// never wraps context.Canceled into its stall errors.
//
// Cooperative cancellation is the best Go can do: a worker wedged in a
// tight loop or a blocking syscall cannot be killed. Run waits a bounded
// grace period after canceling; if the worker still has not returned it is
// abandoned — its goroutine leaks until it eventually unblocks, but the
// caller (and its worker-pool slot) is freed. Abandoned workers deliver
// their eventual result into a buffered channel nobody reads, so there is
// no shared-memory race with the caller.
package watchdog

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// ErrStalled marks an operation reaped because its heartbeat went stale
// past the stall deadline. internal/retry classifies it as permanent: a
// hang in a deterministic pipeline will hang again, and retrying doubles
// the damage.
var ErrStalled = errors.New("watchdog: stalled")

// abandoned counts worker goroutines that outlived their grace period and
// were left running (see the package comment). It only ever grows: an
// abandoned goroutine may eventually unblock and exit, but the watchdog no
// longer observes it, so the counter records leak *pressure*, not live
// leaks. Long-running processes (internal/server's /healthz) report it so
// operators can see a pipeline that keeps wedging before it exhausts
// memory.
var abandoned atomic.Int64

// Abandoned reports how many supervised workers have been abandoned
// process-wide since start.
func Abandoned() int64 { return abandoned.Load() }

// stalls counts operations reaped as ErrStalled process-wide. Like
// abandoned, it is a package-level atomic bridged into the serving
// registry (internal/server wires it to watchdog_stalls_total on
// /metrics) so stall pressure is visible without plumbing a handle
// through every Run call site.
var stalls atomic.Int64

// Stalls reports how many supervised operations have been reaped as
// stalled process-wide since start.
func Stalls() int64 { return stalls.Load() }

// PanicError reports a panic recovered from a supervised worker goroutine.
// Without this recovery a panicking worker would crash the whole process
// from a goroutine no caller can defer around; with it, the panic becomes
// an ordinary — permanent, never retried — error carrying the panic value
// and stack. Serving layers use it to isolate one crashing job from its
// neighbors.
type PanicError struct {
	Value any    // the recovered panic value
	Stack string // the panicking goroutine's stack
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("watchdog: worker panicked: %v", e.Value) }

// outcome carries a worker's result through the done channel, so the
// caller and a possibly-abandoned worker never share memory.
type outcome[T any] struct {
	val T
	err error
}

// pollInterval is how often the heartbeat is inspected: a fraction of the
// stall deadline, clamped to keep tiny deadlines responsive and huge ones
// cheap.
func pollInterval(stall time.Duration) time.Duration {
	p := stall / 8
	if p < time.Millisecond {
		p = time.Millisecond
	}
	if p > time.Second {
		p = time.Second
	}
	return p
}

// gracePeriod is how long a canceled worker gets to unwind before being
// abandoned.
func gracePeriod(stall time.Duration) time.Duration {
	g := stall
	if g < 50*time.Millisecond {
		g = 50 * time.Millisecond
	}
	if g > 2*time.Second {
		g = 2 * time.Second
	}
	return g
}

// Run executes fn under heartbeat supervision and returns its result.
//
// fn receives a derived context (canceled on stall or when ctx ends) and a
// beat function it must call to signal progress — typically wired into
// core.Params.Progress. If no beat arrives for longer than stall, the
// derived context is canceled and Run returns ErrStalled (wrapping a
// description of how long the operation was silent); fn's eventual return
// value is discarded. stall <= 0 disables supervision entirely: fn runs on
// the calling goroutine with a no-op beat.
//
// When ctx itself is canceled, Run cancels fn and waits the same bounded
// grace period; the returned error is then ctx's (a true cancellation),
// never ErrStalled.
func Run[T any](ctx context.Context, stall time.Duration, fn func(ctx context.Context, beat func()) (T, error)) (T, error) {
	if stall <= 0 {
		return fn(ctx, func() {})
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	var lastBeat atomic.Int64 // elapsed nanos since start at last beat
	beat := func() { lastBeat.Store(int64(time.Since(start))) }

	done := make(chan outcome[T], 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				done <- outcome[T]{zero, &PanicError{Value: r, Stack: string(debug.Stack())}}
			}
		}()
		val, err := fn(cctx, beat)
		done <- outcome[T]{val, err}
	}()

	var zero T
	ticker := time.NewTicker(pollInterval(stall))
	defer ticker.Stop()
	for {
		select {
		case out := <-done:
			return out.val, out.err

		case <-ctx.Done():
			// True cancellation from above: give fn a grace period to unwind,
			// then abandon it. Either way the caller sees ctx's error.
			cancel()
			select {
			case out := <-done:
				return out.val, out.err
			case <-time.After(gracePeriod(stall)):
				abandoned.Add(1)
				return zero, fmt.Errorf("watchdog: worker unresponsive %v after cancellation, abandoned: %w",
					gracePeriod(stall), ctx.Err())
			}

		case <-ticker.C:
			idle := time.Since(start) - time.Duration(lastBeat.Load())
			if idle <= stall {
				continue
			}
			// Stalled. Cancel the operation and wait briefly for a
			// cooperative exit; note the worker's own error only as text
			// (never %w) so a stall is not mistaken for a cancellation.
			cancel()
			select {
			case out := <-done:
				if out.err != nil {
					stalls.Add(1)
					return zero, fmt.Errorf("%w: no progress for %v (worker exited: %v)", ErrStalled, idle.Round(time.Millisecond), out.err)
				}
				// The worker squeaked through between the staleness check
				// and the cancel taking effect; its result is real.
				return out.val, nil
			case <-time.After(gracePeriod(stall)):
				abandoned.Add(1)
				stalls.Add(1)
				return zero, fmt.Errorf("%w: no progress for %v; worker unresponsive, abandoned", ErrStalled, idle.Round(time.Millisecond))
			}
		}
	}
}
