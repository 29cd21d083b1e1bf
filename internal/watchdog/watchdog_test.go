package watchdog

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestHealthyOperationPassesThrough: an operation that keeps beating is
// never reaped, even when it runs far longer than the stall deadline.
func TestHealthyOperationPassesThrough(t *testing.T) {
	got, err := Run(context.Background(), 40*time.Millisecond, func(ctx context.Context, beat func()) (int, error) {
		for i := 0; i < 20; i++ {
			beat()
			time.Sleep(10 * time.Millisecond) // total 200ms >> 40ms stall
		}
		return 42, nil
	})
	if err != nil {
		t.Fatalf("healthy operation reaped: %v", err)
	}
	if got != 42 {
		t.Fatalf("result %d, want 42", got)
	}
}

// TestStallIsDetectedAndIsNotCancellation: a silent operation is reaped
// with ErrStalled, and the error must NOT look like a context
// cancellation (stalls degrade one cell; cancellations abort everything).
func TestStallIsDetectedAndIsNotCancellation(t *testing.T) {
	start := time.Now()
	_, err := Run(context.Background(), 50*time.Millisecond, func(ctx context.Context, beat func()) (int, error) {
		<-ctx.Done() // cooperative: exits promptly once canceled
		return 0, ctx.Err()
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall error must not wrap a cancellation: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stall detection took %v", elapsed)
	}
}

// TestWedgedWorkerIsAbandoned: a worker that ignores cancellation entirely
// is abandoned after the grace period — the caller gets ErrStalled instead
// of blocking forever.
func TestWedgedWorkerIsAbandoned(t *testing.T) {
	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) })
	start := time.Now()
	_, err := Run(context.Background(), 50*time.Millisecond, func(ctx context.Context, beat func()) (int, error) {
		<-unblock // ignores ctx: truly wedged until test cleanup
		return 7, nil
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("abandonment took %v", elapsed)
	}
}

// TestParentCancellationStaysCancellation: when the caller's own context
// ends, the error is the context's — never ErrStalled.
func TestParentCancellationStaysCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := Run(ctx, time.Hour, func(ctx context.Context, beat func()) (int, error) {
		beat()
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrStalled) {
		t.Fatalf("parent cancellation misreported as stall: %v", err)
	}
}

// TestDisabledSupervisionIsTransparent: stall <= 0 runs fn inline and
// passes values and errors straight through.
func TestDisabledSupervisionIsTransparent(t *testing.T) {
	boom := errors.New("boom")
	got, err := Run(context.Background(), 0, func(ctx context.Context, beat func()) (string, error) {
		beat() // must be callable even when disabled
		return "ok", boom
	})
	if got != "ok" || !errors.Is(err, boom) {
		t.Fatalf("passthrough broken: %q, %v", got, err)
	}
}

// TestWorkerErrorPassesThrough: an operation failing on its own (while
// still beating) reports its own error, not a stall.
func TestWorkerErrorPassesThrough(t *testing.T) {
	boom := errors.New("worker failed")
	_, err := Run(context.Background(), time.Hour, func(ctx context.Context, beat func()) (int, error) {
		beat()
		return 0, boom
	})
	if !errors.Is(err, boom) || errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want plain worker error", err)
	}
}

// TestAbandonedCounterTracksReapedWorkers: every worker that outlives its
// grace period bumps the process-wide Abandoned counter — the leak-pressure
// gauge internal/server's /healthz reports.
func TestAbandonedCounterTracksReapedWorkers(t *testing.T) {
	unblock := make(chan struct{})
	t.Cleanup(func() { close(unblock) })
	before := Abandoned()
	_, err := Run(context.Background(), 50*time.Millisecond, func(ctx context.Context, beat func()) (int, error) {
		<-unblock // ignores ctx: wedged until test cleanup
		return 0, nil
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if got := Abandoned() - before; got != 1 {
		t.Fatalf("Abandoned grew by %d, want 1", got)
	}
	// A healthy supervised run must not move the counter.
	if _, err := Run(context.Background(), time.Hour, func(ctx context.Context, beat func()) (int, error) {
		beat()
		return 1, nil
	}); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if got := Abandoned() - before; got != 1 {
		t.Fatalf("Abandoned grew by %d after a healthy run, want still 1", got)
	}
}

// TestPanicIsIsolatedIntoPanicError: a panic on the supervised goroutine
// must not crash the process; it surfaces as a *PanicError that carries the
// panic value, keeps the stack, and classifies as permanent.
func TestPanicIsIsolatedIntoPanicError(t *testing.T) {
	_, err := Run(context.Background(), time.Hour, func(ctx context.Context, beat func()) (int, error) {
		beat()
		panic("scheduler state corrupted")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "scheduler state corrupted" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if pe.Stack == "" {
		t.Fatal("panic stack not captured")
	}
}
