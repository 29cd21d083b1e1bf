package cli

// This file holds the durability plumbing shared by the CLIs: opening the
// result store behind -store/-resume, printing its hit/miss summary, and
// rendering progress heartbeats. Supervised simulation itself (store
// lookup, bounded retry, stall watchdog) lives in experiments.Runner.

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// OpenStore opens the durable result store behind the -store/-resume
// flags. An empty dir with resume unset means "no store" (nil, nil);
// -resume without -store, or over a directory that does not exist yet, is
// a usage error — resuming implies there is something to resume from.
func OpenStore(dir string, resume bool) (*store.Store, error) {
	if dir == "" {
		if resume {
			return nil, Usagef("-resume requires -store")
		}
		return nil, nil
	}
	if resume {
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			return nil, Usagef("-resume: store directory %q does not exist", dir)
		}
	}
	return store.Open(dir)
}

// ReportStore prints the store's hit/miss summary to stderr (no-op on a
// nil store). The resume-smoke CI job greps this line.
func ReportStore(tool string, st *store.Store) {
	if st == nil {
		return
	}
	s := st.Stats()
	msg := fmt.Sprintf("%s: store: %d hit(s), %d miss(es)", tool, s.Hits, s.Misses)
	if s.Corrupt > 0 {
		msg += fmt.Sprintf(", %d corrupt entr(y/ies) recomputed", s.Corrupt)
	}
	if s.WriteErrors > 0 {
		msg += fmt.Sprintf(", %d write error(s)", s.WriteErrors)
	}
	if s.TmpCleaned > 0 {
		msg += fmt.Sprintf(", %d stale temp file(s) cleaned", s.TmpCleaned)
	}
	fmt.Fprintln(os.Stderr, msg)
}

// nonTTYProgressEvery throttles progress lines when stderr is not a
// terminal: one newline-terminated line per interval instead of a
// carriage-return rewrite per heartbeat, so CI logs stay readable.
const nonTTYProgressEvery = 2 * time.Second

// Progress returns a heartbeat printer that renders the instruction and
// cycle counts to stderr, plus a done func that terminates the output
// (call it once, after the run). It prints through ProgressLines.
func Progress(tool string) (hook func(core.Progress), done func()) {
	return progressTo(os.Stderr, stderrIsTTY(), tool, time.Now)
}

// progressTo is Progress with the writer, TTY-ness, and clock injected for
// tests.
func progressTo(w io.Writer, tty bool, tool string, now func() time.Time) (hook func(core.Progress), done func()) {
	line, done := linesTo(w, tty, now)
	hook = func(p core.Progress) {
		line(fmt.Sprintf("%s: %d instructions, %d cycles", tool, p.Records, p.Cycles))
	}
	return hook, done
}

// ProgressLines returns a printer for preformatted progress lines on
// stderr, plus a done func that terminates the output (call it once,
// after the run). On a terminal the printer rewrites one line in place,
// clearing to end-of-line so a line that shrinks between rewrites never
// leaves stale trailing characters. When stderr is redirected (CI logs,
// pipes) it falls back to occasional full lines — \r-rewrites would smear
// every update across the captured log — and done prints the newest line
// the throttle held back, so the final count always lands. The printer is
// safe for concurrent use.
func ProgressLines() (line func(string), done func()) {
	return linesTo(os.Stderr, stderrIsTTY(), time.Now)
}

// linesTo is ProgressLines with the writer, TTY-ness, and clock injected
// for tests.
func linesTo(w io.Writer, tty bool, now func() time.Time) (line func(string), done func()) {
	var mu sync.Mutex
	rewriting := false
	prevLen := 0
	var lastLine time.Time
	held := "" // non-TTY: the newest line the throttle held back
	line = func(s string) {
		mu.Lock()
		defer mu.Unlock()
		if tty {
			// Pad over any leftover from a longer previous render.
			fmt.Fprintf(w, "\r%s%s", s, strings.Repeat(" ", max(prevLen-len(s), 0)))
			prevLen = len(s)
			rewriting = true
			return
		}
		if t := now(); lastLine.IsZero() || t.Sub(lastLine) >= nonTTYProgressEvery {
			lastLine = t
			held = ""
			fmt.Fprintln(w, s)
			return
		}
		held = s
	}
	done = func() {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case rewriting:
			fmt.Fprintln(w)
		case held != "":
			fmt.Fprintln(w, held)
		}
	}
	return line, done
}

// stderrIsTTY reports whether stderr is a character device (a terminal
// rather than a pipe or file).
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
