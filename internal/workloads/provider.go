package workloads

// Trace providers: the workload-side half of the streaming trace plane.
// Run/TraceCached materialize a whole trace.Buffer — fine at the seed
// scales, fatal at the paper's 88-250M-instruction regime. Provider picks
// a bounded-memory strategy instead:
//
//	SpoolDir set    → generate once, streaming straight to a v3 spool file
//	                  (hash folded inline); every open re-reads the disk.
//	MaxMem set      → generate once, buffering in memory only while the
//	                  trace fits the budget; past it, drop the buffer and
//	                  finish the pass hash-only, then serve every open by
//	                  deterministic regeneration through a bounded pipe.
//	neither         → the classic materialized Buffer (process-wide cache),
//	                  byte-identical to the pre-provider behavior.
//
// All three strategies yield Providers with equal ContentHash for the same
// (workload, scale), so results — and the store keys deriving from the
// hash — are interchangeable across them. ProgramProvider is the ladder
// itself, over any assembled program; ddrun serves its traces through it.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/trace"
	"repro/internal/vm"
)

// recordMemBytes is the in-memory footprint of one buffered trace record,
// the unit MaxMem budgets are measured in.
const recordMemBytes = int64(unsafe.Sizeof(trace.Record{}))

// maxSteps bounds every workload execution.
const maxSteps = 1 << 31

// ProviderOptions selects the trace-plane strategy (see the file comment).
// The zero value reproduces the materialized-Buffer behavior exactly.
type ProviderOptions struct {
	// SpoolDir, when non-empty, spools the trace to
	// <dir>/<name>-<scale>.trace during its first generation pass and
	// serves every open from disk. An already-complete spool from a prior
	// process is validated and reused without regeneration.
	SpoolDir string
	// MaxMem bounds the in-memory trace footprint in bytes (ignored when
	// SpoolDir is set). A trace that fits is buffered; one that does not is
	// served by deterministic regeneration.
	MaxMem int64
}

// LoadProgram reads a MiniC (.mc) or SV8 assembly (any other suffix) file
// and assembles it, compiling MiniC first.
func LoadProgram(path string) (*isa.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	asmText := string(src)
	if strings.HasSuffix(path, ".mc") {
		if asmText, err = minic.Compile(asmText); err != nil {
			return nil, err
		}
	}
	return asm.Assemble(asmText)
}

// checkGen is the PointTraceGen fault point every generation run passes,
// so tests can fail the first pass and each regeneration alike.
func checkGen() error {
	if faultinject.Enabled() {
		return faultinject.Check(faultinject.PointTraceGen)
	}
	return nil
}

// stream starts one generation run of prog as a live trace stream.
func stream(ctx context.Context, prog *isa.Program, steps int64) (*vm.TraceStream, error) {
	if err := checkGen(); err != nil {
		return nil, err
	}
	return vm.StreamTrace(ctx, prog, 0, vm.WithMaxSteps(steps))
}

// traceBuffer executes prog once, materializing its whole trace.
func traceBuffer(ctx context.Context, prog *isa.Program, steps int64) (*trace.Buffer, []int32, error) {
	if err := checkGen(); err != nil {
		return nil, nil, err
	}
	return vm.Trace(prog, vm.WithMaxSteps(steps), vm.WithContext(ctx))
}

// ProgramProvider executes prog once (at most steps instructions) and
// returns its dynamic trace as a Provider, plus the program's output. The
// strategy is the file comment's ladder: spoolPath set streams the trace
// into a spool file written afresh at that path; otherwise maxMem > 0
// buffers while the trace fits and serves an over-budget one by
// regeneration; otherwise the trace is materialized in a Buffer. ctx
// bounds the first pass only. The provider outlives it: callers memoize
// providers across requests, so a regeneration an Open triggers keeps ctx's
// values but not its cancellation, and stops when its consumer closes the
// stream (trace.CloseSource) — as a cell canceled mid-run does.
func ProgramProvider(ctx context.Context, prog *isa.Program, steps int64, spoolPath string, maxMem int64) (trace.Provider, []int32, error) {
	if spoolPath == "" && maxMem <= 0 {
		buf, out, err := traceBuffer(ctx, prog, steps)
		if err != nil {
			return nil, nil, err
		}
		return buf, out, nil
	}
	ts, err := stream(ctx, prog, steps)
	if err != nil {
		return nil, nil, err
	}
	if spoolPath != "" {
		sp, err := trace.SpoolFrom(spoolPath, ts)
		if err != nil {
			trace.CloseSource(ts)
			return nil, nil, err
		}
		out, _ := ts.Output()
		return sp, out, nil
	}
	maxRecords := maxMem / recordMemBytes
	hs := trace.NewHasher()
	buf := &trace.Buffer{}
	var rec trace.Record
	for ts.Next(&rec) {
		hs.WriteRecord(&rec)
		if buf != nil {
			if int64(buf.Len()) >= maxRecords {
				buf = nil // over budget: from here on, hash-only
			} else {
				buf.Append(rec)
			}
		}
	}
	if err := ts.Err(); err != nil {
		return nil, nil, err
	}
	out, _ := ts.Output()
	if buf != nil {
		return buf, out, nil
	}
	regenCtx := context.WithoutCancel(ctx)
	return trace.NewRegenProviderHashed(func() (trace.ErrSource, error) {
		return stream(regenCtx, prog, steps)
	}, hs.Sum64(), hs.Records()), out, nil
}

// Stream builds the workload and starts a live generation stream: records
// arrive as the VM executes them, through a bounded pipe. The stream must
// be consumed (or Closed) to release the VM goroutine.
func (w *Workload) Stream(ctx context.Context, scale int) (*vm.TraceStream, error) {
	prog, err := w.Build(scale)
	if err != nil {
		return nil, err
	}
	ts, err := stream(ctx, prog, maxSteps)
	if err != nil {
		return nil, fmt.Errorf("workloads: generating %s trace: %w", w.Name, err)
	}
	return ts, nil
}

// Provider returns a trace Provider for the workload at the given scale
// (0 = DefaultScale) under the chosen strategy. ctx bounds the eager first
// pass; for the regeneration strategy, each later re-run an Open triggers
// lives as long as its consumer keeps the stream open (see ProgramProvider).
func (w *Workload) Provider(ctx context.Context, scale int, opt ProviderOptions) (trace.Provider, error) {
	if scale <= 0 {
		scale = w.DefaultScale
	}
	spoolPath := ""
	switch {
	case opt.SpoolDir != "":
		// Reuse a complete spool from an earlier run (validated by its
		// record checksums). A missing, truncated or corrupt one is
		// regenerated; the commit rename atomically replaces it.
		spoolPath = filepath.Join(opt.SpoolDir, fmt.Sprintf("%s-%d.trace", w.Name, scale))
		if sp, err := trace.OpenSpool(spoolPath); err == nil {
			return sp, nil
		}
	case opt.MaxMem <= 0:
		buf, _, err := w.TraceCachedCtx(ctx, scale)
		if err != nil {
			return nil, err
		}
		return buf, nil
	}
	prog, err := w.Build(scale)
	if err != nil {
		return nil, err
	}
	prov, _, err := ProgramProvider(ctx, prog, maxSteps, spoolPath, opt.MaxMem)
	if err != nil {
		return nil, fmt.Errorf("workloads: generating %s trace: %w", w.Name, err)
	}
	return prov, nil
}
