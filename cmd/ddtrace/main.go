// ddtrace generates, inspects, and replays binary trace files — the
// workflow the paper ran with qpt2: trace once, simulate many times.
//
//	ddtrace -benchmark compress -o compress.trace      # generate
//	ddtrace -benchmark li -scale 500 -o li.trace       # bigger run
//	ddtrace -program prog.mc -o prog.trace             # trace any MiniC program
//	ddtrace -benchmark go -o - | ddtrace -info -       # stream through a pipe
//	ddtrace -info compress.trace                       # header + mix
//	ddtrace -selfcheck -info compress.trace            # also simulate with invariant sweeps
//
// Simulate a saved trace with ddsim -trace compress.trace.
//
// Generation streams: records flow from the executing VM straight into the
// output file through a bounded pipe, so tracing a benchmark at any scale
// holds O(pipe) records in memory. "-o -" writes the trace to stdout and
// "-info -" reads one from stdin, so traces can cross process boundaries
// without ever touching the filesystem.
//
// Robustness: -timeout and SIGINT/SIGTERM cancel generation; a canceled or
// failed generation deletes the partial output file instead of leaving a
// truncated trace behind (a partial stdout stream is the consumer's to
// detect — the truncation fails its reader). Exit codes: 0 ok, 1 failure,
// 2 usage, 3 corrupt trace input, 130 canceled (see docs/robustness.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	var (
		benchmark = flag.String("benchmark", "", "workload to trace (compress, espresso, eqntott, li, go, ijpeg)")
		program   = flag.String("program", "", "MiniC (.mc) or SV8 assembly (.s) file to trace instead")
		scale     = flag.Int("scale", 0, "workload scale (0 = default)")
		output    = flag.String("o", "", "output trace file (- = stdout)")
		info      = flag.String("info", "", "print a trace file's statistics instead of generating (- = stdin)")
		timeout   = flag.Duration("timeout", 0, "bound the run's wall-clock time (0 = none)")
		selfCheck = flag.Bool("selfcheck", false, "with -info: also simulate the trace (config D, width 8) with invariant sweeps")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		cli.Exit("ddtrace", cli.Usagef("unexpected arguments: %v", flag.Args()))
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()

	var err error
	switch {
	case *info != "":
		err = printInfo(ctx, *info, *selfCheck)
	case (*benchmark != "" || *program != "") && *output != "":
		err = generate(ctx, *benchmark, *program, *scale, *output)
	default:
		flag.Usage()
		os.Exit(cli.ExitUsage)
	}
	cli.Exit("ddtrace", err)
}

// openSource starts the generation stream: records arrive as the VM
// executes, never materialized. The returned source must be closed.
func openSource(ctx context.Context, benchmark, program string, scale int) (trace.ErrSource, error) {
	if benchmark != "" {
		w, err := workloads.ByName(benchmark)
		if err != nil {
			return nil, cli.Usagef("%v", err)
		}
		return w.Stream(ctx, scale)
	}
	prog, err := workloads.LoadProgram(program)
	if err != nil {
		return nil, err
	}
	return vm.StreamTrace(ctx, prog, 0)
}

// nonSeeking hides an *os.File's Seek method so trace.NewWriter treats
// stdout as a pure stream: pipes reject seeks, and a count-less header is
// exactly what the reader's stream-to-EOF mode is for.
type nonSeeking struct{ io.Writer }

func generate(ctx context.Context, benchmark, program string, scale int, output string) error {
	src, err := openSource(ctx, benchmark, program, scale)
	if err != nil {
		return err
	}
	defer trace.CloseSource(src)

	var dst io.Writer
	var f *os.File
	toStdout := output == "-"
	if toStdout {
		dst = nonSeeking{os.Stdout}
	} else {
		f, err = os.Create(output)
		if err != nil {
			return err
		}
		dst = f
		// Never leave a partial trace behind: any failure (including
		// cancellation mid-write) removes the output file.
		keep := false
		defer func() {
			f.Close()
			if !keep {
				os.Remove(output)
			}
		}()
		defer func() { keep = err == nil }()
	}
	w, werr := trace.NewWriter(dst)
	if werr != nil {
		return werr
	}
	var rec trace.Record
	for i := 0; src.Next(&rec); i++ {
		if i&4095 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				err = fmt.Errorf("writing %s canceled after %d records: %w", output, w.Count(), cerr)
				return err
			}
		}
		if werr := w.Write(&rec); werr != nil {
			err = werr
			return err
		}
	}
	if serr := trace.SourceErr(src); serr != nil {
		err = fmt.Errorf("trace source failed after %d records: %w", w.Count(), serr)
		return err
	}
	if werr := w.Close(); werr != nil {
		err = werr
		return err
	}
	if !toStdout {
		if werr := f.Close(); werr != nil {
			err = werr
			return err
		}
	}
	// The report goes to stderr when the trace itself owns stdout.
	report := io.Writer(os.Stdout)
	if toStdout {
		report = os.Stderr
	}
	fmt.Fprintf(report, "wrote %d records to %s\n", w.Count(), output)
	return nil
}

// teeMix observes every record that passes through a source — the one-pass
// way to collect the mix while something else (the checked simulator)
// consumes the stream, which is the only option when the stream is stdin.
type teeMix struct {
	src trace.Source
	mix trace.Mix
}

func (t *teeMix) Next(rec *trace.Record) bool {
	if !t.src.Next(rec) {
		return false
	}
	t.mix.Observe(rec)
	return true
}

func (t *teeMix) Err() error { return trace.SourceErr(t.src) }

func printInfo(ctx context.Context, path string, selfCheck bool) error {
	var in io.Reader
	name := path
	if path == "-" {
		in = os.Stdin
		name = "<stdin>"
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	r, err := trace.NewReader(in)
	if err != nil {
		return err
	}
	if !selfCheck {
		mix := trace.CollectMix(r)
		if err := r.Err(); err != nil {
			return err
		}
		fmt.Printf("%s:\n%s", name, mix.String())
		return nil
	}
	// One pass validates the encoding, collects the mix, and runs the
	// checked simulator — stdin cannot be re-read, and a file needn't be.
	tee := &teeMix{src: r}
	res, err := core.RunChecked(ctx, tee, core.ConfigD, core.Params{Width: 8, SelfCheck: true})
	if err != nil {
		return fmt.Errorf("self-check failed: %w", err)
	}
	fmt.Printf("%s:\n%s", name, tee.mix.String())
	fmt.Printf("self-check ok: %d invariant sweeps over %d instructions, 0 violations\n",
		res.SelfChecks, res.Instructions)
	return nil
}
