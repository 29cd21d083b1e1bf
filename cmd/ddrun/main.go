// ddrun executes a MiniC (.mc) or SV8 assembly (.s) program on the
// emulator and reports its output and dynamic trace statistics.
//
//	ddrun prog.mc
//	ddrun -mix prog.s          # also print the instruction-class mix
//	ddrun -timeout 10s prog.mc # bound wall-clock time
//	ddrun -selfcheck prog.mc   # simulate the trace with invariant sweeps
//
// The dynamic trace is served by the same ladder as the workload traces
// (workloads.ProgramProvider): -spool streams it to a file, -max-trace-mem
// buffers it only while it fits and re-executes past that, and the default
// holds it in memory.
//
// The -selfcheck simulation is one cell of experiments.Runner (RunCell),
// on the same supervised path as every sweep cell: -store persists its
// result (keyed by trace content, so a changed program never hits),
// -resume insists the store already exists, -retries re-attempts
// transient failures, and -stall-timeout reaps a hung simulation.
//
// Exit codes: 0 ok, 1 execution failure, 2 usage, 130 canceled (see
// docs/robustness.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	var (
		mixFlag    = flag.Bool("mix", false, "print the instruction-class mix of the dynamic trace")
		maxSteps   = flag.Int64("maxsteps", 1<<30, "execution step limit")
		timeout    = flag.Duration("timeout", 0, "bound the run's wall-clock time (0 = none)")
		selfCheck  = flag.Bool("selfcheck", false, "simulate the dynamic trace (config D, width 8) with scheduler invariant sweeps")
		storeDir   = flag.String("store", "", "persist the -selfcheck result in this directory; later runs resume from it")
		resume     = flag.Bool("resume", false, "require -store to already exist (catches typos before recomputing a sweep)")
		retries    = flag.Int("retries", 0, "re-attempts after a transient -selfcheck failure")
		stall      = flag.Duration("stall-timeout", 0, "reap the -selfcheck simulation after this much progress silence (0 = off)")
		spoolDir   = flag.String("spool", "", "spool the dynamic trace to this directory instead of holding it in memory")
		maxTraceMB = flag.Int64("max-trace-mem", 0, "in-memory trace budget in MiB; a larger trace re-executes on demand (0 = unbounded)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file after the run")
		benchJSON  = flag.String("benchjson", "", "write execution/simulation throughput (BENCH_*.json trajectory point) to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ddrun [-mix] [-selfcheck] [-store dir [-resume]] [-retries n] [-stall-timeout d] [-timeout d] [-cpuprofile f] [-memprofile f] [-benchjson f] prog.{mc,s}")
		os.Exit(cli.ExitUsage)
	}
	cli.Exit("ddrun", run(flag.Arg(0), *mixFlag, *selfCheck, *maxSteps, *timeout,
		*storeDir, *resume, *retries, *stall, *spoolDir, *maxTraceMB<<20,
		*cpuProfile, *memProfile, *benchJSON))
}

func run(path string, mixFlag, selfCheck bool, maxSteps int64, timeout time.Duration,
	storeDir string, resume bool, retries int, stall time.Duration,
	spoolDir string, maxTraceMem int64,
	cpuProfile, memProfile, benchJSON string) (err error) {
	ctx, stop := cli.Context(timeout)
	defer stop()

	stopProf, err := cli.Profiling(cpuProfile, memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	var coll *perf.Collector
	if benchJSON != "" {
		coll = new(perf.Collector)
		defer func() {
			if werr := cli.WriteBenchJSON(benchJSON, coll); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	st, err := cli.OpenStore(storeDir, resume)
	if err != nil {
		return err
	}
	if st != nil && !selfCheck {
		fmt.Fprintln(os.Stderr, "ddrun: -store only persists -selfcheck results; nothing will be stored")
	}

	prog, err := workloads.LoadProgram(path)
	if err != nil {
		return err
	}

	needTrace := mixFlag || selfCheck || coll != nil
	var prov trace.Provider
	var nrec int64
	var out []int32
	timer := perf.Start()
	if needTrace {
		spoolPath := ""
		if spoolDir != "" {
			// No cross-run reuse: unlike workload spools, the program behind
			// a path can change between invocations, so every run writes
			// afresh.
			spoolPath = filepath.Join(spoolDir, filepath.Base(path)+".trace")
		}
		prov, out, err = workloads.ProgramProvider(ctx, prog, maxSteps, spoolPath, maxTraceMem)
		if err == nil {
			nrec, err = trace.ProviderRecords(prov)
		}
	} else {
		out, err = vm.Exec(prog, vm.WithMaxSteps(maxSteps), vm.WithContext(ctx))
	}
	if err != nil {
		return err
	}
	if coll != nil {
		coll.Record(perf.Cell{Workload: filepath.Base(path), Config: "exec", Width: 1,
			Instructions: nrec, Seconds: timer.Seconds()})
	}
	for _, v := range out {
		fmt.Println(v)
	}
	if mixFlag {
		fmt.Fprintf(os.Stderr, "%d dynamic instructions\n", nrec)
		src, err := prov.Open()
		if err != nil {
			return err
		}
		mix := trace.CollectMix(src)
		if err := trace.SourceErr(src); err != nil {
			trace.CloseSource(src)
			return err
		}
		trace.CloseSource(src)
		fmt.Fprint(os.Stderr, mix.String())
	}
	if selfCheck {
		r := experiments.NewRunner(1).WithPerf(coll)
		r.SelfCheck = true
		r.Retries = retries
		r.StallTimeout = stall
		if st != nil {
			r.WithStoreHandle(st)
		}
		progress, done := cli.Progress("ddrun")
		res, fromStore, err := r.RunCell(ctx, filepath.Base(path), 1, prov, core.ConfigD,
			core.Params{Width: 8, Progress: progress})
		done()
		cli.ReportStore("ddrun", st)
		if err != nil {
			return fmt.Errorf("self-check failed: %w", err)
		}
		how := ""
		if fromStore {
			how = " (served from store)"
		}
		fmt.Fprintf(os.Stderr, "self-check ok%s: %d invariant sweeps over %d instructions, 0 violations\n",
			how, res.SelfChecks, res.Instructions)
	}
	return nil
}
