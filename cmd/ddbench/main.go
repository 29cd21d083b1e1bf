// ddbench runs the repository's core benchmarks programmatically (via
// testing.Benchmark) and emits a BENCH_*.json trajectory file; with
// -baseline it becomes the CI benchmark gate, failing on >threshold ns/op
// regression or *any* allocs/op growth against the checked-in baseline.
//
//	ddbench -out BENCH_pr.json                       # measure
//	ddbench -out BENCH_pr.json \
//	        -baseline bench/BENCH_baseline.json      # measure + gate
//
// Six benchmarks cover the performance surfaces the scheduler rewrite and
// the streaming trace plane locked in (see docs/performance.md):
//
//   - table1: the cold Table 1 pipeline — flush the trace cache, compile,
//     assemble, emulate all six workloads, render the table. Dominated by
//     trace generation; guards the chunked trace.Buffer.
//   - sched/espresso/D/w8: warm scheduling of the espresso trace under the
//     densest configuration. Guards the issue ring, signature interning,
//     and the iterative group chooser; carries the allocs/op gate.
//   - sched/espresso/D/w2048: the same trace at the paper's "2k" width,
//     where the window holds 4096 instructions. Guards the window bucket
//     queue, whose cost a narrow window hides.
//   - core_visit/short: scheduling of a short trace, isolating per-run
//     setup + the visit loop from experiment plumbing.
//   - trace_pipeline: the streaming first pass — VM execution feeding the
//     scheduler through the bounded pipe, nothing materialized. Guards the
//     producer/consumer overlap the trace plane's memory bound depends on.
//   - sweep_all: the run users make — every registry experiment, cold
//     traces included, from one Runner with one worker (a fixed pool size
//     keeps the point comparable across machines), at a reduced scale.
//
// Exit codes: 0 ok (no regressions), 1 regression or benchmark failure,
// 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		out       = flag.String("out", "BENCH_pr.json", "write the measured trajectory point to this file")
		baseline  = flag.String("baseline", "", "gate against this BENCH_*.json baseline (empty = measure only)")
		threshold = flag.Float64("threshold", 0.10, "maximum tolerated fractional ns/op growth (0.10 = +10%)")
		scale     = flag.Int("scale", 0, "workload scale for the benchmarks (0 = per-benchmark default)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ddbench [-out f] [-baseline f] [-threshold x] [-scale n]")
		os.Exit(2)
	}
	if err := run(*out, *baseline, *threshold, *scale); err != nil {
		fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
		os.Exit(1)
	}
}

func run(out, baseline string, threshold float64, scale int) error {
	points, err := measure(scale)
	if err != nil {
		return err
	}
	rep := perf.NewReport(points)
	for _, p := range rep.Points {
		fmt.Printf("%-24s %14.0f ns/op %12d B/op %8d allocs/op", p.Name, p.NsPerOp, p.BytesPerOp, p.AllocsPerOp)
		if p.MInstrPerSec > 0 {
			fmt.Printf(" %8.2f MInstr/s", p.MInstrPerSec)
		}
		fmt.Println()
	}
	if out != "" {
		if err := perf.WriteFile(out, rep); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if baseline == "" {
		return nil
	}
	base, err := perf.ReadFile(baseline)
	if err != nil {
		return err
	}
	regs := perf.Compare(base, rep, threshold)
	if len(regs) == 0 {
		fmt.Printf("gate ok: no regressions against %s (threshold %+.0f%% ns/op, 0 new allocs)\n",
			baseline, 100*threshold)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
	}
	return fmt.Errorf("%d benchmark regression(s) against %s", len(regs), baseline)
}

// sweepScale is sweep_all's default workload scale: every table and figure
// in a few seconds per iteration.
const sweepScale = 60

// measure runs the gate benchmarks and converts their results into
// trajectory points.
func measure(scale int) ([]perf.Point, error) {
	var points []perf.Point
	var failure error
	bench := func(name string, instrPerOp int64, fn func(b *testing.B)) {
		if failure != nil {
			return
		}
		r := testing.Benchmark(fn)
		if r.N == 0 {
			failure = fmt.Errorf("benchmark %s did not run", name)
			return
		}
		p := perf.Point{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if instrPerOp > 0 && r.NsPerOp() > 0 {
			p.MInstrPerSec = perf.MInstrPerSec(instrPerOp, float64(r.NsPerOp())/1e9)
		}
		points = append(points, p)
	}

	// Cold Table 1: trace generation + rendering, the full front half of
	// the pipeline. Flushing the cache inside the timed loop is the point —
	// a warm iteration would only measure map lookups.
	bench("table1", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			workloads.FlushCache()
			if _, err := experiments.Table1(experiments.NewRunner(scale)); err != nil {
				b.Fatal(err)
			}
		}
	})
	if failure != nil {
		return nil, failure
	}

	// Warm scheduling: the core loop on a real trace, trace generation
	// excluded. This point carries the allocs/op gate for the scheduler.
	espresso, err := workloads.ByName("espresso")
	if err != nil {
		return nil, err
	}
	tr, _, err := espresso.TraceCached(scale)
	if err != nil {
		return nil, err
	}
	for _, width := range []int{8, 2048} {
		bench(fmt.Sprintf("sched/espresso/D/w%d", width), int64(tr.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Run(tr.Reader(), core.ConfigD, core.Params{Width: width})
			}
		})
	}

	// Short-trace core loop: per-run setup + visit loop without experiment
	// plumbing, small enough to iterate thousands of times.
	short := shortTrace(tr)
	bench("core_visit/short", int64(short.Len()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Run(short.Reader(), core.ConfigD, core.Params{Width: 8})
		}
	})
	if failure != nil {
		return nil, failure
	}

	// Streaming first pass: the VM regenerates the trace live, records flow
	// to the scheduler through the bounded pipe — the provider path every
	// memory-bounded run takes. Compared against sched/espresso/D/w8, the
	// delta is the cost (or win, on multicore) of pipelined generation.
	bench("trace_pipeline", int64(tr.Len()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src, err := espresso.Stream(context.Background(), scale)
			if err != nil {
				b.Fatal(err)
			}
			core.Run(src, core.ConfigD, core.Params{Width: 8})
			if err := trace.SourceErr(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	if failure != nil {
		return nil, failure
	}

	// The full sweep, cold: every iteration regenerates the traces and
	// renders every registry experiment, as ddsim -experiment all does.
	sscale := scale
	if sscale <= 0 {
		sscale = sweepScale
	}
	bench("sweep_all", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			workloads.FlushCache()
			r := experiments.NewRunner(sscale).WithWorkers(1)
			for _, e := range experiments.Registry() {
				rep, err := e.Run(r)
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if rep.Degraded() {
					b.Fatalf("%s: degraded: %v", e.ID, rep.Errs)
				}
			}
		}
	})
	return points, failure
}

// shortTrace takes the first 10k records of a real trace: long enough to
// exercise steady state, short enough to isolate the loop.
func shortTrace(tr *trace.Buffer) *trace.Buffer {
	return trace.Drain(trace.Limit(tr.Reader(), 10_000))
}
