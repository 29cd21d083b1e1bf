package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// maxSteps matches the step limit the workloads package runs its VMs with.
const maxSteps = 1 << 31

// sample records one value of a per-layer quantity; sampleMedian reports
// the median of the values as the layer metric.
func (b *bench) sample(name string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.samples == nil {
		b.samples = map[string][]float64{}
	}
	b.samples[name] = append(b.samples[name], v)
}

func (b *bench) sampleMedian(name, unit string) {
	b.layer(name, unit, median(b.samples[name]))
}

// tracedRounds counts the rounds whose spans were recorded.
func (b *bench) tracedRounds() float64 {
	n := 0
	for _, r := range b.rounds {
		if r.Traced {
			n++
		}
	}
	return float64(max(n, 1))
}

// tracedPrefetch simulates the grid through Runner.Result on runnerWorkers
// goroutines in Runner.Prefetch's order, with one core.run span per cell,
// so the registry render that follows is served from the Runner's cache.
func tracedPrefetch(b *bench, r *experiments.Runner, grid []sweepCell) error {
	return parallel(runnerWorkers, len(grid), func(i int) error {
		c := grid[i]
		t0 := time.Now()
		id := b.tr.start("core.run", 0)
		b.tr.annotate(id, cellName(c.w.Name, c.cfg.Name, c.width))
		res, err := r.Result(c.w, c.cfg, c.width)
		b.tr.end(id)
		if err != nil {
			return err
		}
		b.addCellRun(cellRun{c.cfg.Name, c.width, res.Instructions, time.Since(t0).Seconds()})
		return nil
	})
}

// cellClock timestamps Runner.OnCellDone, grouped by the registry entry
// whose render computed the cell, so untraced rounds can measure the tail
// of the program's own Runner.Prefetch through its public hook.
type cellClock struct {
	mu      sync.Mutex
	batches []cellBatch
}

type cellBatch struct {
	start time.Time
	done  []time.Time
}

// begin opens the batch of the registry entry about to render.
func (c *cellClock) begin() {
	c.mu.Lock()
	c.batches = append(c.batches, cellBatch{start: time.Now()})
	c.mu.Unlock()
}

// cellDone is the Runner's OnCellDone hook.
func (c *cellClock) cellDone(int) {
	c.mu.Lock()
	if n := len(c.batches); n > 0 {
		c.batches[n-1].done = append(c.batches[n-1].done, time.Now())
	}
	c.mu.Unlock()
}

// straggler is the time the last cell of each batch ran with the other
// worker idle: from the batch's second-to-last completion (or its start,
// for a batch of one cell) to its last, summed over the batches.
func (c *cellClock) straggler() float64 {
	var s time.Duration
	for _, bt := range c.batches {
		n := len(bt.done)
		if n == 0 {
			continue
		}
		from := bt.start
		if n > 1 {
			from = bt.done[n-2]
		}
		s += bt.done[n-1].Sub(from)
	}
	return s.Seconds()
}

// cellRun is one simulated cell: its configuration, width, dynamic
// instruction count and simulation time.
type cellRun struct {
	config string
	width  int
	instr  int64
	sec    float64
}

func (b *bench) addCellRun(c cellRun) {
	b.mu.Lock()
	b.cellRuns = append(b.cellRuns, c)
	b.mu.Unlock()
}

// coreLayers reports the scheduler's time per traced round and its
// throughput overall, per configuration and per width.
func coreLayers(b *bench) {
	type acc struct{ instr, sec float64 }
	var all acc
	by := map[string]acc{}
	for _, c := range b.cellRuns {
		all.instr += float64(c.instr)
		all.sec += c.sec
		for _, k := range []string{c.config, fmt.Sprintf("w%d", c.width)} {
			v := by[k]
			by[k] = acc{v.instr + float64(c.instr), v.sec + c.sec}
		}
	}
	b.layer("core.run_s", "s", all.sec/b.tracedRounds())
	b.layer("core.minstr_per_s", "MInstr/s", all.instr/1e6/all.sec)
	for _, cfg := range core.Configs() {
		b.layer("core.minstr_per_s."+cfg.Name, "MInstr/s", by[cfg.Name].instr/1e6/by[cfg.Name].sec)
	}
	for _, w := range core.Widths {
		k := fmt.Sprintf("w%d", w)
		b.layer("core.minstr_per_s."+k, "MInstr/s", by[k].instr/1e6/by[k].sec)
	}
}

// providerLayer reports the time spent in workloads.Provider per traced
// round.
func providerLayer(b *bench, spans []span) {
	total, _ := named(spans, "workloads.provider")
	b.layer("workloads.provider_s", "s", total/b.tracedRounds())
}

// sweepLayers derives paper_sweep's per-layer metrics: core and render
// times from the traced rounds, worker busy share and straggler from the
// untraced ones.
func sweepLayers(ctx context.Context, b *bench, scale int) error {
	spans := b.allSpan.closed()
	coreLayers(b)
	total, _ := named(spans, "experiments.render")
	b.layer("experiments.render_s", "s", total/b.tracedRounds())
	b.sampleMedian("experiments.worker_busy_frac", "ratio")
	b.sampleMedian("experiments.straggler_s", "s")
	providerLayer(b, spans)
	return probeLayers(ctx, b, func(*workloads.Workload) int { return scale })
}

// drain consumes src and reports how many records it yielded.
func drain(src trace.Source) (int64, error) {
	var rec trace.Record
	var n int64
	for src.Next(&rec) {
		n++
	}
	return n, trace.SourceErr(src)
}

// probeLayers times each trace-plane layer on its own, calling its public
// functions directly on the six workloads at scaleOf(w): compile,
// assemble, emulate, regenerate through the VM stream, read a buffer,
// hash, write and read a spool. The probe runs after the rounds, outside
// every timed window.
func probeLayers(ctx context.Context, b *bench, scaleOf func(*workloads.Workload) int) error {
	tr := b.allSpan
	tr.setRun(-1)
	var records, spoolBytes int64
	timedCall := func(name string, fn func() error) (float64, error) {
		id := tr.start(name, 0)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0).Seconds()
		tr.end(id)
		return d, err
	}
	t := map[string]float64{}
	for _, w := range workloads.All() {
		scale := scaleOf(w)
		var text string
		var p *isa.Program
		d, err := timedCall("minic.compile", func() (err error) { text, err = minic.Compile(w.Source(scale)); return })
		if err != nil {
			return err
		}
		t["compile"] += d
		d, err = timedCall("asm.assemble", func() (err error) { p, err = asm.Assemble(text); return })
		if err != nil {
			return err
		}
		t["assemble"] += d
		var n int64
		d, err = timedCall("vm.emulate", func() error {
			m, err := vm.New(p, vm.WithMaxSteps(maxSteps), vm.WithContext(ctx), vm.WithSink(func(*trace.Record) { n++ }))
			if err != nil {
				return err
			}
			return m.Run()
		})
		if err != nil {
			return err
		}
		t["emulate"] += d
		records += n
		d, err = timedCall("trace.regen", func() error {
			ts, err := vm.StreamTrace(ctx, p, 0, vm.WithMaxSteps(maxSteps))
			if err != nil {
				return err
			}
			defer ts.Close()
			got, err := drain(ts)
			if err == nil && got != n {
				err = fmt.Errorf("regenerated %d records, emulated %d", got, n)
			}
			return err
		})
		if err != nil {
			return err
		}
		t["regen"] += d
		buf, _, err := vm.Trace(p, vm.WithMaxSteps(maxSteps), vm.WithContext(ctx))
		if err != nil {
			return err
		}
		d, err = timedCall("trace.buffer_read", func() error { _, err := drain(buf.Reader()); return err })
		if err != nil {
			return err
		}
		t["buffer"] += d
		d, err = timedCall("trace.hash", func() error { _, _, err := trace.ContentHash(buf.Reader()); return err })
		if err != nil {
			return err
		}
		t["hash"] += d
		path := filepath.Join(b.scratch, "probe-"+w.Name+".trace")
		var sp *trace.Spool
		d, err = timedCall("trace.spool_write", func() (err error) { sp, err = trace.SpoolFrom(path, buf.Reader()); return })
		if err != nil {
			return err
		}
		t["spool_write"] += d
		if fi, err := os.Stat(path); err == nil {
			spoolBytes += fi.Size()
		}
		d, err = timedCall("trace.spool_read", func() error {
			src, err := sp.Open()
			if err != nil {
				return err
			}
			defer trace.CloseSource(src)
			_, err = drain(src)
			return err
		})
		if err != nil {
			return err
		}
		t["spool_read"] += d
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	mips := func(sec float64) float64 { return float64(records) / 1e6 / sec }
	b.layer("minic.compile_s", "s", t["compile"])
	b.layer("asm.assemble_s", "s", t["assemble"])
	b.layer("workloads.records", "count", float64(records))
	b.layer("vm.emulate_minstr_per_s", "MInstr/s", mips(t["emulate"]))
	b.layer("trace.regen_minstr_per_s", "MInstr/s", mips(t["regen"]))
	b.layer("trace.spool_write_minstr_per_s", "MInstr/s", mips(t["spool_write"]))
	b.layer("trace.spool_read_minstr_per_s", "MInstr/s", mips(t["spool_read"]))
	b.layer("trace.spool_bytes_per_record", "B", float64(spoolBytes)/float64(records))
	b.layer("trace.buffer_read_minstr_per_s", "MInstr/s", mips(t["buffer"]))
	b.layer("trace.hash_s", "s", t["hash"])
	return nil
}
