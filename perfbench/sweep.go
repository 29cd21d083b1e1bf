package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/perf"
	"repro/internal/workloads"
)

// runnerWorkers caps the Runner's cell pool at the box's two CPUs.
const runnerWorkers = 2

// paperSpeedups are the paper's published D and E speedups over A
// (harmonic mean over its benchmarks), as quoted in EXPERIMENTS.md.
var paperSpeedups = []struct {
	config string
	width  int
	value  float64
}{
	{"D", 4, 1.20}, {"D", 8, 1.35}, {"D", 16, 1.51}, {"D", 32, 1.66}, {"D", 2048, 1.9},
	{"E", 4, 1.25}, {"E", 2048, 2.95},
}

// speedupError is the mean relative error of measured D/E speedups over A
// against paperSpeedups; speedup(config, width) returns the measurement.
func speedupError(speedup func(config string, width int) float64) float64 {
	var sum float64
	for _, p := range paperSpeedups {
		sum += math.Abs(speedup(p.config, p.width)/p.value - 1)
	}
	return sum / float64(len(paperSpeedups))
}

// goldenCycles reads testdata/golden/cycles.tsv: cycles per
// (workload, config, width) at the fixture's scale with the default window.
func goldenCycles() (map[string]int64, int, error) {
	path := filepath.Join("testdata", "golden", "cycles.tsv")
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	cells := map[string]int64{}
	scale := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			if _, after, ok := strings.Cut(line, "(scale "); ok {
				fmt.Sscanf(after, "%d", &scale)
			}
			continue
		}
		var wl, cfg string
		var width, win int
		var cyc int64
		if _, err := fmt.Sscanf(line, "%s\t%s\t%d\t%d\t%d", &wl, &cfg, &width, &win, &cyc); err != nil {
			return nil, 0, fmt.Errorf("%s: malformed line %q: %w", path, line, err)
		}
		if win == 0 {
			cells[cellName(wl, cfg, width)] = cyc
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if scale == 0 {
		return nil, 0, fmt.Errorf("%s: header names no scale", path)
	}
	return cells, scale, nil
}

func cellName(workload, config string, width int) string {
	return fmt.Sprintf("%s/%s/w%d", workload, config, width)
}

// checkGoldenTables renders Tables 1-6 at the golden fixtures' scale and
// compares each with testdata/golden byte for byte. want maps a table id to
// the expected rendering; nil reads the fixtures.
func checkGoldenTables(b *bench, scale int, want map[string]string) error {
	r := experiments.NewRunner(scale).WithWorkers(runnerWorkers)
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "table6"} {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		rep, err := e.Run(r)
		if err != nil {
			return err
		}
		exp, ok := want[id]
		if !ok {
			data, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
			if err != nil {
				return err
			}
			exp = string(data)
		}
		got := fmt.Sprintf("== %s: %s ==\n%s\n--- csv ---\n%s", rep.ID, rep.Title, rep.Text, rep.CSV)
		b.checkf(got == exp && !rep.Degraded(), "paper_sweep: %s at scale %d differs from testdata/golden", id, scale)
	}
	return nil
}

// checkCells compares every simulated cell's cycles with the golden grid.
func checkCells(b *bench, results map[string]*core.Result, want map[string]int64) {
	for name, res := range results {
		exp, ok := want[name]
		b.checkf(ok && res.Cycles == exp, "paper_sweep: %s: cycles %d, golden %d", name, res.Cycles, exp)
	}
}

// sweepCell is one (workload, config, width) of the paper grid, in the
// order Runner.Prefetch visits it.
type sweepCell struct {
	w     *workloads.Workload
	cfg   core.Config
	width int
}

func paperGrid() []sweepCell {
	var cells []sweepCell
	for _, w := range workloads.All() {
		for _, cfg := range core.Configs() {
			for _, width := range core.Widths {
				cells = append(cells, sweepCell{w, cfg, width})
			}
		}
	}
	return cells
}

// runPaperSweep renders every registry experiment from one Runner per
// round. Set-up materialises the six traces in memory; the timed section
// is the registry render, which simulates the whole A-E x width grid.
func runPaperSweep(ctx context.Context, b *bench) error {
	want, fixture, err := goldenCycles()
	if err != nil {
		return err
	}
	if b.size.goldenScale > 0 {
		if err := checkGoldenTables(b, b.size.goldenScale, nil); err != nil {
			return err
		}
	}
	scale := b.size.sweepScale
	grid := paperGrid()
	b.minUnits = b.size.minRounds * len(grid)
	var cyclesTotal, collapsedTotal int64
	err = b.loop(ctx, func(i int) (roundStats, error) {
		var rs roundStats
		workloads.FlushCache()
		col := &perf.Collector{}
		r := experiments.NewRunner(scale).WithWorkers(runnerWorkers).WithPerf(col).WithContext(ctx)
		// Untraced rounds leave the cells to the Runner's own Prefetch and
		// time its tail through OnCellDone.
		var clock *cellClock
		if b.tr == nil {
			clock = &cellClock{}
			r.OnCellDone = clock.cellDone
		}
		if err := b.setup(&rs, func() error {
			for _, w := range workloads.All() {
				id := b.tr.start("workloads.provider", 0)
				_, err := w.Provider(ctx, scale, workloads.ProviderOptions{})
				b.tr.end(id)
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return rs, err
		}
		reports := map[string]*experiments.Report{}
		err := b.timed(i, &rs, func() error {
			if b.tr != nil {
				if err := tracedPrefetch(b, r, grid); err != nil {
					return err
				}
			}
			for _, e := range experiments.Registry() {
				if clock != nil {
					clock.begin()
				}
				id := b.tr.start("experiments.render", 0)
				rep, err := e.Run(r)
				b.tr.end(id)
				if err != nil {
					return fmt.Errorf("%s: %w", e.ID, err)
				}
				reports[e.ID] = rep
			}
			return nil
		})
		if err != nil {
			return rs, err
		}
		for id, rep := range reports {
			b.checkf(!rep.Degraded(), "paper_sweep: %s degraded: %v", id, rep.Errs)
		}
		results := map[string]*core.Result{}
		var cyc, coll int64
		for _, c := range grid {
			name := cellName(c.w.Name, c.cfg.Name, c.width)
			res, err := r.Result(c.w, c.cfg, c.width)
			if err != nil {
				b.check(fmt.Errorf("paper_sweep: %s: %w", name, err))
				continue
			}
			results[name] = res
			cyc += res.Cycles
			coll += res.CollapsedInstrs
			rs.Instr += res.Instructions
		}
		if scale == fixture {
			checkCells(b, results, want)
		}
		cyclesTotal, collapsedTotal = cyc, coll
		cells := col.Cells()
		rs.Units = len(cells)
		var busy float64
		for _, c := range cells {
			b.latencies = append(b.latencies, c.Seconds*1e3)
			busy += c.Seconds
		}
		if clock != nil {
			b.sample("experiments.worker_busy_frac", busy/(runnerWorkers*rs.Wall))
			b.sample("experiments.straggler_s", clock.straggler())
		}
		d, err := experiments.Performance(r, workloads.All())
		if err != nil {
			return rs, err
		}
		b.accuracy = speedupError(func(cfg string, width int) float64 { return d.Speedup[cfg][width] })
		return rs, nil
	})
	if err != nil {
		return err
	}
	b.layer("core.cycles_total", "count", float64(cyclesTotal))
	b.layer("core.collapsed_total", "count", float64(collapsedTotal))
	if b.traced {
		return sweepLayers(ctx, b, scale)
	}
	return nil
}
