// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time and prints, as the last line of standard
// output, a JSON object with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). See README.md for the metric table and
// the reasons behind each workload.
//
//	perfbench --workload paper_sweep --seed 1 --seconds 30 --trace 0
//	perfbench steady --runs 10 paper_sweep trace_stream serve_jobs
//
// It runs from the root of a source checkout: the workloads build the
// simulator's inputs from the repository's own MiniC sources and check
// outputs against testdata/golden.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// workDir holds everything a run writes: per-run scratch (removed at exit)
// and the result files. It sits inside the checkout and is git-ignored.
const workDir = ".bench_build"

// workload is one named traffic mix. run fills b with per-round
// measurements and per-layer metrics. README.md gives the reason for each.
type workload struct {
	name string
	run  func(ctx context.Context, b *bench) error
}

var workloadList = []workload{
	{"paper_sweep", runPaperSweep},
	{"trace_stream", runTraceStream},
	{"serve_jobs", runServeJobs},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// roundStats is one round's measurement: a set-up phase followed by a
// timed section. Times are as the clock read them; endToEnd takes out the
// stolen share (see stealShare).
type roundStats struct {
	Traced     bool    `json:"traced"`
	Setup      float64 `json:"setup_s"`
	SetupSteal float64 `json:"setup_steal_share"`
	Wall       float64 `json:"wall_s"`
	Steal      float64 `json:"steal_share"` // of the timed section
	CPU        float64 `json:"cpu_s"`
	RSS        float64 `json:"peak_rss_mib"`
	Instr      int64   `json:"instructions"` // simulated or streamed dynamic instructions
	Units      int     `json:"units"`        // jobs completed (cells, trace passes or HTTP jobs)

	lat0, lat1 int // the round's samples in bench.latencies
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     sizes
	scratch  string

	tr      *tracer // non-nil only while a traced round runs
	allSpan *tracer // every traced round's spans
	windows []window

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string

	rounds    []roundStats
	latencies []float64 // per-unit latency samples, ms
	minUnits  int       // guaranteed sample count, fixes the tail percentile
	accuracy  float64   // speedup_err_vs_paper
	layers    map[string]metric
	samples   map[string][]float64 // per-round values of per-layer quantities
	cellRuns  []cellRun            // cells simulated in traced rounds
	notes     map[string]any
}

// sizes fixes how much work a workload does; tests use tinySizes.
type sizes struct {
	minRounds   int
	sweepScale  int     // paper_sweep workload scale
	goldenScale int     // scale of the golden Tables 1-6 (0 skips the check)
	streamMult  float64 // trace_stream scale as a multiple of each default
	serveScale  int     // serve_jobs workload scale
	serveWidths []int
	serveRepeat int // in-run repeats appended to the serve_jobs sequence
}

var fullSizes = sizes{
	minRounds:   6,
	sweepScale:  60,
	goldenScale: 20,
	streamMult:  1,
	serveScale:  60,
	serveWidths: []int{4, 8, 16, 32, 2048},
	serveRepeat: 30,
}

// check records one attempted operation; a non-nil err is a failure.
func (b *bench) check(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

func (b *bench) checkf(ok bool, format string, args ...any) {
	if ok {
		b.check(nil)
		return
	}
	b.check(fmt.Errorf(format, args...))
}

func (b *bench) layer(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.layers[name] = metric{Value: v, Unit: unit}
}

// rounds runs setup+timed rounds until the time budget is spent and at
// least minRounds have run. In a traced run, rounds alternate between
// untraced and traced so the two medians give the tracing overhead.
func (b *bench) loop(ctx context.Context, round func(i int) (roundStats, error)) error {
	t0 := time.Now()
	for i := 0; i < b.size.minRounds || time.Since(t0).Seconds() < b.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		b.tr = nil
		if b.traced && i%2 == 1 {
			b.tr = b.allSpan
			b.tr.setRun(i)
		}
		lat0 := len(b.latencies)
		rs, err := round(i)
		if err != nil {
			return err
		}
		rs.Traced = b.tr != nil
		rs.lat0, rs.lat1 = lat0, len(b.latencies)
		b.rounds = append(b.rounds, rs)
	}
	b.tr = nil
	return nil
}

// timed runs fn as round i's timed section and fills the section fields of
// rs. The traced window is recorded for self-time attribution.
func (b *bench) timed(i int, rs *roundStats, fn func() error) error {
	// Start every timed section from the same heap state, with freed
	// memory returned to the OS, so the resident-set peak is the section's
	// own.
	debug.FreeOSMemory()
	w0 := b.tr.stamp()
	sec := startSection()
	err := fn()
	rs.Wall, rs.Steal, rs.CPU, rs.RSS = sec.stop()
	if b.tr != nil {
		b.windows = append(b.windows, window{Run: i, Start: w0, End: b.tr.stamp()})
	}
	return err
}

// setup runs fn as round set-up and records its duration.
func (b *bench) setup(rs *roundStats, fn func() error) error {
	c0, t0 := readCPUClock(), time.Now()
	err := fn()
	rs.Setup = time.Since(t0).Seconds()
	rs.SetupSteal = stealShare(c0, readCPUClock())
	return err
}

type metricDef struct{ name, unit string }

// perLayerMetrics is every per-layer metric a traced run reports; it
// matches the per_layer list of BENCHMARK.json.
var perLayerMetrics = []metricDef{
	{"minic.compile_s", "s"}, {"asm.assemble_s", "s"},
	{"workloads.provider_s", "s"}, {"workloads.records", "count"},
	{"vm.emulate_minstr_per_s", "MInstr/s"},
	{"trace.regen_minstr_per_s", "MInstr/s"},
	{"trace.spool_write_minstr_per_s", "MInstr/s"},
	{"trace.spool_read_minstr_per_s", "MInstr/s"},
	{"trace.spool_bytes_per_record", "B"},
	{"trace.buffer_read_minstr_per_s", "MInstr/s"},
	{"trace.hash_s", "s"},
	{"core.run_s", "s"}, {"core.minstr_per_s", "MInstr/s"},
	{"core.minstr_per_s.A", "MInstr/s"}, {"core.minstr_per_s.B", "MInstr/s"},
	{"core.minstr_per_s.C", "MInstr/s"}, {"core.minstr_per_s.D", "MInstr/s"},
	{"core.minstr_per_s.E", "MInstr/s"},
	{"core.minstr_per_s.w4", "MInstr/s"}, {"core.minstr_per_s.w8", "MInstr/s"},
	{"core.minstr_per_s.w16", "MInstr/s"}, {"core.minstr_per_s.w32", "MInstr/s"},
	{"core.minstr_per_s.w2048", "MInstr/s"},
	{"core.cycles_total", "count"}, {"core.collapsed_total", "count"},
	{"experiments.render_s", "s"}, {"experiments.worker_busy_frac", "ratio"},
	{"experiments.straggler_s", "s"},
	{"store.get_ms", "ms"}, {"store.put_ms", "ms"},
	{"store.hits", "count"}, {"store.misses", "count"}, {"store.puts", "count"},
	{"server.submit_ms", "ms"}, {"server.queue_ms", "ms"},
	{"server.simulate_ms", "ms"}, {"server.polls_per_job", "count"},
	{"core.wall_share", "ratio"}, {"experiments.wall_share", "ratio"},
	{"workloads.wall_share", "ratio"}, {"trace.wall_share", "ratio"},
	{"server.wall_share", "ratio"}, {"store.wall_share", "ratio"},
	{"bench.span_coverage", "ratio"}, {"bench.trace_overhead_s", "s"},
}

// endToEndMetrics is every end-to-end metric an untraced run reports; it
// matches the end_to_end list of BENCHMARK.json.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"},
	{"sim_minstr_per_s", "MInstr/s"}, {"peak_rss_mib", "MiB"},
	{"jobs_per_s", "jobs/s"}, {"job_p50_ms", "ms"}, {"job_tail_ms", "ms"},
	{"speedup_err_vs_paper", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics from the untraced rounds. Wall
// times and latencies leave out the stolen share of the busy CPU time (for
// a latency, over its round's timed section); CPU time never includes it.
func (b *bench) endToEnd() map[string]metric {
	var setup, wall, cpu, rss, mips, jobs, lat []float64
	var rawWall, rawLat []float64 // as the clock read them, for the result file
	for _, r := range b.rounds {
		setup = append(setup, r.Setup*(1-r.SetupSteal))
		if r.Traced {
			continue
		}
		w := r.Wall * (1 - r.Steal)
		wall = append(wall, w)
		rawWall = append(rawWall, r.Wall)
		cpu = append(cpu, r.CPU)
		rss = append(rss, r.RSS)
		mips = append(mips, float64(r.Instr)/1e6/w)
		jobs = append(jobs, float64(r.Units)/w)
		for _, l := range b.latencies[r.lat0:r.lat1] {
			lat = append(lat, l*(1-r.Steal))
			rawLat = append(rawLat, l)
		}
	}
	tail := tailPercentile(b.minUnits)
	b.notes["job_tail_percentile"] = tail
	b.notes["job_latency_samples"] = len(lat)
	b.notes["raw_wall_s"] = median(rawWall)
	b.notes["raw_job_p50_ms"] = median(rawLat)
	b.notes["raw_job_tail_ms"] = percentile(rawLat, tail)
	values := map[string]float64{
		"setup_s":              median(setup),
		"wall_s":               median(wall),
		"cpu_s":                median(cpu),
		"sim_minstr_per_s":     median(mips),
		"peak_rss_mib":         median(rss),
		"jobs_per_s":           median(jobs),
		"job_p50_ms":           median(lat),
		"job_tail_ms":          percentile(lat, tail),
		"speedup_err_vs_paper": b.accuracy,
	}
	out := map[string]metric{}
	for _, m := range endToEndMetrics {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}

// traceReport turns the traced rounds' spans into the self-time table and
// the tracing overhead, and writes the spans out.
func (b *bench) traceReport(spanPath string) {
	spans := b.allSpan.closed()
	rows, coverage := attribute(spans, b.windows)
	var traced, plain []float64
	for _, r := range b.rounds {
		if r.Traced {
			traced = append(traced, r.Wall*(1-r.Steal))
		} else {
			plain = append(plain, r.Wall*(1-r.Steal))
		}
	}
	var wall float64
	for _, w := range b.windows {
		wall += float64(w.End-w.Start) / 1e9
	}
	fmt.Fprintf(os.Stderr, "per-layer self time, %s (traced rounds only):\n", b.workload)
	printLayers(os.Stderr, rows, coverage, wall)
	overhead := median(traced) - median(plain)
	fmt.Fprintf(os.Stderr, "tracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %+.4f s\n",
		median(traced), median(plain), overhead)
	b.layer("bench.trace_overhead_s", "s", overhead)
	b.layer("bench.span_coverage", "ratio", coverage)
	shares := map[string]float64{}
	for _, r := range rows {
		shares[r.Layer] = r.Share
	}
	for _, l := range []string{"core", "experiments", "workloads", "trace", "server", "store"} {
		b.layer(l+".wall_share", "ratio", shares[l])
	}
	b.notes["layers"] = rows
	if err := writeSpans(spanPath, spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
}

// environment is recorded in every result file.
func environment(seed int64) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"commit":     commit(),
		"source":     sourceHash(),
		"seed":       seed,
		"when":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out git commit, or "unknown" outside a git
// repository (sourceHash identifies the code there).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the simulator's sources (go.mod and every .go
// file under internal/ and cmd/), so results from a checkout without git
// history still name the code they measured.
func sourceHash() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, p := range append([]string{"go.mod"}, files...) {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// runOnce executes one workload run and returns its output object.
func runOnce(ctx context.Context, w workload, b *bench) (output, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return output{}, err
	}
	scratch, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(scratch)
	b.scratch = scratch
	b.layers = map[string]metric{}
	b.notes = map[string]any{}
	if b.traced {
		b.allSpan = newTracer()
	}
	if err := w.run(ctx, b); err != nil {
		return output{}, fmt.Errorf("%s: %w", w.name, err)
	}
	out := output{Attempted: b.attempted, Failed: b.failed}
	out.Correct = b.failed == 0 && b.attempted > 0
	resDir := filepath.Join(workDir, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return output{}, err
	}
	stem := filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, b.seed, boolInt(b.traced), time.Now().UnixNano()))
	if b.traced {
		b.traceReport(stem + ".spans.jsonl")
		// A workload reports 0 for a layer it does not exercise (the
		// store on paper_sweep, the scheduler on trace_stream).
		for _, m := range perLayerMetrics {
			if _, ok := b.layers[m.name]; !ok {
				b.layer(m.name, m.unit, 0)
			}
		}
		out.Metrics = b.layers
	} else {
		out.Metrics = b.endToEnd()
	}
	failedFrac := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Fprintf(os.Stderr, "%s: %d rounds, %d ops attempted, %d failed (failed_frac %.4g)\n",
		w.name, len(b.rounds), b.attempted, b.failed, failedFrac)
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "  FAIL %s\n", f)
	}
	printMetrics(out.Metrics)
	rec := map[string]any{
		"workload":    w.name,
		"traced":      b.traced,
		"seconds":     b.seconds,
		"env":         environment(b.seed),
		"output":      out,
		"failed_frac": failedFrac,
		"failures":    b.failures,
		"rounds":      b.rounds,
		"notes":       b.notes,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(stem+".json", data, 0o644)
	}
	if err != nil {
		return output{}, fmt.Errorf("writing result file: %w", err)
	}
	return out, nil
}

func printMetrics(m map[string]metric) {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload to run")
	seed := fset.Int64("seed", 1, "input seed")
	seconds := fset.Float64("seconds", 0, "measurement time (0 = run_seconds of BENCHMARK.json)")
	traceFlag := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fset.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err == nil && *traceFlag != 0 && *traceFlag != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *traceFlag)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join("testdata", "golden", "cycles.tsv")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of a source checkout")
		os.Exit(2)
	}
	if *seconds == 0 {
		def, err := readBenchmarkFile()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(2)
		}
		*seconds = float64(def.RunSeconds)
	}
	b := &bench{workload: w.name, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, size: fullSizes}
	out, err := runOnce(context.Background(), w, b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err == nil {
		_, err = fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}
