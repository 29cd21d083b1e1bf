package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// The workloads read testdata/ and write .bench_build/ relative to the
// repository root, so the tests run from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// tinySizes runs every workload in about a second: two rounds (the second
// traced in a traced run) on small inputs.
var tinySizes = sizes{
	minRounds:   2,
	sweepScale:  5,
	streamMult:  0.02,
	serveScale:  5,
	serveWidths: []int{4, 2048},
	serveRepeat: 4,
}

func runTiny(t *testing.T, name string, traced bool) output {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workload: name, seed: 3, traced: traced, size: tinySizes}
	out, err := runOnce(context.Background(), w, b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Each workload completes at a tiny size with no failed operation and
// emits every named metric, with its unit, as a finite number.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			out := runTiny(t, w.name, traced)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, out.Correct, out.Attempted, out.Failed)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", w.name, traced, m.name, got, m.unit)
				}
			}
			if !traced {
				for _, m := range []string{"wall_s", "cpu_s", "jobs_per_s", "job_p50_ms", "speedup_err_vs_paper"} {
					if out.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, m, out.Metrics[m].Value)
					}
				}
			}
		}
	}
}

// Negative controls: a perturbed expected value handed to each checker
// drives failed_frac above 0.
func TestCheckersCatchPerturbedExpectations(t *testing.T) {
	failedFrac := func(b *bench) float64 { return float64(b.failed) / float64(b.attempted) }

	t.Run("paper_sweep tables", func(t *testing.T) {
		b := &bench{}
		want := map[string]string{"table3": "== table3: perturbed ==\n"}
		if err := checkGoldenTables(b, 20, want); err != nil {
			t.Fatal(err)
		}
		if b.attempted != 6 || b.failed != 1 {
			t.Errorf("attempted %d failed %d, want 6 and 1 (only table3 perturbed)", b.attempted, b.failed)
		}
	})

	t.Run("paper_sweep cycles", func(t *testing.T) {
		want, _, err := goldenCycles()
		if err != nil {
			t.Fatal(err)
		}
		name := cellName("li", "D", 8)
		res := map[string]*core.Result{name: {Cycles: want[name]}}
		b := &bench{}
		checkCells(b, res, want)
		if b.failed != 0 {
			t.Fatalf("unperturbed golden cell failed: %v", b.failures)
		}
		want[name]++
		checkCells(b, res, want)
		if failedFrac(b) <= 0 {
			t.Error("a perturbed golden cycle count passed the check")
		}
	})

	t.Run("trace_stream", func(t *testing.T) {
		ref := map[string]traceFacts{"li": {Hash: 7, Records: 100, CondPct: 12.5, Predicted: 90}}
		seen := []streamResult{{workload: "li", rung: "spool", reported: ref["li"], drained: ref["li"]}}
		b := &bench{}
		checkPasses(b, seen, ref)
		if b.failed != 0 {
			t.Fatalf("unperturbed pass failed: %v", b.failures)
		}
		for _, perturb := range []func(*traceFacts){
			func(f *traceFacts) { f.Hash++ },
			func(f *traceFacts) { f.Records++ },
			func(f *traceFacts) { f.Predicted += 0.01 },
		} {
			f := ref["li"]
			perturb(&f)
			b := &bench{}
			checkPasses(b, seen, map[string]traceFacts{"li": f})
			if failedFrac(b) <= 0 {
				t.Errorf("perturbed reference %+v passed the check", f)
			}
		}
	})

	t.Run("serve_jobs", func(t *testing.T) {
		cell := serveCell{"li", "D", 8}
		job := serveJob{cell, kindNew}
		o := jobOutcome{doc: jobDoc{State: server.StateDone, Result: &cellResult{Cycles: 500, Instructions: 900}}}
		ref := map[serveCell]*core.Result{cell: {Cycles: 500, Instructions: 900}}
		if err := checkServed(job, o, ref); err != nil {
			t.Fatalf("unperturbed job failed: %v", err)
		}
		b := &bench{}
		b.check(checkServed(job, o, map[serveCell]*core.Result{cell: {Cycles: 501, Instructions: 900}}))
		if failedFrac(b) <= 0 {
			t.Error("a perturbed reference result passed the check")
		}
		o.shed = true
		if checkServed(job, o, ref) == nil {
			t.Error("a shed job passed the check")
		}
	})
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the steadiness judgement uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{20: 50, 40: 75, 100: 90, 900: 95, 1200: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// The stolen share is the steal advance over the busy advance, clamped to
// [0, 1], and 0 where the clock did not advance or is missing.
func TestStealShare(t *testing.T) {
	for _, c := range []struct {
		a, b cpuClock
		want float64
	}{
		{cpuClock{100, 10}, cpuClock{300, 60}, 0.25},
		{cpuClock{100, 10}, cpuClock{300, 10}, 0},
		{cpuClock{}, cpuClock{}, 0},
		{cpuClock{100, 10}, cpuClock{100, 20}, 0},
		{cpuClock{100, 10}, cpuClock{200, 300}, 1},
	} {
		if got := stealShare(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stealShare(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Wall time splits evenly between concurrent innermost spans, parents
// keep only the time no child covers, and gaps stay unaccounted.
func TestAttribute(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 1, Run: 1, Name: "server.job", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Run: 1, Name: "server.poll", Start: 2 * ms, End: 4 * ms},
		{ID: 3, Run: 1, Name: "store.get", Start: 2 * ms, End: 6 * ms},
		{ID: 4, Run: 2, Name: "core.run", Start: 0, End: 10 * ms}, // another round
	}
	rows, coverage := attribute(spans, []window{{Run: 1, Start: 0, End: 20 * ms}})
	if math.Abs(coverage-0.5) > 1e-9 {
		t.Errorf("coverage = %v, want 0.5", coverage)
	}
	wall := map[string]float64{}
	self := map[string]float64{}
	for _, r := range rows {
		wall[r.Layer], self[r.Layer] = r.Wall, r.Self
	}
	// server: 0-2 alone, 2-4 shared (poll vs store), 4-6 shared (job vs
	// store), 6-10 alone = 2+1+1+4 ms; store: 1+1 ms.
	if math.Abs(wall["server"]-0.008) > 1e-9 || math.Abs(wall["store"]-0.002) > 1e-9 || wall["core"] != 0 {
		t.Errorf("wall = %v, want server 0.008 store 0.002", wall)
	}
	if math.Abs(self["server"]-0.010) > 1e-9 || math.Abs(self["store"]-0.004) > 1e-9 {
		t.Errorf("self = %v, want server 0.010 (8 job + 2 poll) store 0.004", self)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloadList) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(def.Workloads), len(workloadList))
	}
	for i, w := range def.Workloads {
		if i < len(workloadList) && w.Name != workloadList[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloadList[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEndMetrics)
	same("per_layer", def.PerLayer, perLayerMetrics)
}
