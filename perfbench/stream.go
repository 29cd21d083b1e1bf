package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bpred"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// regenBudget is the MaxMem budget of the regeneration rung: far below any
// workload's trace at trace_stream's scale, so every open re-runs the VM.
const regenBudget = 1 << 20

// traceFacts is what the Table 1-2 characterisation pass learns from one
// trace: its content hash and length, the conditional-branch share and the
// 8 kB McFarling predictor's accuracy.
type traceFacts struct {
	Hash      uint64
	Records   int64
	CondPct   float64
	Predicted float64
}

// characterise drains src through the Table 1-2 pass (instruction mix and
// the paper's 8 kB combining predictor), hashing every record on the way.
func characterise(src trace.Source) (traceFacts, error) {
	hs := trace.NewHasher()
	var mix trace.Mix
	pred := bpred.NewPaper8KB()
	var acc bpred.Accuracy
	var rec trace.Record
	for src.Next(&rec) {
		hs.WriteRecord(&rec)
		mix.Observe(&rec)
		if rec.Instr.IsCondBranch() {
			acc.Observe(pred, rec.PC, rec.Taken)
		}
	}
	if err := trace.SourceErr(src); err != nil {
		return traceFacts{}, err
	}
	return traceFacts{hs.Sum64(), hs.Records(), mix.CondBranchPercent(), acc.Rate()}, nil
}

// streamResult is one workload's pass through one rung: what the provider
// reported and what the drain saw.
type streamResult struct {
	workload, rung    string
	reported, drained traceFacts
}

// checkPasses compares every pass with the reference. Figures are compared
// exactly: both sides run the same deterministic pass over what must be
// the same records. The provider reports only hash and length.
func checkPasses(b *bench, passes []streamResult, ref map[string]traceFacts) {
	for _, p := range passes {
		want := ref[p.workload]
		what := p.workload + "/" + p.rung
		b.checkf(p.reported.Hash == want.Hash && p.reported.Records == want.Records,
			"trace_stream: %s: provider reports hash %x over %d records, reference %x over %d",
			what, p.reported.Hash, p.reported.Records, want.Hash, want.Records)
		b.checkf(p.drained == want, "trace_stream: %s: drained %+v, reference %+v", what, p.drained, want)
	}
}

func streamScale(b *bench, w *workloads.Workload) int {
	return max(1, int(b.size.streamMult*float64(w.DefaultScale)))
}

// rung is one strategy of the trace-plane ladder.
type rung struct {
	name string
	opts func(dir string) workloads.ProviderOptions
}

var rungs = []rung{
	{"spool", func(dir string) workloads.ProviderOptions { return workloads.ProviderOptions{SpoolDir: dir} }},
	{"regen", func(string) workloads.ProviderOptions { return workloads.ProviderOptions{MaxMem: regenBudget} }},
}

// streamPass runs one workload through one rung: the provider call (which
// generates, and for the spool writes the file) and one open drained by
// the characterisation pass. It returns what the provider reports and what
// the drain saw.
func streamPass(ctx context.Context, b *bench, w *workloads.Workload, scale int, opt workloads.ProviderOptions) (reported, drained traceFacts, err error) {
	id := b.tr.start("workloads.provider", 0)
	prov, err := w.Provider(ctx, scale, opt)
	b.tr.end(id)
	if err != nil {
		return reported, drained, err
	}
	if reported.Hash, reported.Records, err = prov.ContentHash(); err != nil {
		return reported, drained, err
	}
	id = b.tr.start("trace.open_drain", 0)
	defer b.tr.end(id)
	src, err := prov.Open()
	if err != nil {
		return reported, drained, err
	}
	defer trace.CloseSource(src)
	drained, err = characterise(src)
	return reported, drained, err
}

// referenceFacts computes the facts both rungs must reproduce from an
// in-memory buffer recorded through the VM's sink (Workload.RunCtx, not
// the cache), so the reference shares no code with the streaming pipe that
// both rungs generate through.
func referenceFacts(ctx context.Context, w *workloads.Workload, scale int) (traceFacts, error) {
	buf, _, err := w.RunCtx(ctx, scale)
	if err != nil {
		return traceFacts{}, err
	}
	return characterise(buf.Reader())
}

// runTraceStream pushes all six workloads through the spool rung and the
// regeneration rung each round. Set-up computes the reference facts.
func runTraceStream(ctx context.Context, b *bench) error {
	all := workloads.All()
	b.minUnits = b.size.minRounds * len(all) * len(rungs)
	var ref map[string]traceFacts
	err := b.loop(ctx, func(i int) (roundStats, error) {
		var rs roundStats
		ref = map[string]traceFacts{}
		spoolDir := filepath.Join(b.scratch, fmt.Sprintf("spool-%d", i))
		if err := b.setup(&rs, func() error {
			for _, w := range all {
				f, err := referenceFacts(ctx, w, streamScale(b, w))
				if err != nil {
					return err
				}
				ref[w.Name] = f
			}
			return os.MkdirAll(spoolDir, 0o755)
		}); err != nil {
			return rs, err
		}
		var passes []streamResult
		err := b.timed(i, &rs, func() error {
			for _, w := range all {
				for _, rg := range rungs {
					t0 := time.Now()
					rep, got, err := streamPass(ctx, b, w, streamScale(b, w), rg.opts(spoolDir))
					if err != nil {
						return fmt.Errorf("%s/%s: %w", w.Name, rg.name, err)
					}
					b.latencies = append(b.latencies, time.Since(t0).Seconds()*1e3)
					passes = append(passes, streamResult{w.Name, rg.name, rep, got})
					// A pass generates the trace once and replays it once.
					rs.Instr += 2 * got.Records
					rs.Units++
				}
			}
			return nil
		})
		if err != nil {
			return rs, err
		}
		checkPasses(b, passes, ref)
		if err := os.RemoveAll(spoolDir); err != nil {
			return rs, err
		}
		return rs, nil
	})
	if err != nil {
		return err
	}
	b.accuracy = table2Error(func(name string) (float64, float64) { return ref[name].CondPct, ref[name].Predicted })
	if !b.traced {
		return nil
	}
	providerLayer(b, b.allSpan.closed())
	return probeLayers(ctx, b, func(w *workloads.Workload) int { return streamScale(b, w) })
}

// paperTable2 holds the paper's Table 2 (conditional branches as % of the
// trace, % predicted correctly by the 8 kB McFarling predictor), as quoted
// in EXPERIMENTS.md.
var paperTable2 = map[string][2]float64{
	"compress": {13.2, 89.7},
	"espresso": {18.5, 94.1},
	"eqntott":  {27.5, 96.0},
	"li":       {15.8, 96.8},
	"go":       {13.5, 83.7},
	"ijpeg":    {8.97, 92.8},
}

// table2Error is the mean relative error of the measured Table 2 figures
// against paperTable2; facts returns a workload's measured pair.
func table2Error(facts func(name string) (cond, predicted float64)) float64 {
	var sum float64
	for _, w := range workloads.All() {
		cond, pred := facts(w.Name)
		p := paperTable2[w.Name]
		sum += math.Abs(cond/p[0]-1) + math.Abs(pred/p[1]-1)
	}
	return sum / float64(2*len(workloads.All()))
}
