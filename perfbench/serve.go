package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workloads"
)

const (
	serveWorkers = 2 // server worker pool
	serveClients = 2 // closed-loop clients
	// pollEvery is the pause between a client's status polls of one job.
	// It is an assumption, not taken from a real client (the repository
	// records no /jobs traffic): 1 ms is well below a new cell's simulation
	// time at scale 60, so the poll step adds little to a job's latency.
	pollEvery = time.Millisecond
)

// serveCell is one cell a client can ask for.
type serveCell struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Width    int    `json:"width"`
}

func (c serveCell) String() string { return cellName(c.Workload, c.Config, c.Width) }

// job kinds of the serve_jobs sequence.
const (
	kindHit    = "store_hit" // cell pre-populated in the durable store
	kindNew    = "new"       // first request for a cell: compute + durable put
	kindRepeat = "repeat"    // cell requested earlier in the round: Runner cache
)

type serveJob struct {
	cell serveCell
	kind string
}

// serveSequence draws a job sequence from rng over cells (grouped by
// workload, then config, then width, as serveCells lists them). For each
// workload, one cell per config is pre-populated, at widths rotated so that
// each width is stored once per workload. The pre-populated set does not
// depend on the seed, so every seed leaves the server the same simulation
// work and the latency distribution does not hinge on which cells happen
// to be stored. Every cell is requested once (a store hit or a new cell) in
// a drawn order, and repeats more requests re-ask for a cell asked for
// earlier in the sequence.
//
// The resulting mix (at full size 30 store hits, 120 new cells and 30
// repeats) is an assumption, not measured traffic: the repository has no
// real /jobs client to take it from. It is chosen so that each kind of
// request is a share of every round large enough to move the latency
// percentiles; README.md gives the reason for each number.
func serveSequence(rng *rand.Rand, cells []serveCell, nConfigs, nWidths, repeats int) (prepop []serveCell, seq []serveJob) {
	stored := map[serveCell]bool{}
	for base, w := 0, 0; base < len(cells); base, w = base+nConfigs*nWidths, w+1 {
		for c := 0; c < nConfigs; c++ {
			cell := cells[base+c*nWidths+(c+w)%nWidths]
			prepop = append(prepop, cell)
			stored[cell] = true
		}
	}
	for _, i := range rng.Perm(len(cells)) {
		kind := kindNew
		if stored[cells[i]] {
			kind = kindHit
		}
		seq = append(seq, serveJob{cells[i], kind})
	}
	for k := 0; k < repeats; k++ {
		at := 1 + rng.Intn(len(seq))
		again := serveJob{seq[rng.Intn(at)].cell, kindRepeat}
		seq = append(seq[:at], append([]serveJob{again}, seq[at:]...)...)
	}
	return prepop, seq
}

func serveCells(widths []int) []serveCell {
	var cells []serveCell
	for _, w := range workloads.All() {
		for _, cfg := range core.Configs() {
			for _, width := range widths {
				cells = append(cells, serveCell{w.Name, cfg.Name, width})
			}
		}
	}
	return cells
}

// parallel runs fn(0..n-1) on k goroutines and returns the first error.
func parallel(k, n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, k)
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || errs[g] != nil {
					return
				}
				errs[g] = fn(i)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timedStore wraps the durable store handed to the server: it counts hits,
// misses and puts and records a span around each call.
type timedStore struct {
	st                 *store.Store
	tr                 *tracer
	hits, misses, puts atomic.Int64
}

func (s *timedStore) Get(k store.Key) (*core.Result, error) {
	id := s.tr.start("store.get", 0)
	res, err := s.st.Get(k)
	s.tr.end(id)
	if err != nil {
		s.misses.Add(1)
	} else {
		s.hits.Add(1)
	}
	return res, err
}

func (s *timedStore) PutWithPerf(k store.Key, res *core.Result, p *store.PerfInfo) error {
	id := s.tr.start("store.put", 0)
	err := s.st.PutWithPerf(k, res, p)
	s.tr.end(id)
	s.puts.Add(1)
	return err
}

func (s *timedStore) Stats() store.Stats { return s.st.Stats() }

// cellResult is the part of a result the checks compare.
type cellResult struct {
	Cycles       int64 `json:"cycles"`
	Instructions int64 `json:"instructions"`
}

// jobDoc is the subset of GET /jobs/{id} the clients read.
type jobDoc struct {
	ID     string           `json:"id"`
	State  server.JobState  `json:"state"`
	Result *cellResult      `json:"result"`
	Error  *server.JobError `json:"error"`
}

// jobOutcome is what one client observed for one job.
type jobOutcome struct {
	doc     jobDoc
	latency time.Duration
	polls   int
	shed    bool
	err     error
}

// client is one closed-loop HTTP client.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

func (c *client) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// run submits one job and polls it to a terminal state.
func (c *client) run(cell serveCell) jobOutcome {
	var o jobOutcome
	t0 := time.Now()
	parent := c.tr.start("server.job", 0)
	defer c.tr.end(parent)
	body, _ := json.Marshal(cell)
	id := c.tr.start("server.submit", parent)
	code, err := c.do(http.MethodPost, "/jobs", body, &o.doc)
	c.tr.end(id)
	switch {
	case err != nil:
		o.err = err
		return o
	case code == http.StatusTooManyRequests:
		o.shed = true
		return o
	case code != http.StatusAccepted:
		o.err = fmt.Errorf("POST /jobs %s: status %d", cell, code)
		return o
	}
	for !o.doc.State.Terminal() {
		if o.polls > 0 {
			time.Sleep(pollEvery)
		}
		o.polls++
		id := c.tr.start("server.poll", parent)
		code, err := c.do(http.MethodGet, "/jobs/"+o.doc.ID, nil, &o.doc)
		c.tr.end(id)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET /jobs/%s: status %d", o.doc.ID, code)
		}
		if err != nil {
			o.err = err
			return o
		}
	}
	o.latency = time.Since(t0)
	return o
}

// jobSpans fetches a finished job's server-side spans and returns the
// queue wait and the simulation time (0 when the job did not simulate).
func (c *client) jobSpans(jobID string) (queued, simulate time.Duration, err error) {
	var doc struct {
		Spans []struct {
			Name  string `json:"name"`
			DurUS int64  `json:"dur_us"`
		} `json:"spans"`
	}
	code, err := c.do(http.MethodGet, "/jobs/"+jobID+"/trace", nil, &doc)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /jobs/%s/trace: status %d", jobID, code)
	}
	for _, s := range doc.Spans {
		switch s.Name {
		case "queued":
			queued += time.Duration(s.DurUS) * time.Microsecond
		case "simulate":
			simulate += time.Duration(s.DurUS) * time.Microsecond
		}
	}
	return queued, simulate, err
}

// serveReference computes every cell directly with core.RunChecked on the
// same in-memory trace the server simulates.
func serveReference(ctx context.Context, scale int, cells []serveCell) (map[serveCell]*core.Result, error) {
	out := make([]*core.Result, len(cells))
	err := parallel(runnerWorkers, len(cells), func(i int) error {
		c := cells[i]
		w, err := workloads.ByName(c.Workload)
		if err != nil {
			return err
		}
		cfg, err := core.ConfigByName(c.Config)
		if err != nil {
			return err
		}
		buf, _, err := w.TraceCachedCtx(ctx, scale)
		if err != nil {
			return err
		}
		out[i], err = core.RunChecked(ctx, buf.Reader(), cfg, core.Params{Width: c.Width})
		return err
	})
	ref := map[serveCell]*core.Result{}
	for i, c := range cells {
		ref[c] = out[i]
	}
	return ref, err
}

// checkServed compares one served job against the reference.
func checkServed(job serveJob, o jobOutcome, ref map[serveCell]*core.Result) error {
	switch {
	case o.err != nil:
		return fmt.Errorf("serve_jobs: %s: %w", job.cell, o.err)
	case o.shed:
		return fmt.Errorf("serve_jobs: %s: shed with 429", job.cell)
	case o.doc.State != server.StateDone || o.doc.Result == nil:
		return fmt.Errorf("serve_jobs: %s: state %s, error %v", job.cell, o.doc.State, o.doc.Error)
	}
	want := ref[job.cell]
	if want == nil {
		return fmt.Errorf("serve_jobs: %s: no reference", job.cell)
	}
	if o.doc.Result.Cycles != want.Cycles || o.doc.Result.Instructions != want.Instructions {
		return fmt.Errorf("serve_jobs: %s: served %+v, reference cycles %d instructions %d",
			job.cell, *o.doc.Result, want.Cycles, want.Instructions)
	}
	return nil
}

// runServeJobs serves a seeded job sequence each round from a fresh server
// on a fresh durable store. Each round draws a new order from one
// generator seeded with --seed, so a run measures several orders and one
// unlucky order does not set its latencies. Set-up materialises the
// traces, pre-populates the store (see serveSequence) and starts the
// server.
func runServeJobs(ctx context.Context, b *bench) error {
	scale := b.size.serveScale
	cells := serveCells(b.size.serveWidths)
	rng := rand.New(rand.NewSource(b.seed))
	draw := func() ([]serveCell, []serveJob) {
		return serveSequence(rng, cells, len(core.Configs()), len(b.size.serveWidths), b.size.serveRepeat)
	}
	prepop, seq := draw()
	ref, err := serveReference(ctx, scale, cells)
	if err != nil {
		return err
	}
	b.minUnits = b.size.minRounds * len(seq)
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer httpc.CloseIdleConnections()
	served := map[serveCell]cellResult{}
	err = b.loop(ctx, func(i int) (roundStats, error) {
		var rs roundStats
		if i > 0 {
			_, seq = draw()
		}
		dir := filepath.Join(b.scratch, fmt.Sprintf("store-%d", i))
		var srv *server.Server
		var hs *httptest.Server
		ts := &timedStore{tr: b.tr}
		if err := b.setup(&rs, func() error {
			workloads.FlushCache()
			for _, w := range workloads.All() {
				id := b.tr.start("workloads.provider", 0)
				_, err := w.Provider(ctx, scale, workloads.ProviderOptions{})
				b.tr.end(id)
				if err != nil {
					return err
				}
			}
			st, err := store.Open(dir)
			if err != nil {
				return err
			}
			ts.st = st
			r := experiments.NewRunner(scale).WithStoreHandle(st)
			if err := parallel(runnerWorkers, len(prepop), func(k int) error {
				c := prepop[k]
				w, _ := workloads.ByName(c.Workload)
				cfg, _ := core.ConfigByName(c.Config)
				_, err := r.ResultCtx(ctx, w, cfg, c.Width)
				return err
			}); err != nil {
				return err
			}
			srv = server.New(server.Options{Workers: serveWorkers, Scale: scale, Store: ts})
			srv.Start()
			hs = httptest.NewServer(srv.Handler())
			return nil
		}); err != nil {
			return rs, err
		}
		cl := &client{base: hs.URL, http: httpc, tr: b.tr}
		outcomes := make([]jobOutcome, len(seq))
		err := b.timed(i, &rs, func() error {
			return parallel(serveClients, len(seq), func(k int) error {
				outcomes[k] = cl.run(seq[k].cell)
				return nil
			})
		})
		if err != nil {
			return rs, err
		}
		var polls int
		for k, job := range seq {
			o := outcomes[k]
			polls += o.polls
			err := checkServed(job, o, ref)
			b.check(err)
			if err != nil {
				continue
			}
			b.latencies = append(b.latencies, o.latency.Seconds()*1e3)
			rs.Units++
			served[job.cell] = *o.doc.Result
			if job.kind == kindNew {
				rs.Instr += o.doc.Result.Instructions
			}
			if b.tr != nil {
				q, sim, err := cl.jobSpans(o.doc.ID)
				b.check(err)
				b.sample("server.queue_ms", q.Seconds()*1e3)
				if sim > 0 {
					b.sample("server.simulate_ms", sim.Seconds()*1e3)
					b.addCellRun(cellRun{job.cell.Config, job.cell.Width, o.doc.Result.Instructions, sim.Seconds()})
				}
			}
		}
		b.checkf(srv.Shed() == 0, "serve_jobs: server shed %d submissions", srv.Shed())
		b.sample("server.polls_per_job", float64(polls)/float64(len(seq)))
		b.sample("store.hits", float64(ts.hits.Load()))
		b.sample("store.misses", float64(ts.misses.Load()))
		b.sample("store.puts", float64(ts.puts.Load()))
		hs.Close()
		dctx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			return rs, err
		}
		return rs, os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	b.accuracy = speedupError(func(cfg string, width int) float64 {
		return servedSpeedup(served, cfg, width)
	})
	var cyc, coll int64
	for _, res := range ref {
		cyc += res.Cycles
		coll += res.CollapsedInstrs
	}
	b.layer("core.cycles_total", "count", float64(cyc))
	b.layer("core.collapsed_total", "count", float64(coll))
	if !b.traced {
		return nil
	}
	spans := b.allSpan.closed()
	coreLayers(b)
	for _, n := range []string{"store.get", "store.put", "server.submit"} {
		total, count := named(spans, n)
		b.layer(n+"_ms", "ms", total*1e3/float64(max(count, 1)))
	}
	b.sampleMedian("server.queue_ms", "ms")
	b.sampleMedian("server.simulate_ms", "ms")
	b.sampleMedian("server.polls_per_job", "count")
	for _, n := range []string{"store.hits", "store.misses", "store.puts"} {
		b.sampleMedian(n, "count")
	}
	providerLayer(b, spans)
	return probeLayers(ctx, b, func(*workloads.Workload) int { return scale })
}

// servedSpeedup is the harmonic mean over workloads of cfg's speedup over
// A at width, from served cycle counts (IPC ratios, as the figures use).
func servedSpeedup(served map[serveCell]cellResult, cfg string, width int) float64 {
	var inv float64
	var n int
	for _, w := range workloads.All() {
		a, okA := served[serveCell{w.Name, "A", width}]
		c, okC := served[serveCell{w.Name, cfg, width}]
		if !okA || !okC || a.Cycles == 0 {
			continue
		}
		inv += float64(c.Cycles) / float64(a.Cycles)
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(n) / inv
}
