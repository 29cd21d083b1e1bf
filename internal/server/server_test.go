package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// testServer spins up a started Server behind httptest with a hard client
// timeout: any request that hangs is a test failure, never a wedged suite.
func testServer(t *testing.T, opt Options) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	if opt.Scale == 0 {
		opt.Scale = 1 // tiny workloads: cells cost milliseconds
	}
	srv := New(opt)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Timeout: 30 * time.Second}
	t.Cleanup(func() {
		ts.Close()
		client.CloseIdleConnections()
	})
	return srv, ts, client
}

func postJSON(t *testing.T, c *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, c *http.Client, url string, out any) int {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// submitJob posts a job and returns its ID (asserting 202).
func submitJob(t *testing.T, c *http.Client, base string, spec JobSpec) string {
	t.Helper()
	resp, body := postJSON(t, c, base+"/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	return job.ID
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, c *http.Client, base, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var job Job
		if code := getJSON(t, c, base+"/jobs/"+id, &job); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if job.State.Terminal() {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Job{}
}

func TestJobLifecycleHappyPath(t *testing.T) {
	_, ts, c := testServer(t, Options{Workers: 2, QueueDepth: 8})
	id := submitJob(t, c, ts.URL, JobSpec{Workload: "compress", Config: "D", Width: 8, SelfCheck: true})
	job := waitTerminal(t, c, ts.URL, id)
	if job.State != StateDone {
		t.Fatalf("state = %s, error = %v", job.State, job.Error)
	}
	if job.Result == nil || job.Result.IPC <= 0 || job.Result.Instructions <= 0 {
		t.Fatalf("implausible result: %+v", job.Result)
	}
	if job.Result.SelfChecks < 1 {
		t.Fatalf("selfcheck job performed %d sweeps", job.Result.SelfChecks)
	}
}

func TestBadSpecsAreRejected(t *testing.T) {
	_, ts, c := testServer(t, Options{})
	for _, spec := range []JobSpec{
		{Workload: "no-such-workload", Config: "D", Width: 8},
		{Workload: "compress", Config: "Z9", Width: 8},
		{Workload: "compress", Config: "D", Width: 0},
		{Workload: "compress", Config: "D", Width: 8, DeadlineMS: -5},
		{Workload: "compress", Config: "D", Width: 8, DeadlineMS: time.Hour.Milliseconds()},
	} {
		resp, body := postJSON(t, c, ts.URL+"/jobs", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: status = %d (%s), want 400", spec, resp.StatusCode, body)
		}
	}
	if code := getJSON(t, c, ts.URL+"/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", code)
	}
}

func TestAdmissionControlShedsWith429(t *testing.T) {
	// One worker, queue of two: wedge the worker, fill the queue, and the
	// next submission must shed with 429 + Retry-After — immediately, not
	// after a queue wait.
	block := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-block:
		default:
			close(block)
		}
	})
	faultinject.ArmOnceFunc(faultinject.PointExperiment, func() error {
		<-block
		return nil
	}, 0)
	defer faultinject.Reset()

	srv, ts, c := testServer(t, Options{Workers: 1, QueueDepth: 2})
	spec := JobSpec{Workload: "compress", Config: "A", Width: 4}
	first := submitJob(t, c, ts.URL, spec)

	// Wait until the worker has dequeued the wedged job.
	waitFor(t, 5*time.Second, func() bool {
		var j Job
		getJSON(t, c, ts.URL+"/jobs/"+first, &j)
		return j.State == StateRunning
	})
	ids := []string{
		submitJob(t, c, ts.URL, spec),
		submitJob(t, c, ts.URL, spec),
	}

	start := time.Now()
	resp, body := postJSON(t, c, ts.URL+"/jobs", spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submission = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shed took %v; must reject immediately, never queue-wait", elapsed)
	}
	if srv.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", srv.Shed())
	}
	if got := fetchMetrics(t, c, ts.URL)["server_shed_total"]; got != 1 {
		t.Fatalf("server_shed_total = %g, want 1 (the one 429 this client saw)", got)
	}

	// readyz reports the full queue.
	if code := getJSON(t, c, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz under overload = %d, want 503", code)
	}

	close(block)
	for _, id := range append([]string{first}, ids...) {
		if job := waitTerminal(t, c, ts.URL, id); job.State != StateDone {
			t.Fatalf("job %s: state = %s, error = %v", id, job.State, job.Error)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestJobDeadlineProducesDeadlineError(t *testing.T) {
	// The injected fault sleeps past the job's 50ms deadline, then the
	// expired context is noticed at the next cancellation poll.
	faultinject.ArmOnceFunc(faultinject.PointCoreRun, func() error {
		time.Sleep(300 * time.Millisecond)
		return nil
	}, 0)
	defer faultinject.Reset()

	// Scale 300: long enough (thousands of instructions) that the run is
	// guaranteed to cross a cancellation poll after the sleep.
	_, ts, c := testServer(t, Options{Workers: 1, QueueDepth: 4, Scale: 300})
	id := submitJob(t, c, ts.URL, JobSpec{Workload: "compress", Config: "A", Width: 4, DeadlineMS: 50})
	job := waitTerminal(t, c, ts.URL, id)
	if job.State != StateFailed || job.Error == nil || job.Error.Kind != KindDeadline {
		t.Fatalf("state = %s, error = %+v; want failed/deadline", job.State, job.Error)
	}
}

func TestPanicIsolationAndQuarantine(t *testing.T) {
	// Every attempt at this cell panics. The first two jobs fail with a
	// recovered panic (the process must survive); the third finds the
	// cell quarantined and never reaches a worker simulation.
	faultinject.ArmFunc(faultinject.PointExperiment, func() error {
		panic("injected cell crash")
	}, 0)
	defer faultinject.Reset()

	srv, ts, c := testServer(t, Options{Workers: 1, QueueDepth: 8, QuarantineAfter: 2})
	spec := JobSpec{Workload: "compress", Config: "D", Width: 4}

	for i := 0; i < 2; i++ {
		id := submitJob(t, c, ts.URL, spec)
		job := waitTerminal(t, c, ts.URL, id)
		if job.State != StateFailed || job.Error == nil || job.Error.Kind != KindPanic {
			t.Fatalf("crash %d: state = %s, error = %+v; want failed/panic", i+1, job.State, job.Error)
		}
		if !strings.Contains(job.Error.Message, "injected cell crash") {
			t.Fatalf("panic value lost: %q", job.Error.Message)
		}
	}

	fired := faultinject.Fired(faultinject.PointExperiment)
	id := submitJob(t, c, ts.URL, spec)
	job := waitTerminal(t, c, ts.URL, id)
	if job.State != StateFailed || job.Error == nil || job.Error.Kind != KindQuarantined {
		t.Fatalf("state = %s, error = %+v; want failed/quarantined", job.State, job.Error)
	}
	if got := faultinject.Fired(faultinject.PointExperiment); got != fired {
		t.Fatalf("quarantined job still ran the cell (%d -> %d fault firings)", fired, got)
	}

	// A different cell is unaffected by the quarantine. (Disarm the
	// crash first; the quarantine decision must be cell-scoped.)
	faultinject.Reset()
	other := submitJob(t, c, ts.URL, JobSpec{Workload: "compress", Config: "A", Width: 4})
	if job := waitTerminal(t, c, ts.URL, other); job.State != StateDone {
		t.Fatalf("sibling cell: state = %s, error = %v", job.State, job.Error)
	}

	var h Health
	if code := getJSON(t, c, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if h.State != "serving" || h.Quarantined != 1 {
		t.Fatalf("healthz state = %q, quarantined = %d; want serving, 1", h.State, h.Quarantined)
	}
	_ = srv
}

func TestJobsSucceedBehindFailingStore(t *testing.T) {
	// Every store read and write fails. The breaker must absorb it: jobs
	// still finish with results (durability degrades, results never do)
	// and /healthz keeps serving with the breaker open.
	faultinject.Arm(faultinject.PointStoreGet, faultinject.ErrInjected, 0)
	faultinject.Arm(faultinject.PointStorePut, faultinject.ErrInjected, 0)
	defer faultinject.Reset()

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts, c := testServer(t, Options{Workers: 1, QueueDepth: 8, Store: st,
		BreakerThreshold: 2, BreakerCooldown: time.Hour})
	for _, width := range []int{2, 4, 8} {
		id := submitJob(t, c, ts.URL, JobSpec{Workload: "compress", Config: "D", Width: width})
		if job := waitTerminal(t, c, ts.URL, id); job.State != StateDone || job.Result == nil || job.Result.IPC <= 0 {
			t.Fatalf("width %d: state = %s, result = %+v, error = %v", width, job.State, job.Result, job.Error)
		}
	}
	var h Health
	if code := getJSON(t, c, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if h.State != "serving" || h.Breaker == nil || h.Breaker.State != "open" {
		t.Fatalf("healthz state = %q, breaker = %+v; want serving with the breaker open", h.State, h.Breaker)
	}
}

func TestGracefulDrain(t *testing.T) {
	// One worker; job A runs (wedged until released), job B sits queued.
	// Drain must: flip readyz, refuse new submissions with 503, cancel B
	// with KindDrain, and let A finish normally.
	release := make(chan struct{})
	faultinject.ArmOnceFunc(faultinject.PointExperiment, func() error {
		<-release
		return nil
	}, 0)
	defer faultinject.Reset()

	baseline := runtime.NumGoroutine()
	srv, ts, c := testServer(t, Options{Workers: 1, QueueDepth: 4})
	spec := JobSpec{Workload: "compress", Config: "A", Width: 4}
	a := submitJob(t, c, ts.URL, spec)
	waitFor(t, 5*time.Second, func() bool {
		var j Job
		getJSON(t, c, ts.URL+"/jobs/"+a, &j)
		return j.State == StateRunning
	})
	b := submitJob(t, c, ts.URL, JobSpec{Workload: "compress", Config: "B", Width: 4})

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelDrain()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(drainCtx) }()
	waitFor(t, 5*time.Second, srv.Draining)

	if code := getJSON(t, c, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	if resp, _ := postJSON(t, c, ts.URL+"/jobs", spec); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining = %d, want 503", resp.StatusCode)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if job := waitTerminal(t, c, ts.URL, a); job.State != StateDone {
		t.Fatalf("in-flight job: state = %s, error = %v; must finish", job.State, job.Error)
	}
	if job := waitTerminal(t, c, ts.URL, b); job.State != StateCanceled || job.Error == nil || job.Error.Kind != KindDrain {
		t.Fatalf("queued job: state = %s, error = %+v; want canceled/drain", job.State, job.Error)
	}

	var h Health
	getJSON(t, c, ts.URL+"/healthz", &h)
	if h.State != "draining" {
		t.Fatalf("healthz state = %q after drain", h.State)
	}

	// Once drained and disconnected, the worker pool and per-job
	// goroutines must be gone (slack for runtime background goroutines).
	ts.Close()
	c.CloseIdleConnections()
	for settle := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline+4; {
		if time.Now().After(settle) {
			t.Fatalf("goroutine leak after drain: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSweepCompletesAndRenders(t *testing.T) {
	_, ts, c := testServer(t, Options{Workers: 2, QueueDepth: 16})
	resp, body := postJSON(t, c, ts.URL+"/sweeps", SweepSpec{
		Workloads: []string{"compress"}, Configs: []string{"A", "D"}, Widths: []int{2, 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps = %d: %s", resp.StatusCode, body)
	}
	var sweep Sweep
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.JobIDs) != 4 {
		t.Fatalf("sweep expanded to %d jobs, want 4", len(sweep.JobIDs))
	}

	var doc sweepDoc
	waitFor(t, 30*time.Second, func() bool {
		getJSON(t, c, ts.URL+"/sweeps/"+sweep.ID, &doc)
		return doc.Complete
	})
	if doc.Done != 4 || doc.Failed != 0 {
		t.Fatalf("sweep finished %d done, %d failed: %+v", doc.Done, doc.Failed, doc)
	}
	for _, frag := range []string{"Workload", "compress", "A", "D"} {
		if !strings.Contains(doc.Report, frag) {
			t.Fatalf("report lacks %q:\n%s", frag, doc.Report)
		}
	}
	if strings.Contains(doc.Report, "n/a") {
		t.Fatalf("healthy sweep rendered a degraded cell:\n%s", doc.Report)
	}
}

// TestSweepResumesAfterDrain is the serving layer's durability contract: a
// sweep interrupted by a drain and finished by a second server over the
// same store renders byte-identically to the same sweep run uninterrupted
// on a fresh store.
func TestSweepResumesAfterDrain(t *testing.T) {
	grid := SweepSpec{
		Workloads: []string{"compress", "espresso"},
		Configs:   []string{"A", "D"},
		Widths:    []int{4, 8},
	}
	// run serves the grid from the store in dir until stopAt cells are
	// done (0 = until the sweep completes), drains, and returns the
	// sweep's report ("" unless it completed) and the store's hit count.
	run := func(dir string, workers, stopAt int) (string, int64) {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, ts, c := testServer(t, Options{Workers: workers, QueueDepth: 64, Scale: 60,
			DefaultDeadline: 30 * time.Second, Store: st})
		resp, body := postJSON(t, c, ts.URL+"/sweeps", grid)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /sweeps = %d: %s", resp.StatusCode, body)
		}
		var sweep Sweep
		if err := json.Unmarshal(body, &sweep); err != nil {
			t.Fatal(err)
		}
		var doc sweepDoc
		waitFor(t, 2*time.Minute, func() bool {
			getJSON(t, c, ts.URL+"/sweeps/"+sweep.ID, &doc)
			if stopAt > 0 {
				return doc.Done >= stopAt
			}
			return doc.Complete
		})
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		return doc.Report, srv.HealthSnapshot().Store.Hits
	}

	// Server A has one worker, so the sweep advances cell by cell; the
	// drain after two cells cuts the rest of the grid off mid-flight.
	// Server B resumes on A's store: finished cells load from disk, the
	// rest compute fresh. Server C runs the grid on a fresh store.
	dir := t.TempDir()
	run(dir, 1, 2)
	resumed, hits := run(dir, 2, 0)
	unbroken, _ := run(t.TempDir(), 2, 0)
	if hits < 2 {
		t.Fatalf("resumed server served %d cell(s) from the store, want >= 2 (the cells finished before the drain)", hits)
	}
	if resumed != unbroken {
		t.Fatalf("resumed sweep diverged from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s",
			resumed, unbroken)
	}
	if strings.Contains(resumed, "n/a") {
		t.Fatalf("resumed sweep has degraded cells:\n%s", resumed)
	}
}

func TestSweepIsAdmittedWholeOrNotAtAll(t *testing.T) {
	// Queue of 3 cannot hold a 4-cell sweep: the sweep must shed as a
	// unit with 429 and admit zero of its jobs.
	block := make(chan struct{})
	defer close(block)
	faultinject.ArmOnceFunc(faultinject.PointExperiment, func() error {
		<-block
		return nil
	}, 0)
	defer faultinject.Reset()

	srv, ts, c := testServer(t, Options{Workers: 1, QueueDepth: 3})
	// Wedge the worker so the queue cannot drain mid-check.
	first := submitJob(t, c, ts.URL, JobSpec{Workload: "compress", Config: "A", Width: 4})
	waitFor(t, 5*time.Second, func() bool {
		var j Job
		getJSON(t, c, ts.URL+"/jobs/"+first, &j)
		return j.State == StateRunning
	})
	resp, body := postJSON(t, c, ts.URL+"/sweeps", SweepSpec{
		Workloads: []string{"compress"}, Configs: []string{"A", "D"}, Widths: []int{2, 4},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized sweep = %d (%s), want 429", resp.StatusCode, body)
	}
	var h Health
	getJSON(t, c, ts.URL+"/healthz", &h)
	if h.Queued != 0 {
		t.Fatalf("shed sweep left %d jobs queued", h.Queued)
	}
	_ = srv
}

// TestClassifyTaxonomy pins the error -> JobError mapping.
func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		err      error
		draining bool
		kind     string
	}{
		{fmt.Errorf("x: %w", errors.ErrUnsupported), false, KindSim},
	}
	for _, c := range cases {
		if got := classify(c.err, c.draining); got.Kind != c.kind {
			t.Errorf("classify(%v) = %s, want %s", c.err, got.Kind, c.kind)
		}
	}
	if classify(nil, false) != nil {
		t.Error("classify(nil) must be nil")
	}
}
