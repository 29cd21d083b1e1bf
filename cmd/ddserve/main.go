// ddserve runs the simulation job service (internal/server): an HTTP/JSON
// server accepting single simulation cells (POST /jobs) and sweep grids
// (POST /sweeps), executed on a bounded worker pool with admission
// control, per-job deadlines, panic quarantine, a circuit breaker around
// store I/O, and graceful drain on SIGINT/SIGTERM.
//
//	ddserve -addr :8080 -store results/     # serve with a durable store
//	ddserve -store results/ -scrub-interval 1h   # plus background scrubbing
//
// On SIGINT/SIGTERM the server drains: admissions stop (503), in-flight
// jobs finish and checkpoint, queued jobs are canceled. A drain that beats
// -drain-timeout exits 0; one that exceeds it cancels in-flight jobs and
// exits 130, following the exit-code contract in docs/robustness.md §4:
// 0 ok, 1 failure, 2 usage, 130 canceled.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		storeDir   = flag.String("store", "", "durable result store directory (empty = none; results live in memory only)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS capped at 4)")
		queue      = flag.Int("queue", 64, "admission queue depth; beyond it submissions shed with 429")
		deadline   = flag.Duration("deadline", time.Minute, "default per-job deadline")
		maxDL      = flag.Duration("max-deadline", 10*time.Minute, "cap on client-requested deadlines")
		stall      = flag.Duration("stall-timeout", 30*time.Second, "reap a cell whose progress heartbeat goes silent (0 = off)")
		retries    = flag.Int("retries", 1, "re-attempts for transiently failing cells")
		quarantine = flag.Int("quarantine", 2, "crashes before a cell is quarantined")
		brkThresh  = flag.Int("breaker-threshold", 5, "consecutive store I/O failures before the breaker opens")
		brkCool    = flag.Duration("breaker-cooldown", 5*time.Second, "breaker open time before a half-open probe")
		scale      = flag.Int("scale", 0, "workload scale for all jobs (0 = workload defaults)")
		spoolDir   = flag.String("spool", "", "spool workload traces to this directory instead of holding them in memory")
		maxTraceMB = flag.Int64("max-trace-mem", 0, "in-memory trace budget in MiB; larger traces regenerate on demand (0 = unbounded)")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on shutdown")
		scrubEvery = flag.Duration("scrub-interval", 0, "background store scrub pass interval (0 = scrubbing off; needs -store)")
		scrubRate  = flag.Duration("scrub-rate", 10*time.Millisecond, "background scrub per-entry pacing")
		metricsOn  = flag.Bool("metrics", true, "serve GET /metrics (Prometheus text) and GET /jobs/{id}/trace")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		cli.Exit("ddserve", cli.Usagef("unexpected arguments: %v", flag.Args()))
	}
	if *scrubEvery > 0 && *storeDir == "" {
		cli.Exit("ddserve", cli.Usagef("-scrub-interval requires -store"))
	}
	logger := log.New(os.Stderr, "ddserve: ", log.LstdFlags)

	cli.Exit("ddserve", serve(logger, options{
		addr: *addr, storeDir: *storeDir, drainTimeout: *drainTO,
		scrubInterval: *scrubEvery, scrubRate: *scrubRate,
		opt: server.Options{
			Workers:          *workers,
			QueueDepth:       *queue,
			DefaultDeadline:  *deadline,
			MaxDeadline:      *maxDL,
			StallTimeout:     *stall,
			Retries:          *retries,
			Scale:            *scale,
			TraceSpoolDir:    *spoolDir,
			MaxTraceMem:      *maxTraceMB << 20,
			QuarantineAfter:  *quarantine,
			BreakerThreshold: *brkThresh,
			BreakerCooldown:  *brkCool,
			DisableMetrics:   !*metricsOn,
		},
	}))
}

type options struct {
	addr          string
	storeDir      string
	drainTimeout  time.Duration
	scrubInterval time.Duration
	scrubRate     time.Duration
	opt           server.Options
}

func serve(logger *log.Logger, o options) error {
	var st *store.Store
	if o.storeDir != "" {
		var err error
		st, err = store.Open(o.storeDir)
		if err != nil {
			return fmt.Errorf("opening store: %w", err)
		}
		var rs experiments.ResultStore = st
		o.opt.Store = rs
		if n, err := st.Len(); err == nil {
			msg := fmt.Sprintf("durable store: %s (%d entries)", o.storeDir, n)
			if cleaned := st.Stats().TmpCleaned; cleaned > 0 {
				msg += fmt.Sprintf(", %d stale temp file(s) cleaned", cleaned)
			}
			logger.Print(msg)
		}
		if o.scrubInterval > 0 {
			sc := store.NewScrubber(st, o.scrubRate, o.scrubInterval)
			o.opt.Scrubber = sc
			sc.Start()
			defer sc.Stop()
			logger.Printf("background scrub: every %s, one entry per %s", o.scrubInterval, o.scrubRate)
		}
	}
	srv := server.New(o.opt)
	// Register the storage layer's families on the server's registry so
	// one /metrics page carries the whole stack.
	if st != nil {
		st.Instrument(srv.Metrics())
	}
	if o.opt.Scrubber != nil {
		o.opt.Scrubber.Instrument(srv.Metrics())
	}
	srv.Start()

	hs := &http.Server{Addr: o.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Printf("serving on %s (workers=%d queue=%d)", o.addr,
		srv.HealthSnapshot().Workers, srv.HealthSnapshot().QueueDepth)

	// Wait for a signal (or a listener failure, which is fatal).
	ctx, stop := cli.Context(0)
	defer stop()
	select {
	case err := <-errc:
		return fmt.Errorf("listen: %w", err)
	case <-ctx.Done():
	}
	stop() // second signal kills the process, shell-style

	logger.Printf("signal received; draining (budget %s)", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	derr := srv.Drain(drainCtx)

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = hs.Shutdown(shutCtx)

	if derr != nil {
		// Forced drain wraps context.DeadlineExceeded: cli.Code maps it to
		// 130 (canceled), matching the pipeline's exit-code taxonomy.
		return derr
	}
	h := srv.HealthSnapshot()
	logger.Printf("drained clean: %d job records, %d shed, %d quarantined", h.Jobs, h.Shed, h.Quarantined)
	cli.ReportStore("ddserve", st)
	logMetricsSnapshot(logger, srv)
	return nil
}

// logMetricsSnapshot logs the registry's headline job counters on clean
// drain — the same numbers /metrics served, snapshotted into the shutdown
// log for post-mortems that only have stderr.
func logMetricsSnapshot(logger *log.Logger, srv *server.Server) {
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		return
	}
	vals, err := metrics.ParseText(&buf)
	if err != nil {
		return
	}
	logger.Printf("metrics: admitted=%.0f done=%.0f failed=%.0f canceled=%.0f shed=%.0f job_seconds_sum=%.3f",
		vals["server_jobs_admitted_total"], vals["server_jobs_done_total"],
		vals["server_jobs_failed_total"], vals["server_jobs_canceled_total"],
		vals["server_shed_total"], vals["server_job_seconds_sum"])
}
