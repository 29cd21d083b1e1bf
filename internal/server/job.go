package server

// Job lifecycle and the service-level error taxonomy. Every job ends in
// exactly one terminal state with, on failure, a structured JobError whose
// Kind maps the pipeline taxonomy (docs/robustness.md) onto the serving
// layer: clients branch on Kind, never on message text.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/retry"
	"repro/internal/watchdog"
	"repro/internal/workloads"
)

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle states. queued and running are transient; done, failed,
// and canceled are terminal.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobError kinds — the serving layer's error taxonomy.
const (
	// KindPanic: the cell panicked; recovered and isolated, and counted
	// toward the cell's quarantine budget.
	KindPanic = "panic"
	// KindQuarantined: the cell crashed repeatedly and is quarantined;
	// the job was rejected without running.
	KindQuarantined = "quarantined"
	// KindDeadline: the job's deadline expired mid-run.
	KindDeadline = "deadline"
	// KindStalled: the stall watchdog reaped the cell.
	KindStalled = "stalled"
	// KindInvariant: a scheduler self-check failed; the cell's statistics
	// cannot be trusted.
	KindInvariant = "invariant"
	// KindCorrupt: corrupt trace or store input.
	KindCorrupt = "corrupt"
	// KindDrain: the server drained before the job started.
	KindDrain = "drain"
	// KindCanceled: the server shut down (forced) while the job ran.
	KindCanceled = "canceled"
	// KindSim: any other simulation failure.
	KindSim = "sim"
)

// JobError is the structured failure attached to a failed or canceled job.
type JobError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// Error implements error.
func (e *JobError) Error() string { return fmt.Sprintf("%s: %s", e.Kind, e.Message) }

// JobSpec is the client-supplied description of one simulation cell.
type JobSpec struct {
	Workload  string `json:"workload"`
	Config    string `json:"config"`
	Width     int    `json:"width"`
	SelfCheck bool   `json:"selfcheck,omitempty"`
	// DeadlineMS bounds the job's wall-clock run time in milliseconds;
	// 0 means the server's default deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// cellKey identifies the quarantine unit: the cell a spec resolves to.
type cellKey struct {
	workload string
	config   string // fingerprint: injective over ablations
	width    int
	checked  bool
}

// JobResult is the successful outcome of one job.
type JobResult struct {
	IPC          float64 `json:"ipc"`
	Cycles       int64   `json:"cycles"`
	Instructions int64   `json:"instructions"`
	SelfChecks   int64   `json:"self_checks,omitempty"`
}

// Job is one admitted simulation cell. All fields are guarded by the
// server's mutex; handlers serve copies via the doc() snapshot.
type Job struct {
	ID     string     `json:"id"`
	Spec   JobSpec    `json:"spec"`
	State  JobState   `json:"state"`
	Error  *JobError  `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	Sweep  string     `json:"sweep,omitempty"`

	// resolved at admission so workers never re-parse
	w   *workloads.Workload
	cfg core.Config
	// deadline is the normalized per-job deadline (defaults applied).
	deadline time.Duration
	// admitted is when admission control accepted the job; the terminal
	// server_job_seconds observation measures from here.
	admitted time.Time
	// trace is the job's span log (GET /jobs/{id}/trace); queuedSpan is
	// its open queue-wait span, ended when a worker dequeues the job.
	trace      *metrics.Trace
	queuedSpan *metrics.Span
}

// key returns the job's quarantine identity.
func (j *Job) key() cellKey {
	return cellKey{j.Spec.Workload, j.cfg.Fingerprint(), j.Spec.Width, j.Spec.SelfCheck}
}

// classify maps a pipeline error's retry.Kind onto the JobError kinds.
// draining distinguishes a shutdown-canceled job from a client-canceled
// one; that split is the server's own.
func classify(err error, draining bool) *JobError {
	if err == nil {
		return nil
	}
	kind := KindSim
	msg := err.Error()
	switch retry.Classify(err) {
	case retry.Panic:
		kind = KindPanic
		// Report the bare panic, not the cell path wrapped around it.
		var pe *watchdog.PanicError
		errors.As(err, &pe)
		msg = pe.Error()
	case retry.Invariant:
		kind = KindInvariant
	case retry.Stalled:
		kind = KindStalled
	case retry.CellDeadline, retry.DeadlineExceeded:
		kind = KindDeadline
	case retry.Canceled:
		kind = KindCanceled
		if draining {
			kind = KindDrain
		}
	case retry.Corrupt:
		kind = KindCorrupt
	}
	return &JobError{Kind: kind, Message: msg}
}
