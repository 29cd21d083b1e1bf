// Package metrics is the serving stack's instrumentation registry: a
// dependency-free (stdlib-only), race-safe home for the counters, gauges,
// and latency histograms that every layer of the pipeline — server,
// runner, store, breaker, scrubber, retry, watchdog — previously kept as
// ad-hoc atomics scattered across Health/BreakerStats/ScrubStats
// snapshots. One Registry owns every metric family; GET /metrics renders
// them all in Prometheus text exposition format (WritePrometheus), and
// per-job trace spans (span.go) make individual requests visible the same
// way the paper makes speculation visible: as distributions and event
// timelines, not means.
//
// The design follows the source paper's methodological stance — the
// contribution is *measurement* — and the FSPN modeling line of work
// (PAPERS.md) that shows latency distributions, not averages, reveal
// speculative behavior: hence fixed-bucket histograms with exported
// quantile summaries rather than single "average latency" gauges.
//
// Metric kinds:
//
//   - Counter: monotonically increasing atomic int64 (Inc/Add);
//   - Gauge: settable atomic int64 (queue depth, breaker state);
//   - func metrics (CounterFunc/GaugeFunc): read-through bridges over
//     counters that already exist elsewhere (store.Stats, watchdog
//     package atomics) so legacy snapshots and /metrics can never
//     disagree — there is exactly one underlying atomic;
//   - Histogram: fixed upper-bound buckets, atomic per-bucket counts,
//     lock-free Observe, quantile estimation by linear interpolation;
//   - labeled families (CounterVec/HistogramVec): one family
//     name, one child metric per label-value tuple.
//
// Registration is idempotent: asking for an existing family with the same
// kind returns it; re-registering a name as a different kind panics
// (programmer error, caught by the first test that runs).
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programmer error; they are applied
// as-is because checking would put a branch on every hot-path increment).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value. The zero value is usable.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add applies a delta (positive or negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// kind partitions metric families by exposition type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// child is one concrete metric inside a family: a Counter, Gauge,
// *Histogram, or a read-through func.
type child struct {
	labels  []string // label values, same order as family.labelNames
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // func metric; exclusive with the above
}

// family is one named metric family: a help string, a kind, and one child
// per label-value tuple ("" key for the unlabeled singleton).
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	buckets    []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*child
	order    []string // insertion order of child keys; sorted at exposition
}

// Registry is a set of metric families. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns the named family, creating it on first use and
// panicking on a kind or label mismatch — two call sites disagreeing
// about what a name means is a bug worth failing loudly on.
func (r *Registry) familyFor(name, help string, k kind, labelNames []string, buckets []float64) *family {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("metrics: %s re-registered as %s, was %s", name, k, f.kind))
		}
		if len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("metrics: %s re-registered with %d label(s), was %d",
				name, len(labelNames), len(f.labelNames)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labelNames: labelNames,
		buckets: buckets, children: make(map[string]*child)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// childFor returns the family's child for the given label values,
// creating it with mk on first use.
func (f *family) childFor(labelValues []string, mk func() *child) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s wants %d label value(s), got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := labelKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	c.labels = append([]string(nil), labelValues...)
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// labelKey joins label values into a map key. \x1f never appears in
// sane label values; a value containing it would only merge two children,
// never corrupt memory.
func labelKey(values []string) string {
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x1f"
		}
		key += v
	}
	return key
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.familyFor(name, help, kindCounter, nil, nil)
	c := f.childFor(nil, func() *child { return &child{counter: &Counter{}} })
	return c.counter
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.familyFor(name, help, kindGauge, nil, nil)
	c := f.childFor(nil, func() *child { return &child{gauge: &Gauge{}} })
	return c.gauge
}

// CounterFunc registers a read-through counter whose value is fn() at
// exposition time. Use it to bridge counters that already live elsewhere
// (store.Stats, watchdog.Abandoned) into the registry without duplicating
// the underlying atomic.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.familyFor(name, help, kindCounter, nil, nil)
	f.childFor(nil, func() *child { return &child{fn: fn} })
}

// GaugeFunc registers a read-through gauge sampled at exposition time
// (queue depth, goroutine count, breaker state).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.familyFor(name, help, kindGauge, nil, nil)
	f.childFor(nil, func() *child { return &child{fn: fn} })
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// bucket upper bounds (nil means DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	f := r.familyFor(name, help, kindHistogram, nil, buckets)
	c := f.childFor(nil, func() *child { return &child{hist: newHistogram(f.buckets)} })
	return c.hist
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.familyFor(name, help, kindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	c := v.f.childFor(labelValues, func() *child { return &child{counter: &Counter{}} })
	return c.counter
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family with the
// given bucket upper bounds (nil means DefaultLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	return &HistogramVec{r.familyFor(name, help, kindHistogram, labelNames, buckets)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	c := v.f.childFor(labelValues, func() *child { return &child{hist: newHistogram(v.f.buckets)} })
	return c.hist
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren snapshots a family's children in label-key order.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	cs := make([]*child, 0, len(keys))
	for _, k := range keys {
		cs = append(cs, f.children[k])
	}
	f.mu.Unlock()
	return cs
}
