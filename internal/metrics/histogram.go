package metrics

// Fixed-bucket histograms. Observe is lock-free: one binary search over
// the (immutable) bucket bounds plus two atomic adds, so instrumenting a
// hot path costs nanoseconds. Quantiles are estimated from the bucket
// counts by linear interpolation within the containing bucket — exactly
// the trade the paper's measurement machinery makes: bounded memory,
// known error, full distribution shape.

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefaultLatencyBuckets spans 100µs to 60s: fine resolution where the
// serving pipeline actually lives (sub-millisecond store reads, tens of
// milliseconds per simulated cell) and coarse headroom for stalls.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// atomicFloat is an atomic float64 (bit-cast through uint64, CAS add).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram counts observations into fixed buckets. Create via
// Registry.Histogram / HistogramVec.With; the zero value is not usable.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Snapshot is a consistent-enough copy of a histogram's state for
// rendering (individual loads are atomic; a concurrent Observe may appear
// in counts but not yet in a bucket or vice versa — exposition tolerates
// being one observation ahead or behind).
type Snapshot struct {
	Bounds []float64 // upper bounds, ascending (no +Inf entry)
	Counts []int64   // per-bucket (non-cumulative); len(Bounds)+1
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{Bounds: h.bounds, Counts: make([]int64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts by
// linear interpolation within the containing bucket. The overflow bucket
// reports its lower bound (the histogram cannot see past its last bound);
// an empty histogram reports 0. The estimate's error is bounded by the
// containing bucket's width — the price of bounded memory.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

// Quantile is Histogram.Quantile over a snapshot.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i == len(s.Bounds) {
			// Overflow bucket: no upper bound to interpolate toward.
			return lo
		}
		hi := s.Bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	if n := len(s.Bounds); n > 0 {
		return s.Bounds[n-1]
	}
	return 0
}

// Summary is the conventional quantile trio plus count and sum — what the
// drain snapshot prints for each latency histogram.
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary computes the quantile summary from one consistent snapshot.
func (h *Histogram) Summary() Summary {
	s := h.Snapshot()
	return Summary{Count: s.Count, Sum: s.Sum,
		P50: s.Quantile(0.5), P90: s.Quantile(0.9), P99: s.Quantile(0.99)}
}
