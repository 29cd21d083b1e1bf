package core

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// refHeap is the reference window: a container/heap min-heap of in-window
// issue cycles, the structure the bucket queue replaced.
type refHeap []int64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *refHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// driveWindow runs one randomized push/pop sequence through a windowQueue
// and the reference heap and fails on the first divergence in pop order or
// occupancy. below is the chance (per push) of a push under the head,
// which the scheduler never makes but the queue must still absorb exactly.
func driveWindow(t *testing.T, seed int64, below int) windowQueue {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := newWindowQueue(16)
	var ref refHeap
	lastPop := int64(0) // pushes start at cycle 1, the queue's initial head
	for i := 0; i < 20_000; i++ {
		if ref.Len() > 0 && rng.Intn(2) == 0 {
			got, want := q.pop(), heap.Pop(&ref).(int64)
			if got != want {
				t.Fatalf("seed %d op %d: pop = %d, reference %d", seed, i, got, want)
			}
			lastPop = want
		} else {
			// The monotone contract: at or above the last popped cycle + 1.
			// Mostly near it, so cycles pile into shared buckets and the
			// ring wraps; occasionally far above, forcing growth.
			v := lastPop + 1 + int64(rng.Intn(24))
			if rng.Intn(200) == 0 {
				v += int64(rng.Intn(3000))
			}
			if below > 0 && lastPop > 1 && rng.Intn(below) == 0 {
				v = 1 + rng.Int63n(lastPop)
			}
			q.push(v)
			heap.Push(&ref, v)
		}
		if q.n != ref.Len() {
			t.Fatalf("seed %d op %d: occupancy %d, reference %d", seed, i, q.n, ref.Len())
		}
	}
	for ref.Len() > 0 {
		if got, want := q.pop(), heap.Pop(&ref).(int64); got != want {
			t.Fatalf("seed %d drain: pop = %d, reference %d", seed, got, want)
		}
	}
	if q.n != 0 {
		t.Fatalf("seed %d: drained queue holds %d entries", seed, q.n)
	}
	return q
}

// TestWindowQueueMatchesHeap is the differential test for the bucket
// queue: under the scheduler's monotone contract it must pop exactly the
// cycles a min-heap pops, in the same order, at the same occupancy —
// across ring wrap-around (cycles run far past the 16-slot start) and
// growth (pushes jump thousands of cycles ahead).
func TestWindowQueueMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		q := driveWindow(t, seed, 0)
		if len(q.counts) <= 16 {
			t.Errorf("seed %d: ring never grew (capacity %d); the growth path went untested", seed, len(q.counts))
		}
		if q.head < 4*int64(len(q.counts)) {
			t.Errorf("seed %d: head reached only cycle %d with capacity %d; wrap-around went untested",
				seed, q.head, len(q.counts))
		}
	}
}

// TestWindowQueueBelowHeadStaysExact: a push below the head breaks the
// scheduler's contract, but the queue lowers its head and stays an exact
// min-queue, so a corrupt run cannot also lose window entries.
func TestWindowQueueBelowHeadStaysExact(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		driveWindow(t, seed, 50)
	}
}

// TestWindowPushBelowHeadIsReported: under SelfCheck, a window push below
// the queue's head is the window-heap-monotone violation, reported by the
// next sweep.
func TestWindowPushBelowHeadIsReported(t *testing.T) {
	s := newSched(ConfigD, Params{Width: 4, SelfCheck: true})
	var rec trace.Record
	src := synthTrace(500).Reader()
	for src.Next(&rec) {
		s.visit(&rec)
	}
	if e := s.selfCheck(); e != nil {
		t.Fatalf("clean run fails its self-check: %v", e)
	}
	if s.window.head <= 1 {
		t.Fatalf("window head still at %d after 500 instructions; nothing was popped", s.window.head)
	}
	// Free a slot as visit does, then enter an instruction below the head.
	s.window.pop()
	s.windowPush(s.window.head - 1)
	if e := s.selfCheck(); e == nil || e.Invariant != "window-heap-monotone" {
		t.Fatalf("push below the head: self-check = %v, want a window-heap-monotone violation", e)
	}
}
