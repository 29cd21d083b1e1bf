package core

// windowQueue is the scheduling window's occupancy: how many in-window
// instructions issue at each cycle. The scheduler only ever asks for the
// earliest in-window issue cycle (the slot that frees next), and window
// slots free in non-decreasing cycle order — every push is at or above the
// last popped cycle + 1 (the "window-heap-monotone" invariant). That makes
// a monotone bucket queue exact: a power-of-two ring of per-cycle counts
// indexed by cycle&mask, and a head cursor that only moves forward. Pop is
// an amortized O(1) forward scan from the head (one step per cycle the
// window ever advances); push is one increment. This is the calendar queue
// of discrete-event ILP limit studies, specialized to unit-width buckets.
//
// The live cycles are [head, top]: counts outside that range are zero, so
// the ring wraps onto clean slots. The span is bounded by the same
// O(window x max-latency) argument as issueRing's; push grows the ring
// (rarely) when a cycle outruns it.
type windowQueue struct {
	counts []int32
	mask   int64
	head   int64 // lowest cycle that may hold an entry: the last popped one (1 before any pop)
	top    int64 // highest cycle that may hold an entry; all later counts are zero
	n      int   // entries in the queue
}

// newWindowQueue returns an empty queue with capacity for at least size
// cycles (rounded up to a power of two, minimum 16) whose head starts at
// cycle 1, the first schedulable cycle.
func newWindowQueue(size int64) windowQueue {
	size = roundUpPow2(max(size, 16))
	return windowQueue{counts: make([]int32, size), mask: size - 1, head: 1, top: 1}
}

// push adds an entry at cycle v. A push below the head breaks the
// scheduler's monotone contract (the caller reports it under SelfCheck);
// the queue moves its head down rather than lose the entry, so it stays an
// exact min-queue either way.
func (q *windowQueue) push(v int64) {
	switch {
	case v < q.head:
		q.fit(v, q.top)
		q.head = v
	case v > q.top:
		q.fit(q.head, v)
		q.top = v
	}
	q.counts[v&q.mask]++
	q.n++
}

// pop removes and returns the earliest entry's cycle. The queue must not
// be empty.
func (q *windowQueue) pop() int64 {
	for q.counts[q.head&q.mask] == 0 {
		q.head++
	}
	q.counts[q.head&q.mask]--
	q.n--
	return q.head
}

// fit grows the ring until the cycles [lo, hi] are addressable at once,
// carrying the live counts [head, top] across.
func (q *windowQueue) fit(lo, hi int64) {
	n := int64(len(q.counts))
	if hi-lo < n {
		return
	}
	for hi-lo >= n {
		n *= 2
	}
	grown := make([]int32, n)
	for c := q.head; c <= q.top; c++ {
		grown[c&(n-1)] = q.counts[c&q.mask]
	}
	q.counts = grown
	q.mask = n - 1
}
