package core

import (
	"testing"

	"repro/internal/trace"
)

// TestVisitZeroAllocSteadyState is the allocation regression test for the
// scheduler hot loop: once the per-PC decode cache, predictors, and maps
// are warm, visiting an instruction must not allocate at all. Every
// allocation source removed from the loop — the per-cycle map entries in
// slotted, the signature strings in commitGroup, the recursive closure in
// chooseGroup, the per-visit defer, appended collapse options — would show
// up here as a fraction of an allocation per visit. Width 2048 (a
// 4096-entry window) holds the wide-window path to the same bar.
func TestVisitZeroAllocSteadyState(t *testing.T) {
	buf := synthTrace(4_000)
	recs := make([]trace.Record, 0, buf.Len())
	var rec trace.Record
	src := buf.Reader()
	for src.Next(&rec) {
		recs = append(recs, rec)
	}
	for _, width := range []int{8, 2048} {
		s := newSched(ConfigD, Params{Width: width})

		// Warm up: two passes populate the decode cache and grow the maps,
		// the window queue and the issue ring to steady state.
		for pass := 0; pass < 2; pass++ {
			for i := range recs {
				s.visit(&recs[i])
			}
		}

		// Steady state: replay the same records (addresses and PCs already
		// seen) and demand zero allocations per visit.
		i := 0
		avg := testing.AllocsPerRun(2_000, func() {
			s.visit(&recs[i%len(recs)])
			i++
		})
		if avg != 0 {
			t.Errorf("width %d: steady-state visit allocates %.3f allocs/op, want 0", width, avg)
		}
	}
}
