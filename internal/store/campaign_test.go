package store_test

// The power-fail campaign: the property tests in powerfail_test.go cut
// power inside one Put; this cuts it at a randomized step in the middle of
// a whole sweep. Each trial runs a fixed grid against a store mounted on
// faultfs.Sim, cuts power (every write after the cut fails, as a yanked
// cord would), reboots the simulated disk — dropping un-synced data and
// directory entries — and resumes the sweep from whatever survived. The
// contract is docs/robustness.md §8: the survived store verifies clean
// (complete entries or nothing, no torn bytes under live names), and the
// resumed sweep reports exactly the uninterrupted run's per-cell numbers.
//
// The test lives in the external package store_test so it can drive the
// store through experiments.Runner, which itself imports store.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultfs"
	"repro/internal/store"
	"repro/internal/workloads"
)

// campaignScale keeps every cell of the grid at milliseconds.
const campaignScale = 60

// campaignGrid is the sweep every trial replays: the same grid as the
// server's drain-resume test, so the two durability stories cover one
// another.
var campaignGrid = struct {
	workloads []string
	configs   []core.Config
	widths    []int
}{
	workloads: []string{"compress", "espresso"},
	configs:   []core.Config{core.ConfigA, core.ConfigD},
	widths:    []int{4, 8},
}

func TestPowerFailCampaign(t *testing.T) {
	// Reference: the full grid, uninterrupted, no store. Every trial's
	// post-crash resume must report exactly this.
	reference := renderGrid(t, experiments.NewRunner(campaignScale))
	for _, c := range []struct {
		seed   int64
		trials int
	}{
		{seed: 1, trials: 16},
		{seed: 7, trials: 6},
		// Seed 1 × 3 replays the first three trials of seed 1 × 16: a
		// trial depends only on the seed and its index.
		{seed: 1, trials: 3},
		{seed: 2, trials: 3},
	} {
		t.Run(fmt.Sprintf("seed%dx%d", c.seed, c.trials), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(c.seed))
			var survived, recomputed int64
			for trial := 0; trial < c.trials; trial++ {
				s, r := powerFailTrial(t, rng, c.seed, trial, reference)
				survived += s
				recomputed += r
			}
			t.Logf("%d trial(s): %d cell(s) survived a crash, %d recomputed", c.trials, survived, recomputed)
			// The campaign is vacuous unless both fates occur across its
			// trials: some cells must survive a crash, and some must need
			// recomputation.
			if survived == 0 {
				t.Fatal("no cell ever survived a crash: every kill-point landed before the first commit")
			}
			if recomputed == 0 {
				t.Fatal("no cell was ever recomputed: every kill-point landed after the sweep")
			}
		})
	}
}

// powerFailTrial runs one randomized kill-point and returns how many cells
// the resumed sweep served from the survived store and how many it had to
// recompute.
func powerFailTrial(t *testing.T, rng *rand.Rand, seed int64, trial int, reference string) (survived, recomputed int64) {
	t.Helper()
	sim := faultfs.NewSim(seed<<16 + int64(trial))
	const dir = "pfstore"
	st, err := store.OpenFS(dir, sim)
	if err != nil {
		t.Fatalf("trial %d: open: %v", trial, err)
	}

	// Arm the cut a random number of mutating steps ahead: one committed
	// Put is ~7 steps and the grid is 8 cells, so the window covers cuts
	// from "before the first write" to "after the sweep finished".
	cells := len(campaignGrid.workloads) * len(campaignGrid.configs) * len(campaignGrid.widths)
	sim.SetCut(sim.Steps() + 1 + rng.Int63n(int64(cells*7+7)))

	// The doomed run computes cell by cell until the power goes. Results
	// whose writes failed live only in this runner's memory, which the
	// crash then loses: the resume uses a fresh runner.
	doomed := experiments.NewRunner(campaignScale).WithStoreHandle(st)
	if err := forEachCell(func(w *workloads.Workload, cfg core.Config, width int) error {
		if sim.Down() {
			return nil // the process is dead; the remaining cells never ran
		}
		_, err := doomed.Result(w, cfg, width)
		return err
	}); err != nil {
		t.Fatalf("trial %d: doomed run: %v", trial, err)
	}
	committed := st.Stats().Writes
	sim.Crash()

	// Reboot: the survived store must verify clean.
	st2, err := store.OpenFS(dir, sim)
	if err != nil {
		t.Fatalf("trial %d: reopen: %v", trial, err)
	}
	rep, err := st2.Verify()
	if err != nil {
		t.Fatalf("trial %d: verify: %v", trial, err)
	}
	if !rep.Clean() {
		t.Fatalf("trial %d: survived store fails verify: %+v", trial, rep.Problems)
	}

	// Resume with no memory of the doomed run and compare reports.
	resumed := experiments.NewRunner(campaignScale).WithStoreHandle(st2)
	rendered := renderGrid(t, resumed)
	stats := resumed.StoreStats()
	if stats.Corrupt != 0 {
		t.Fatalf("trial %d: resumed run read %d corrupt entr(y/ies)", trial, stats.Corrupt)
	}
	// A Put that returned nil promised durability: every cell committed
	// before the cut must be served from the survived store.
	if stats.Hits < committed {
		t.Fatalf("trial %d: %d cell(s) committed before the cut, only %d survived", trial, committed, stats.Hits)
	}
	if rendered != reference {
		t.Fatalf("trial %d: resumed report diverged from uninterrupted run:\n--- resumed ---\n%s--- reference ---\n%s",
			trial, rendered, reference)
	}
	return stats.Hits, resumed.ComputeCalls()
}

// forEachCell walks the grid in its one deterministic order.
func forEachCell(fn func(*workloads.Workload, core.Config, int) error) error {
	for _, name := range campaignGrid.workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		for _, cfg := range campaignGrid.configs {
			for _, width := range campaignGrid.widths {
				if err := fn(w, cfg, width); err != nil {
					return fmt.Errorf("%s/%s/w%d: %w", name, cfg.Name, width, err)
				}
			}
		}
	}
	return nil
}

// renderGrid runs the full grid on r and renders the per-cell oracle the
// resume comparison checks: exact instructions, cycles, collapsed
// instructions and mispredicts for every cell.
func renderGrid(t *testing.T, r *experiments.Runner) string {
	t.Helper()
	var b strings.Builder
	err := forEachCell(func(w *workloads.Workload, cfg core.Config, width int) error {
		res, err := r.Result(w, cfg, width)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %s w%d: instrs=%d cycles=%d collapsed=%d mispredicts=%d\n",
			w.Name, cfg.Name, width, res.Instructions, res.Cycles, res.CollapsedInstrs, res.Mispredicts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}
