package workloads

// Provider-equivalence property tests: the trace plane's three strategies
// (materialized buffer, disk spool, deterministic regeneration) must be
// observationally identical — same content hash, and byte-identical
// simulation results on the oracle grid. Everything above the provider
// (runner, store keys) relies on this interchangeability.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// equivalenceGrid is the (config, width) slice of the oracle grid the
// equivalence results are compared on — the paper's headline config plus
// the baseline, at two widths.
var equivalenceGrid = []struct {
	cfg   core.Config
	width int
}{
	{core.ConfigA, 4},
	{core.ConfigD, 8},
}

func TestProviderEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"espresso", "li"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scale := w.DefaultScale / 4
		t.Run(name, func(t *testing.T) {
			buffered, err := w.Provider(ctx, scale, ProviderOptions{})
			if err != nil {
				t.Fatal(err)
			}
			spooled, err := w.Provider(ctx, scale, ProviderOptions{SpoolDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			// MaxMem of one byte fits zero records, forcing the
			// regeneration strategy for any non-empty trace.
			regen, err := w.Provider(ctx, scale, ProviderOptions{MaxMem: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := regen.(*trace.RegenProvider); !ok {
				t.Fatalf("MaxMem=1 yielded %T, want *trace.RegenProvider", regen)
			}
			if _, ok := spooled.(*trace.Spool); !ok {
				t.Fatalf("SpoolDir yielded %T, want *trace.Spool", spooled)
			}

			provs := map[string]trace.Provider{
				"buffer": buffered, "spool": spooled, "regen": regen,
			}
			wantHash, wantN, err := buffered.ContentHash()
			if err != nil {
				t.Fatal(err)
			}
			for pname, p := range provs {
				h, n, err := p.ContentHash()
				if err != nil {
					t.Fatalf("%s: ContentHash: %v", pname, err)
				}
				if h != wantHash || n != wantN {
					t.Fatalf("%s: hash/count = %#x/%d, buffer = %#x/%d",
						pname, h, n, wantHash, wantN)
				}
			}

			for _, cell := range equivalenceGrid {
				var ref *core.Result
				for _, pname := range []string{"buffer", "spool", "regen"} {
					src, err := provs[pname].Open()
					if err != nil {
						t.Fatalf("%s: Open: %v", pname, err)
					}
					res := core.Run(src, cell.cfg, core.Params{Width: cell.width})
					if err := trace.SourceErr(src); err != nil {
						t.Fatalf("%s: stream: %v", pname, err)
					}
					if ref == nil {
						ref = res
						continue
					}
					if d := ref.Diff(res); d != nil {
						t.Errorf("%s/%s width %d: result differs from buffer: %v",
							pname, cell.cfg.Name, cell.width, d)
					}
				}
			}
		})
	}
}

// TestProviderSpoolReuse: a second Provider call over the same spool dir
// must reuse the committed spool (validated, not regenerated) and report
// the identical content identity.
func TestProviderSpoolReuse(t *testing.T) {
	ctx := context.Background()
	w, err := ByName("eqntott")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	scale := w.DefaultScale / 4
	p1, err := w.Provider(ctx, scale, ProviderOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h1, n1, err := p1.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.Provider(ctx, scale, ProviderOptions{SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h2, n2, err := p2.ContentHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || n1 != n2 {
		t.Fatalf("spool reuse changed identity: (%#x,%d) vs (%#x,%d)", h1, n1, h2, n2)
	}
	if p1.(*trace.Spool).Path() != p2.(*trace.Spool).Path() {
		t.Fatalf("spool paths differ: %s vs %s", p1.(*trace.Spool).Path(), p2.(*trace.Spool).Path())
	}
}

// TestRegenStreamStopsWithItsConsumer: a regenerating provider outlives
// the context it was created under, so a regeneration's lifetime is its
// consumer's. A consumer canceled mid-stream stops reading and closes the
// stream, and the generator goroutine must then exit.
func TestRegenStreamStopsWithItsConsumer(t *testing.T) {
	w, err := ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	prov, err := w.Provider(ctx, w.DefaultScale/4, ProviderOptions{MaxMem: 1})
	cancel() // the creating request ends before any regeneration
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	src, err := prov.Open()
	if err != nil {
		t.Fatal(err)
	}
	cellCtx, stop := context.WithCancel(context.Background())
	_, err = core.RunChecked(cellCtx, src, core.ConfigD, core.Params{
		Width: 8, ProgressEvery: 2048,
		Progress: func(core.Progress) { stop() },
	})
	trace.CloseSource(src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled consumer: err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("generator still running after its consumer closed the stream: %d goroutines, %d before",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
