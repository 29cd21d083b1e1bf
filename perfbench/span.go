package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Names are
// "<module>.<operation>"; the module before the dot is the span's layer.
// Parent is the span that caused this one (0 for none) and Run the round
// it belongs to, so one round's spans share an identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer holds spans in memory until the benchmark writes them out at
// exit. A nil *tracer records nothing, so untraced rounds pay one nil
// check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// annotate attaches a free-form attribute (a cell name, a rung) to span id.
func (t *tracer) annotate(id int, attr string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Attr = attr
	t.mu.Unlock()
}

// setRun tags the spans started from now on with round r.
func (t *tracer) setRun(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = r
	t.mu.Unlock()
}

// stamp reports the tracer clock, for marking a round's timed window.
func (t *tracer) stamp() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// named sums durations and counts the finished spans called name.
func named(spans []span, name string) (total float64, n int) {
	for i := range spans {
		if spans[i].Name == name {
			total += spans[i].dur()
			n++
		}
	}
	return total, n
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one layer's share of the traced timed sections.
type layerTime struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	Self  float64 `json:"self_s"` // span time minus time covered by child spans, summed over goroutines
	Wall  float64 `json:"wall_s"` // wall time attributed to the layer (see attribute)
	Share float64 `json:"wall_share"`
}

// window is one round's timed section on the tracer clock.
type window struct {
	Run        int
	Start, End int64
}

// attribute accounts the wall time of each window to layers. At every
// instant, the time is split evenly between the innermost open spans (open
// spans with no open child) of that round; instants with no open span are
// unaccounted. It returns the per-layer table, sorted by wall time, and
// the covered share of the windows' total wall time.
func attribute(spans []span, windows []window) ([]layerTime, float64) {
	byLayer := map[string]*layerTime{}
	get := func(l string) *layerTime {
		if byLayer[l] == nil {
			byLayer[l] = &layerTime{Layer: l}
		}
		return byLayer[l]
	}
	var total, covered float64
	for _, win := range windows {
		total += float64(win.End-win.Start) / 1e9
		var in []span
		for _, s := range spans {
			if s.Run == win.Run && s.End > win.Start && s.Start < win.End {
				s.Start, s.End = max(s.Start, win.Start), min(s.End, win.End)
				in = append(in, s)
			}
		}
		kids := map[int][]int{}
		for j := range in {
			kids[in[j].Parent] = append(kids[in[j].Parent], j)
		}
		for i := range in {
			lt := get(in[i].layer())
			lt.Spans++
			lt.Self += selfTime(in, i, kids[in[i].ID])
		}
		covered += sweep(in, func(layer string, sec float64) { get(layer).Wall += sec })
	}
	var out []layerTime
	for _, lt := range byLayer {
		if total > 0 {
			lt.Share = lt.Wall / total
		}
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	if total == 0 {
		return out, 0
	}
	return out, covered / total
}

// selfTime is span i's duration minus the union of its children, the
// spans at indexes children.
func selfTime(in []span, i int, children []int) float64 {
	var kids [][2]int64
	for _, j := range children {
		kids = append(kids, [2]int64{max(in[j].Start, in[i].Start), min(in[j].End, in[i].End)})
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
	var cover, hi int64
	hi = in[i].Start
	for _, k := range kids {
		if k[1] <= hi {
			continue
		}
		cover += k[1] - max(k[0], hi)
		hi = k[1]
	}
	return float64(in[i].End-in[i].Start-cover) / 1e9
}

// sweep walks the span boundaries in time order and hands each elementary
// interval to the innermost open spans' layers. It returns the covered
// time in seconds.
func sweep(in []span, credit func(layer string, sec float64)) float64 {
	type edge struct {
		t    int64
		open bool
		i    int
	}
	edges := make([]edge, 0, 2*len(in))
	idx := map[int]int{}
	for i := range in {
		idx[in[i].ID] = i
		edges = append(edges, edge{in[i].Start, true, i}, edge{in[i].End, false, i})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].t < edges[b].t })
	open := map[int]bool{}
	openKids := make([]int, len(in))
	var covered float64
	for k, e := range edges {
		if k > 0 && e.t > edges[k-1].t && len(open) > 0 {
			var leaves []int
			for i := range open {
				if openKids[i] == 0 {
					leaves = append(leaves, i)
				}
			}
			sec := float64(e.t-edges[k-1].t) / 1e9
			for _, i := range leaves {
				credit(in[i].layer(), sec/float64(len(leaves)))
			}
			covered += sec
		}
		p, hasParent := idx[in[e.i].Parent]
		if e.open {
			open[e.i] = true
			if hasParent {
				openKids[p]++
			}
		} else {
			delete(open, e.i)
			if hasParent {
				openKids[p]--
			}
		}
	}
	return covered
}

// printLayers renders the per-layer self-time table.
func printLayers(w io.Writer, rows []layerTime, coverage float64, wall float64) {
	fmt.Fprintf(w, "%-12s %7s %10s %10s %7s\n", "layer", "spans", "self_s", "wall_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7d %10.4f %10.4f %6.1f%%\n", r.Layer, r.Spans, r.Self, r.Wall, 100*r.Share)
	}
	fmt.Fprintf(w, "spans cover %.1f%% of %.3f s traced wall time\n", 100*coverage, wall)
}
