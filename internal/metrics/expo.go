package metrics

// Prometheus text exposition (version 0.0.4): the lingua franca of every
// scraping stack, and greppable by a human under pressure. Families render
// in name order, children in label order, so two snapshots of the same
// state are byte-identical — the golden test and the server's metric
// identity checks depend on that determinism.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range f.sortedChildren() {
			writeChild(bw, f, c)
		}
	}
	return bw.Flush()
}

func writeChild(w *bufio.Writer, f *family, c *child) {
	switch {
	case c.fn != nil:
		writeSample(w, f.name, f.labelNames, c.labels, "", "", c.fn())
	case c.counter != nil:
		writeSample(w, f.name, f.labelNames, c.labels, "", "", float64(c.counter.Value()))
	case c.gauge != nil:
		writeSample(w, f.name, f.labelNames, c.labels, "", "", float64(c.gauge.Value()))
	case c.hist != nil:
		s := c.hist.Snapshot()
		cum := int64(0)
		for i, bound := range s.Bounds {
			cum += s.Counts[i]
			writeSample(w, f.name+"_bucket", f.labelNames, c.labels,
				"le", formatFloat(bound), float64(cum))
		}
		cum += s.Counts[len(s.Bounds)]
		writeSample(w, f.name+"_bucket", f.labelNames, c.labels, "le", "+Inf", float64(cum))
		writeSample(w, f.name+"_sum", f.labelNames, c.labels, "", "", s.Sum)
		writeSample(w, f.name+"_count", f.labelNames, c.labels, "", "", float64(s.Count))
	}
}

// writeSample renders one line: name{labels,extraKey="extraVal"} value.
func writeSample(w *bufio.Writer, name string, labelNames, labelValues []string, extraKey, extraVal string, v float64) {
	w.WriteString(name)
	if len(labelNames) > 0 || extraKey != "" {
		w.WriteByte('{')
		sep := false
		for i, ln := range labelNames {
			if sep {
				w.WriteByte(',')
			}
			sep = true
			fmt.Fprintf(w, "%s=%q", ln, escapeLabel(labelValues[i]))
		}
		if extraKey != "" {
			if sep {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%s=%q", extraKey, extraVal)
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel handles backslash and newline; %q adds the quote escaping.
func escapeLabel(s string) string {
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ParseText parses text exposition format back into a flat map from
// sample name (labels included verbatim, e.g. `jobs_total{state="done"}`)
// to value. It understands exactly what WritePrometheus emits — the server
// tests and the CI smoke use it to assert metric invariants over a live
// /metrics page without importing a client library.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is everything after the last space; the name+labels are
		// everything before it (label values may contain spaces).
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
