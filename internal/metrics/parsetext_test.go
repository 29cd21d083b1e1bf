package metrics

// Table-driven edge cases for ParseText: the parser is the tests' only
// window into a live /metrics page, so the corners of the exposition
// format — empty families, escaped label values, the +Inf bucket — must
// parse exactly, and garbage must be an error rather than a silent zero.

import (
	"strings"
	"testing"
)

func TestParseTextEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    map[string]float64
		wantErr bool
	}{
		{
			name: "empty family is metadata only",
			in:   "# HELP empty_total never incremented\n# TYPE empty_total counter\n",
			want: map[string]float64{},
		},
		{
			name: "blank lines and comments skipped",
			in:   "\n# just a comment\n\na_total 3\n\n",
			want: map[string]float64{"a_total": 3},
		},
		{
			name: "escaped newline in label value",
			in:   `j_total{msg="line1\nline2"} 2` + "\n",
			want: map[string]float64{`j_total{msg="line1\nline2"}`: 2},
		},
		{
			name: "spaces inside label value",
			in:   `j_total{msg="two words here"} 7` + "\n",
			want: map[string]float64{`j_total{msg="two words here"}`: 7},
		},
		{
			name: "+Inf bucket and scientific value",
			in: `h_bucket{le="0.1"} 1
h_bucket{le="+Inf"} 4
h_sum 1.5e-05
h_count 4
`,
			want: map[string]float64{
				`h_bucket{le="0.1"}`:  1,
				`h_bucket{le="+Inf"}`: 4,
				"h_sum":               1.5e-05,
				"h_count":             4,
			},
		},
		{
			name: "negative and NaN-free gauge values",
			in:   "g -12.5\n",
			want: map[string]float64{"g": -12.5},
		},
		{
			name:    "line with no space is an error",
			in:      "orphan_total\n",
			wantErr: true,
		},
		{
			name:    "non-numeric value is an error",
			in:      "a_total banana\n",
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseText(strings.NewReader(tc.in))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ParseText(%q) = %v, want error", tc.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseText(%q): %v", tc.in, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parsed %d samples, want %d (got %v)", len(got), len(tc.want), got)
			}
			for k, v := range tc.want {
				if got[k] != v {
					t.Errorf("sample %s = %v, want %v", k, got[k], v)
				}
			}
		})
	}
}

// TestParseTextEmptyFamilyRoundTrip proves the writer and parser agree on
// a family that exists but has no children: two metadata lines, no samples.
func TestParseTextEmptyFamilyRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("unused_total", "registered, never observed", "kind")

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE unused_total counter") {
		t.Fatalf("empty family lost its TYPE line:\n%s", out)
	}
	got, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty family produced samples: %v", got)
	}
}
