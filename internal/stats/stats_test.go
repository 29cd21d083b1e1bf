package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	tests := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{1, 1, 1}, 1},
		{[]float64{1, 2}, 4.0 / 3},
		{[]float64{2, 4, 8}, 3 / (0.5 + 0.25 + 0.125)},
		{[]float64{1, 0}, 0},  // invalid input
		{[]float64{1, -2}, 0}, // invalid input
	}
	for _, tt := range tests {
		if got := HarmonicMean(tt.xs); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("HarmonicMean(%v) = %v, want %v", tt.xs, got, tt.want)
		}
	}
}

// Property: the harmonic mean lies between min and max and never exceeds
// the arithmetic mean.
func TestHarmonicMeanBoundsQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		h := HarmonicMean(xs)
		a := ArithmeticMean(xs)
		return h >= lo-1e-9 && h <= hi+1e-9 && h <= a+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmeticMean(t *testing.T) {
	if got := ArithmeticMean(nil); got != 0 {
		t.Errorf("mean(nil) = %v", got)
	}
	if got := ArithmeticMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v, want 2", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Name", "IPC", "Speedup")
	tab.AddRowf("compress", 1.234567, "x")
	tab.AddRowf("go", 10.5, 2.0)
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "Name") || !strings.Contains(lines[0], "Speedup") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "1.23") {
		t.Errorf("float not formatted: %q", lines[2])
	}
	// Columns aligned: "IPC" column starts at the same offset in each row.
	idx := strings.Index(lines[0], "IPC")
	if !strings.HasPrefix(lines[2][idx:], "1.23") && !strings.HasPrefix(lines[3][idx:], "10.50") {
		t.Errorf("columns misaligned:\n%s", s)
	}
}

func TestTableShortRow(t *testing.T) {
	tab := NewTable("A", "B")
	tab.AddRow("only")
	s := tab.String()
	if !strings.Contains(s, "only") {
		t.Errorf("short row dropped:\n%s", s)
	}
}

func TestRenderChart(t *testing.T) {
	s := RenderChart("IPC", []string{"4", "8", "16"}, []Series{
		{Name: "A", Points: []float64{1, 2, 3}},
		{Name: "E", Points: []float64{2, 4, 6}},
	}, 6)
	if s == "" {
		t.Fatal("empty chart")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Header + 6 grid rows + axis + labels = 9 lines.
	if len(lines) != 9 {
		t.Fatalf("chart has %d lines, want 9:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "IPC") {
		t.Errorf("missing y label:\n%s", s)
	}
	// E's maximum (6) sits on the top row; A's maximum (3) near the middle.
	if !strings.Contains(lines[1], "E") {
		t.Errorf("top row should hold E's max:\n%s", s)
	}
	if !strings.Contains(s, "A") {
		t.Errorf("A series missing:\n%s", s)
	}
	if !strings.Contains(lines[len(lines)-1], "16") {
		t.Errorf("x labels missing:\n%s", s)
	}

	// Two series that share cells: neither may hide the other. A shared
	// cell draws '*' and a legend line names both series under it.
	s = RenderChart("IPC", []string{"4", "8", "16"}, []Series{
		{Name: "A", Points: []float64{1, 2, 3}},
		{Name: "B", Points: []float64{1, 4, 3}},
	}, 5)
	want := strings.Join([]string{
		"IPC",
		"   4.00 |       B",
		"   3.00 |            *",
		"   2.00 |       A",
		"   1.00 |  *",
		"   0.00 |",
		"        +----+----+----+",
		"           4    8   16  ",
		"        * at 16, 3.00: A B",
		"        * at 4, 1.00: A B",
		"",
	}, "\n")
	if s != want {
		t.Errorf("colliding series rendered as\n%s\nwant\n%s", s, want)
	}
}

func TestRenderChartEdgeCases(t *testing.T) {
	if got := RenderChart("y", nil, []Series{{Name: "A", Points: []float64{1}}}, 4); got != "" {
		t.Error("chart with no x labels should be empty")
	}
	if got := RenderChart("y", []string{"x"}, nil, 4); got != "" {
		t.Error("chart with no series should be empty")
	}
	// All-zero data must not divide by zero.
	s := RenderChart("y", []string{"x"}, []Series{{Name: "A", Points: []float64{0}}}, 4)
	if !strings.Contains(s, "A") {
		t.Errorf("zero-valued point not plotted:\n%s", s)
	}
	// Multi-character names get a legend.
	s = RenderChart("y", []string{"x"}, []Series{{Name: "base", Points: []float64{1}}}, 3)
	if !strings.Contains(s, "b=base") {
		t.Errorf("legend missing:\n%s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("Name", "Value")
	tab.AddRow("plain", "1")
	tab.AddRow("with,comma", `with"quote`)
	got := tab.CSV()
	want := "Name,Value\nplain,1\n\"with,comma\",\"with\"\"quote\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
