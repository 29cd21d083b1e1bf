package stats

import (
	"fmt"
	"math"
	"strings"
)

// Series is one line in a chart.
type Series struct {
	Name   string // single-character marker preferred (e.g. "A".."E")
	Points []float64
}

// RenderChart draws an ASCII line chart of the series over shared x labels,
// in the spirit of the paper's figures: y is scaled from zero to the
// maximum point, and each series plots with the first rune of its name.
// Points of several series that land in one cell draw as '*', and a
// legend line under the axis names the series behind each '*'.
//
//	IPC
//	 10.9 |                                E
//	  8.2 |                    E    *
//	  ...
//	      +----+----+----+----+----
//	        4    8   16   32   2k
//	      * at 16, 8.20: C D
func RenderChart(yLabel string, xLabels []string, series []Series, height int) string {
	if height < 2 {
		height = 2
	}
	cols := len(xLabels)
	if cols == 0 || len(series) == 0 {
		return ""
	}
	maxVal := 0.0
	for _, s := range series {
		for _, p := range s.Points {
			if p > maxVal {
				maxVal = p
			}
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}

	const colWidth = 5
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols*colWidth))
	}
	type cell struct{ row, col int }
	owners := map[cell][]string{} // series names plotted in each cell
	for _, s := range series {
		marker := byte('?')
		if len(s.Name) > 0 {
			marker = s.Name[0]
		}
		for i, p := range s.Points {
			if i >= cols {
				break
			}
			row := int(math.Round(float64(height-1) * p / maxVal))
			if row < 0 {
				row = 0
			}
			if row > height-1 {
				row = height - 1
			}
			c := cell{height - 1 - row, i}
			owners[c] = append(owners[c], s.Name)
			m := marker
			if len(owners[c]) > 1 {
				m = '*'
			}
			grid[c.row][i*colWidth+colWidth/2] = m
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", yLabel)
	yVal := func(r int) float64 { return maxVal * float64(height-1-r) / float64(height-1) }
	for r := 0; r < height; r++ {
		fmt.Fprintf(&b, "%7.2f |%s\n", yVal(r), strings.TrimRight(string(grid[r]), " "))
	}
	b.WriteString("        +" + strings.Repeat(strings.Repeat("-", colWidth-1)+"+", cols) + "\n")
	b.WriteString("         ")
	for _, l := range xLabels {
		fmt.Fprintf(&b, "%-*s", colWidth, centerLabel(l, colWidth))
	}
	b.WriteString("\n")
	// Legend for multi-character names.
	var legend []string
	for _, s := range series {
		if len(s.Name) > 1 {
			legend = append(legend, fmt.Sprintf("%c=%s", s.Name[0], s.Name))
		}
	}
	if len(legend) > 0 {
		b.WriteString("        " + strings.Join(legend, "  ") + "\n")
	}
	for r := 0; r < height; r++ {
		for i := 0; i < cols; i++ {
			if names := owners[cell{r, i}]; len(names) > 1 {
				fmt.Fprintf(&b, "        * at %s, %.2f: %s\n", xLabels[i], yVal(r), strings.Join(names, " "))
			}
		}
	}
	return b.String()
}

func centerLabel(l string, w int) string {
	if len(l) >= w {
		return l[:w]
	}
	pad := (w - len(l)) / 2
	return strings.Repeat(" ", pad) + l
}
