package expr

import (
	"fmt"
	"math"
	"strings"
)

// Plot renders the figure's series as an ASCII chart (width×height
// characters of plot area, plus axes). Each series uses its own marker;
// `cdbtune exp timeline` prints this under the numeric listing so trends
// are visible in a terminal.
func (f Figure) Plot(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	var xMin, xMax, yMin, yMax float64
	first := true
	for _, s := range f.Series {
		for i := range s.X {
			if first {
				xMin, xMax, yMin, yMax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xMin = math.Min(xMin, s.X[i])
			xMax = math.Max(xMax, s.X[i])
			yMin = math.Min(yMin, s.Y[i])
			yMax = math.Max(yMax, s.Y[i])
		}
	}
	if first {
		return "(no data)\n"
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	for si, s := range f.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			c := int(math.Round((s.X[i] - xMin) / (xMax - xMin) * float64(width-1)))
			r := height - 1 - int(math.Round((s.Y[i]-yMin)/(yMax-yMin)*float64(height-1)))
			if c >= 0 && c < width && r >= 0 && r < height {
				if grid[r][c] != ' ' && grid[r][c] != m {
					grid[r][c] = '&' // overlapping series
				} else {
					grid[r][c] = m
				}
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	for r, row := range grid {
		label := "          "
		if r == 0 {
			label = fmt.Sprintf("%9.4g ", yMax)
		} else if r == height-1 {
			label = fmt.Sprintf("%9.4g ", yMin)
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s+%s\n", strings.Repeat(" ", 10), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s%-.4g%s%.4g  (%s)\n", strings.Repeat(" ", 11), xMin,
		strings.Repeat(" ", maxInt(1, width-12)), xMax, f.XLabel)
	for si, s := range f.Series {
		fmt.Fprintf(&b, "%s%c %s\n", strings.Repeat(" ", 11), markers[si%len(markers)], s.Name)
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
