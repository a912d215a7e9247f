package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple aligned text table used by every experiment's Render.
type Table struct {
	// Title is printed above the table.
	Title string

	header []string
	rows   [][]string
}

// NewTable constructs a table with a title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a [0,1] accuracy as a percentage with two decimals.
func Pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", 100*v)
}

// F3 formats a float with three decimals.
func F3(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// Series is a named sequence of per-round values (a learning curve).
type Series struct {
	// Name labels the curve.
	Name string
	// Values holds one value per round; NaN marks a round without a test
	// accuracy (a centralised run given no test set).
	Values []float64
}

// RenderCurves prints one column per series, one row per round, with NaN
// rows skipped — enough to re-plot the paper's figures from stdout.
func RenderCurves(title string, series []Series) string {
	tbl := NewTable(title, append([]string{"round"}, seriesNames(series)...)...)
	maxLen := 0
	for _, s := range series {
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	for r := 0; r < maxLen; r++ {
		cells := make([]string, 0, len(series)+1)
		cells = append(cells, fmt.Sprintf("%d", r+1))
		any := false
		for _, s := range series {
			if r < len(s.Values) && !math.IsNaN(s.Values[r]) {
				cells = append(cells, Pct(s.Values[r]))
				any = true
			} else {
				cells = append(cells, "")
			}
		}
		if any {
			tbl.AddRow(cells...)
		}
	}
	return tbl.String()
}

// seriesNames extracts the curve labels.
func seriesNames(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Name
	}
	return out
}
