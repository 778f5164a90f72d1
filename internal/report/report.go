// Package report renders the twin's outputs as aligned ASCII tables and
// chart blocks — the terminal equivalents of the paper's Tables 1-4 and
// Figures 1-3 (Jackson, Simpson & Turner, SC-W 2023) — including
// side-by-side paper-vs-simulated comparisons (Comparison) and
// baseline-relative sweep tables (DeltaTable).
//
// Determinism contract: rendering is a pure function of the added rows —
// no maps are iterated, no timestamps or environment read — so a table
// built from deterministic results is byte-identical run to run and at
// any sweep worker count. The scenario engine's determinism tests assert
// equality on rendered tables, which relies on this property.
package report

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/greenhpc/archertwin/internal/timeseries"
)

// Table is a simple column-aligned ASCII table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells and long
// rows are truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// RowCount returns the number of data rows.
func (t *Table) RowCount() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
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
	writeRow(t.headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// tableJSON is the structured wire form shared by every table type: the
// title, the column headers and the fully rendered cell rows, exactly as
// String lays them out (deltas and units included), so JSON consumers see
// the same deterministic content as the terminal.
type tableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON encodes the table as {title, headers, rows}. Like String,
// it is a pure function of the added rows, so encoding is byte-identical
// run to run.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(tableJSON{Title: t.Title, Headers: t.headers, Rows: rows})
}

// Pct formats a fraction as a signed percentage, e.g. -0.065 -> "-6.5%".
func Pct(frac float64) string {
	return fmt.Sprintf("%+.1f%%", frac*100)
}

// KW formats a power in kW with thousands precision matching the paper.
func KW(kw float64) string {
	return fmt.Sprintf("%.0f kW", kw)
}

// Ratio formats a perf/energy ratio in the paper's two-decimal style.
func Ratio(r float64) string { return fmt.Sprintf("%.2f", r) }

// Comparison builds a paper-vs-simulated table.
type Comparison struct {
	t *Table
}

// NewComparison creates a comparison table.
func NewComparison(title string) *Comparison {
	return &Comparison{t: NewTable(title, "metric", "paper", "simulated", "deviation")}
}

// Add records one metric. Deviation is (sim-paper)/paper when paper != 0.
func (c *Comparison) Add(metric string, paper, sim float64, format func(float64) string) {
	dev := "n/a"
	if paper != 0 {
		dev = Pct((sim - paper) / paper)
	}
	c.t.AddRow(metric, format(paper), format(sim), dev)
}

// String renders the comparison.
func (c *Comparison) String() string { return c.t.String() }

// DeltaColumn describes one metric column of a DeltaTable.
type DeltaColumn struct {
	// Header is the column title.
	Header string
	// Format renders the metric value (e.g. KW); nil falls back to %g.
	Format func(float64) string
}

// DeltaTable is a baseline-relative comparison table: one designated
// baseline row, then one row per scenario where every metric is rendered
// as "value (+x.x%)" against the baseline. It is the cross-scenario
// counterpart of Comparison (which compares simulated against paper).
type DeltaTable struct {
	t    *Table
	cols []DeltaColumn
	base []float64
	set  bool
}

// NewDeltaTable creates a delta table keyed by keyHeader with the given
// metric columns.
func NewDeltaTable(title, keyHeader string, cols ...DeltaColumn) *DeltaTable {
	headers := make([]string, 0, len(cols)+1)
	headers = append(headers, keyHeader)
	for _, c := range cols {
		headers = append(headers, c.Header)
	}
	return &DeltaTable{t: NewTable(title, headers...), cols: cols}
}

func (d *DeltaTable) format(i int, v float64) string {
	if f := d.cols[i].Format; f != nil {
		return f(v)
	}
	return fmt.Sprintf("%g", v)
}

// SetBaseline records the baseline row; values must match the metric
// columns. It may be called once, before any Add.
func (d *DeltaTable) SetBaseline(name string, values ...float64) {
	cells := make([]string, 0, len(d.cols)+1)
	cells = append(cells, name+" (baseline)")
	for i := range d.cols {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		cells = append(cells, d.format(i, v))
	}
	d.base = append([]float64(nil), values...)
	d.set = true
	d.t.AddRow(cells...)
}

// Add appends a scenario row, rendering each metric with its signed
// percentage delta against the baseline (or plainly if no baseline set).
func (d *DeltaTable) Add(name string, values ...float64) {
	cells := make([]string, 0, len(d.cols)+1)
	cells = append(cells, name)
	for i := range d.cols {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		cell := d.format(i, v)
		if d.set && i < len(d.base) && d.base[i] != 0 {
			cell += fmt.Sprintf(" (%s)", Pct((v-d.base[i])/d.base[i]))
		}
		cells = append(cells, cell)
	}
	d.t.AddRow(cells...)
}

// String renders the table.
func (d *DeltaTable) String() string { return d.t.String() }

// MarshalJSON encodes the delta table as its underlying table — rendered
// cells, baseline deltas included — plus the raw baseline metric values
// so consumers can recompute deltas without parsing cells.
func (d *DeltaTable) MarshalJSON() ([]byte, error) {
	base := d.base
	if base == nil {
		base = []float64{}
	}
	rows := d.t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(struct {
		tableJSON
		Baseline []float64 `json:"baseline"`
	}{
		tableJSON{Title: d.t.Title, Headers: d.t.headers, Rows: rows},
		base,
	})
}

// Figure renders a time series as the paper renders its power figures: an
// ASCII chart plus window-mean annotations.
type Figure struct {
	Title  string
	Series *timeseries.Series
	Notes  []string
}

// AddNote appends an annotation line (e.g. a window mean).
func (f *Figure) AddNote(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// String renders the figure.
func (f *Figure) String() string {
	var b strings.Builder
	if f.Title != "" {
		fmt.Fprintf(&b, "%s\n", f.Title)
	}
	if f.Series != nil {
		b.WriteString(f.Series.RenderASCII(12, 72))
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}
