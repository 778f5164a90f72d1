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
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/greenhpc/archertwin/internal/jsonwire"
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

// tableFields is a table's JSON, {title, headers, rows}: the cell rows
// fully rendered, exactly as String lays them out (deltas and units
// included), so JSON consumers see the same deterministic content as the
// terminal. The rows are output only: a Table decodes just its Title.
var tableFields = []jsonwire.Field[Table]{
	jsonwire.String("title", func(t *Table) *string { return &t.Title }),
	jsonwire.Value("headers", func(dst []byte, t *Table) ([]byte, error) { return appendStrings(dst, t.headers), nil }, nil),
	jsonwire.Value("rows", func(dst []byte, t *Table) ([]byte, error) {
		dst = append(dst, '[')
		for i, row := range t.rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendStrings(dst, row)
		}
		return append(dst, ']'), nil // no rows is [], not null
	}, nil),
}

// appendStrings appends a JSON array of strings; nil is null.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonwire.AppendString(dst, s)
	}
	return append(dst, ']')
}

// AppendJSON appends the table's JSON to dst.
func (t *Table) AppendJSON(b []byte) ([]byte, error) { return jsonwire.AppendObject(b, tableFields, t) }

// DecodeJSON decodes the next value of r into the table's Title.
func (t *Table) DecodeJSON(r *jsonwire.Reader) error { return jsonwire.DecodeObject(r, tableFields, t) }

// MarshalJSON implements json.Marshaler through AppendJSON.
func (t *Table) MarshalJSON() ([]byte, error) { return t.AppendJSON(nil) }

// Pct formats a fraction as a signed percentage, e.g. -0.065 -> "-6.5%".
func Pct(frac float64) string {
	var buf [48]byte
	return string(appendPct(buf[:0], frac))
}

// appendPct appends Pct(frac): fmt's %+.1f%% of frac*100.
func appendPct(dst []byte, frac float64) []byte {
	n := len(dst)
	dst = AppendFixed(append(dst, '+'), frac*100, 1)
	if c := dst[n+1]; c == '-' || c == '+' { // strconv wrote the sign (+Inf)
		dst = append(dst[:n], dst[n+1:]...)
	}
	return append(dst, '%')
}

// KW formats a power in kW with thousands precision matching the paper.
func KW(kw float64) string { return Fixed(kw, 0, " kW") }

// Ratio formats a perf/energy ratio in the paper's two-decimal style.
func Ratio(r float64) string { return Fixed(r, 2, "") }

// Fixed formats v as fmt's %.<prec>f does, followed by unit.
func Fixed(v float64, prec int, unit string) string {
	var buf [48]byte
	return string(append(AppendFixed(buf[:0], v, prec), unit...))
}

// AppendFixed appends v with prec (>= 0) digits after the decimal point,
// byte for byte as fmt's %.<prec>f writes it: the exact binary value
// rounded half to even, "+Inf", "-Inf" and "NaN" as fmt spells them.
//
// fmt hands a fixed precision to strconv's multiprecision fallback. For
// prec <= 3 and |v| < 2^64 this rounds in integers instead: v is
// mant/2^shift, so v·10^prec is mant·10^prec (below 2^63) shifted right
// by shift, rounded half to even on the bits shifted out. Any other
// value goes to strconv.
func AppendFixed(dst []byte, v float64, prec int) []byte {
	bits := math.Float64bits(v)
	exp := int(bits >> 52 & 0x7ff)
	mant := bits&(1<<52-1) | 1<<52
	shift := 1075 - exp // |v| = mant / 2^shift; zero and subnormals round to 0 below
	if prec < 0 || prec > 3 || exp == 0x7ff || shift < -11 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	p := uint64(1) // 10^prec
	for i := 0; i < prec; i++ {
		p *= 10
	}
	var ip, fp uint64 // |v| rounded: ip + fp/p
	switch {
	case shift <= 0:
		ip = mant << -shift
	case shift < 64:
		x := mant * p
		q, r, half := x>>shift, x&(1<<shift-1), uint64(1)<<(shift-1)
		if r > half || r == half && q&1 == 1 {
			q++
		}
		ip, fp = q/p, q%p
	} // shift >= 64: |v|·10^prec < 2^63 <= 2^(shift-1) rounds to 0
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, ip, 10)
	if prec > 0 { // fp+p has prec+1 digits, the first a 1: make it the point
		n := len(dst)
		dst = strconv.AppendUint(dst, fp+p, 10)
		dst[n] = '.'
	}
	return dst
}

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
	return strconv.FormatFloat(v, 'g', -1, 64) // fmt's %g
}

// SetBaseline records the baseline row; values must match the metric
// columns. It may be called once, before any Add.
func (d *DeltaTable) SetBaseline(name string, values ...float64) {
	d.Add(name+" (baseline)", values...) // plain: no baseline yet
	d.base = append([]float64(nil), values...)
	d.set = true
}

// Add appends a scenario row, rendering each metric with its signed
// percentage delta against the baseline (or plainly if no baseline set).
func (d *DeltaTable) Add(name string, values ...float64) {
	cells := make([]string, 0, len(d.cols)+1)
	cells = append(cells, name)
	var buf [64]byte
	for i := range d.cols {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		cell := d.format(i, v)
		if d.set && i < len(d.base) && d.base[i] != 0 {
			b := appendPct(append(append(buf[:0], cell...), " ("...), (v-d.base[i])/d.base[i])
			cell = string(append(b, ')'))
		}
		cells = append(cells, cell)
	}
	d.t.rows = append(d.t.rows, cells) // one cell per header: the table keeps it
}

// String renders the table.
func (d *DeltaTable) String() string { return d.t.String() }

// AppendJSON appends the underlying table's JSON plus the raw baseline
// values, so consumers can recompute deltas without parsing cells.
func (d *DeltaTable) AppendJSON(dst []byte) ([]byte, error) {
	dst, _ = d.t.AppendJSON(dst) // strings only: cannot fail
	dst = append(dst[:len(dst)-1], `,"baseline":[`...)
	var err error
	for i, v := range d.base {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = jsonwire.AppendFloat(dst, v); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// DecodeJSON consumes an object or null; a DeltaTable keeps nothing.
func (d *DeltaTable) DecodeJSON(r *jsonwire.Reader) error { return jsonwire.DecodeObject(r, nil, d) }

// MarshalJSON implements json.Marshaler through AppendJSON.
func (d *DeltaTable) MarshalJSON() ([]byte, error) { return d.AppendJSON(nil) }

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
