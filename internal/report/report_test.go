package report

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/jsonwire"
	"github.com/greenhpc/archertwin/internal/timeseries"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X: demo", "component", "idle", "loaded")
	tb.AddRow("Compute nodes", "1350", "3000")
	tb.AddRow("Interconnect", "150", "200")
	out := tb.String()
	if !strings.Contains(out, "Table X: demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "component") || !strings.Contains(out, "Compute nodes") {
		t.Error("missing content")
	}
	// Columns aligned: every data line starts at the same offset for col 2.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if tb.RowCount() != 2 {
		t.Fatalf("rows = %d", tb.RowCount())
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("only")
	tb.AddRow("x", "y", "z", "overflow")
	out := tb.String()
	if strings.Contains(out, "overflow") {
		t.Error("overflow cell not truncated")
	}
	if tb.RowCount() != 2 {
		t.Fatal("rows lost")
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(-0.065); got != "-6.5%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(0.214); got != "+21.4%" {
		t.Errorf("Pct = %q", got)
	}
	if got := KW(3220.4); got != "3220 kW" {
		t.Errorf("KW = %q", got)
	}
	if got := Ratio(0.9); got != "0.90" {
		t.Errorf("Ratio = %q", got)
	}
}

func TestComparison(t *testing.T) {
	c := NewComparison("Figure 1")
	c.Add("baseline mean", 3220, 3217, KW)
	c.Add("zero paper", 0, 5, KW)
	out := c.String()
	if !strings.Contains(out, "3220 kW") || !strings.Contains(out, "3217 kW") {
		t.Error("values missing")
	}
	if !strings.Contains(out, "-0.1%") {
		t.Errorf("deviation missing:\n%s", out)
	}
	if !strings.Contains(out, "n/a") {
		t.Error("zero-paper deviation not n/a")
	}
	if c.t.RowCount() != 2 {
		t.Fatalf("rows = %d", c.t.RowCount())
	}
}

func TestFigure(t *testing.T) {
	s := timeseries.New("power", "kW", time.Hour, 0)
	t0 := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		v := 3220.0
		if i > 50 {
			v = 3010
		}
		s.MustAppend(t0.Add(time.Duration(i)*time.Hour), v)
	}
	f := Figure{Title: "Figure 2: cabinet power", Series: s}
	f.AddNote("before mean %s", KW(3220))
	f.AddNote("after mean %s", KW(3010))
	out := f.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "before mean 3220 kW") {
		t.Errorf("figure missing content:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Error("no chart body")
	}
	// Nil series renders notes only.
	empty := Figure{Title: "t"}
	empty.AddNote("n")
	if !strings.Contains(empty.String(), "n") {
		t.Error("nil-series figure broken")
	}
}

func TestDeltaTable(t *testing.T) {
	d := NewDeltaTable("sweep", "scenario",
		DeltaColumn{Header: "power", Format: KW},
		DeltaColumn{Header: "ratio"}) // nil format falls back to %g
	d.SetBaseline("base", 1000, 1.0)
	d.Add("capped", 840, 0.9)
	if d.t.RowCount() != 2 {
		t.Fatalf("RowCount = %d, want 2", d.t.RowCount())
	}
	s := d.String()
	for _, want := range []string{
		"base (baseline)", "1000 kW", "capped", "840 kW (-16.0%)", "0.9 (-10.0%)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("delta table missing %q:\n%s", want, s)
		}
	}
}

func TestDeltaTableWithoutBaseline(t *testing.T) {
	d := NewDeltaTable("t", "k", DeltaColumn{Header: "v", Format: KW})
	d.Add("only", 500)
	if s := d.String(); !strings.Contains(s, "500 kW") || strings.Contains(s, "%") {
		t.Errorf("baseline-less row rendered wrongly:\n%s", s)
	}
}

func TestDeltaTableZeroBaseline(t *testing.T) {
	// A zero baseline value must not divide by zero; the delta is omitted.
	d := NewDeltaTable("t", "k", DeltaColumn{Header: "v", Format: KW})
	d.SetBaseline("base", 0)
	d.Add("x", 100)
	if s := d.String(); strings.Contains(s, "%") {
		t.Errorf("delta printed against zero baseline:\n%s", s)
	}
}

// The JSON forms serve the twinserver API: structured {title, headers,
// rows} whose cells match the rendered table exactly, deterministic and
// round-trippable.
func TestTableMarshalJSON(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("x", "1")
	tb.AddRow("y", "2")
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "T" || len(got.Headers) != 2 || len(got.Rows) != 2 || got.Rows[1][1] != "2" {
		t.Errorf("table JSON = %s", data)
	}
	again, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("table JSON encoding is not deterministic")
	}

	// An empty table must encode empty arrays, not null.
	empty, err := json.Marshal(NewTable("E", "h"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(empty), "null") {
		t.Errorf("empty table encodes null: %s", empty)
	}
}

func TestDeltaTableMarshalJSON(t *testing.T) {
	d := NewDeltaTable("D", "scenario", DeltaColumn{Header: "kw", Format: KW})
	d.SetBaseline("base", 100)
	d.Add("other", 110)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title    string     `json:"title"`
		Headers  []string   `json:"headers"`
		Rows     [][]string `json:"rows"`
		Baseline []float64  `json:"baseline"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "D" || len(got.Rows) != 2 {
		t.Fatalf("delta table JSON = %s", data)
	}
	// Cells carry the rendered delta, exactly as String would print.
	if !strings.Contains(got.Rows[1][1], "+10.0%") {
		t.Errorf("delta cell %q lacks rendered delta", got.Rows[1][1])
	}
	if len(got.Baseline) != 1 || got.Baseline[0] != 100 {
		t.Errorf("baseline values = %v", got.Baseline)
	}
}

// tableMirror and deltaMirror are the tables' former reflection-encoded
// wire forms: the oracles the appenders are held to.
type tableMirror struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

type deltaMirror struct {
	tableMirror
	Baseline []float64 `json:"baseline"`
}

func mirrorTable(t *Table) tableMirror {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return tableMirror{Title: t.Title, Headers: t.headers, Rows: rows}
}

func mirrorDelta(d *DeltaTable) deltaMirror {
	base := d.base
	if base == nil {
		base = []float64{}
	}
	return deltaMirror{mirrorTable(d.t), base}
}

// TestTableJSONMatchesReflection holds both tables' appenders to
// encoding/json on escape-heavy cells, a header-less table (null
// headers) and empty tables (empty rows and baseline, never null), and
// checks that json.Marshal goes through them.
func TestTableJSONMatchesReflection(t *testing.T) {
	cells := []string{"", "<b>&amp;</b>", "quote \" back \\", "\t\x01\b\f", "\xff\xfe", "line\u2028end", "日本"}
	check := func(what string, v interface {
		AppendJSON([]byte) ([]byte, error)
	}, mirror any) {
		t.Helper()
		got, err := v.AppendJSON(nil)
		want, werr := json.Marshal(mirror)
		if err != nil || werr != nil || string(got) != string(want) {
			t.Errorf("%s: got %s (%v), want %s (%v)", what, got, err, want, werr)
		}
		if via, err := json.Marshal(v); err != nil || string(via) != string(want) {
			t.Errorf("%s through json.Marshal: got %s (%v), want %s", what, via, err, want)
		}
	}
	bare := NewTable("no headers")
	check("header-less table", bare, mirrorTable(bare))
	for n := 0; n <= len(cells); n++ {
		tb := NewTable(cells[n%len(cells)], "a<", "b")
		for i := 0; i < n; i++ {
			tb.AddRow(cells[i], cells[(i+1)%len(cells)])
		}
		check("table", tb, mirrorTable(tb))
	}
	d := NewDeltaTable("D<", "k", DeltaColumn{Header: "kw", Format: KW}, DeltaColumn{Header: "x"})
	check("empty delta table", d, mirrorDelta(d))
	d.SetBaseline("b&", 1.5e-7, 3048)
	d.Add("o", 2e21, 1)
	check("delta table", d, mirrorDelta(d))

	// A NaN baseline has no JSON form: the appender refuses it, and so
	// does json.Marshal.
	nan := NewDeltaTable("N", "k", DeltaColumn{Header: "v"})
	nan.SetBaseline("b", math.NaN())
	if _, err := nan.AppendJSON(nil); err == nil {
		t.Error("AppendJSON of a NaN baseline succeeded")
	}
	if _, err := json.Marshal(nan); err == nil {
		t.Error("json.Marshal of a NaN baseline succeeded")
	}
}

// TestTableDecodeKeepsTitleOnly pins what a table decodes: a Table its
// Title (the key matched case-insensitively), a DeltaTable nothing.
func TestTableDecodeKeepsTitleOnly(t *testing.T) {
	data := []byte(`{"TITLE":"t","headers":["h"],"rows":[["c"]],"baseline":[1]}`)
	var tb Table
	if err := jsonwire.Decode(data, &tb); err != nil || tb.Title != "t" || tb.headers != nil || tb.rows != nil {
		t.Errorf("Table decoded %+v, %v", tb, err)
	}
	var d DeltaTable
	if err := jsonwire.Decode(data, &d); err != nil || d.t != nil || d.base != nil {
		t.Errorf("DeltaTable decoded %+v, %v", d, err)
	}
}
