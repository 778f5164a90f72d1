package jsonwire

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// bs is a backslash, so the escape-heavy inputs below read as JSON text.
const bs = `\`

// trickyStrings covers every escape rule of encoding/json's string
// encoder: quotes, controls (\b and \f included), the HTML characters,
// invalid UTF-8, and U+2028/U+2029.
var trickyStrings = []string{
	"", "plain", `quote " and backslash \`, "tab\tnew\nret\r", "\b\f\x00\x1f\x7f",
	"<script>&amp;</script>", "café 日本", "\xff\xfe bad", "trunc \xe2\x82",
	"line\u2028para\u2029", "\U0001F600", string(utf8.RuneError) + "x",
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := append([]string(nil), trickyStrings...)
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e20, 1e21, 1e-300,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 123456789.125, 3048, 0.87}
	rng := rand.New(rand.NewSource(2))
	for len(floats) < 5000 {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) succeeded; encoding/json refuses it", f)
		}
	}
}

// item exercises every field constructor. itemMirror has the same
// fields and tags and no methods, so encoding/json handles it by
// reflection: it is the oracle.
type item struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Count int     `json:"count"`
	Nanos int64   `json:"nanos"`
	On    bool    `json:"on"`
	Inner inner   `json:"inner"`
	Kids  []item  `json:"kids"`
	Ref   *item   `json:"ref"`
	Opt   *item   `json:"opt,omitempty"`
}

type inner struct {
	Label string  `json:"label"`
	X     float64 `json:"x"`
}

type itemMirror struct {
	Name  string       `json:"name"`
	Value float64      `json:"value"`
	Count int          `json:"count"`
	Nanos int64        `json:"nanos"`
	On    bool         `json:"on"`
	Inner inner        `json:"inner"`
	Kids  []itemMirror `json:"kids"`
	Ref   *itemMirror  `json:"ref"`
	Opt   *itemMirror  `json:"opt,omitempty"`
}

var innerFields = []Field[inner]{
	String("label", func(v *inner) *string { return &v.Label }),
	Float("x", func(v *inner) *float64 { return &v.X }),
}

var itemFields []Field[item]

func init() {
	itemFields = []Field[item]{
		String("name", func(v *item) *string { return &v.Name }),
		Float("value", func(v *item) *float64 { return &v.Value }),
		Int("count", func(v *item) *int { return &v.Count }),
		Int("nanos", func(v *item) *int64 { return &v.Nanos }),
		Bool("on", func(v *item) *bool { return &v.On }),
		Struct("inner", func(v *item) *inner { return &v.Inner }, innerFields),
		Slice("kids", func(v *item) *[]item { return &v.Kids }),
		Ptr("ref", func(v *item) **item { return &v.Ref }, false),
		Ptr("opt", func(v *item) **item { return &v.Opt }, true),
	}
}

func (v *item) AppendJSON(dst []byte) ([]byte, error) { return AppendObject(dst, itemFields, v) }
func (v *item) DecodeJSON(r *Reader) error            { return DecodeObject(r, itemFields, v) }

func (v *item) mirror() *itemMirror {
	if v == nil {
		return nil
	}
	m := &itemMirror{Name: v.Name, Value: v.Value, Count: v.Count, Nanos: v.Nanos, On: v.On, Inner: v.Inner,
		Ref: v.Ref.mirror(), Opt: v.Opt.mirror()}
	if v.Kids != nil {
		m.Kids = make([]itemMirror, len(v.Kids))
		for i := range v.Kids {
			m.Kids[i] = *v.Kids[i].mirror()
		}
	}
	return m
}

func randomItem(rng *rand.Rand, depth int) *item {
	v := &item{
		Name:  trickyStrings[rng.Intn(len(trickyStrings))],
		Value: finite(rng),
		Count: rng.Intn(2000) - 1000,
		Nanos: rng.Int63() - rng.Int63(),
		On:    rng.Intn(2) == 0,
		Inner: inner{Label: trickyStrings[rng.Intn(len(trickyStrings))], X: rng.NormFloat64() * 1e22},
	}
	if depth > 0 {
		switch rng.Intn(3) {
		case 1:
			v.Kids = []item{}
		case 2:
			for n := rng.Intn(3) + 1; n > 0; n-- {
				v.Kids = append(v.Kids, *randomItem(rng, depth-1))
			}
		}
		if rng.Intn(2) == 0 {
			v.Ref = randomItem(rng, depth-1)
		}
		if rng.Intn(2) == 0 {
			v.Opt = randomItem(rng, depth-1)
		}
	}
	return v
}

// finite draws a float64 from all finite bit patterns.
func finite(rng *rand.Rand) float64 {
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

// TestCodecMatchesReflection round-trips random items: the codec's bytes
// equal encoding/json's for the mirror, and decoding them either way
// yields the same value.
func TestCodecMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		v := randomItem(rng, 3)
		got, err := v.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(v.mirror())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("codec bytes differ from encoding/json:\n got %s\nwant %s", got, want)
		}
		checkDecode(t, got)
	}
}

// checkDecode decodes data with the codec and with json.Unmarshal into
// the mirror, and fails unless both accept or both refuse it, and agree
// on the value.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var got item
	gotErr := Decode(data, &got)
	var want itemMirror
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q: codec error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got.mirror(), &want) {
		t.Fatalf("input %q: codec decoded %+v, encoding/json %+v", data, got.mirror(), &want)
	}
}

func TestDecodeEdgeCases(t *testing.T) {
	esc := func(s string) string { return strings.ReplaceAll(s, "%", bs) }
	inputs := []string{
		``, ` `, `null`, ` {} `, `{}x`, `{"name":"a"} {}`, `[]`, `"s"`, `1`, `{`, `{"name"}`, `{"name":}`,
		`{,}`, `{"name":"a",}`, `{"kids":[1,]}`, `{"kids":[,]}`, `{"name":"a" "value":1}`,
		// Keys fold case-insensitively, Unicode folding included (the
		// Kelvin sign folds to k, the long s to s), and the last of a
		// repeated key wins.
		`{"NAME":"a","Value":1,"COUNT":2,"nAnOs":3,"On":true}`, esc(`{"%u212aids":[{}]}`), "{\"\u017fame\":\"x\"}",
		`{"name":"a","name":"b"}`, `{"inner":{"label":"a"},"inner":{"x":2}}`,
		// A repeated array decodes into the elements already there, and
		// after a shorter one reaches back into spare capacity.
		`{"kids":[{"count":1},{"count":2}],"kids":[{"value":3}]}`,
		`{"kids":[{"count":1},{"count":2},{"count":3}],"kids":[{}],"kids":[{},{}]}`,
		`{"kids":[{"count":1}],"kids":[]}`, `{"kids":[{"count":1}],"kids":null}`,
		`{"ref":{"count":1},"ref":{"value":2}}`, `{"ref":{"count":1},"ref":null}`, `{"opt":null}`,
		// null leaves scalars and structs alone.
		`{"name":null,"value":null,"count":null,"nanos":null,"on":null,"inner":null,"kids":[null]}`,
		`{"name":"a","name":null}`,
		// Kinds that do not fit the field.
		`{"name":1}`, `{"value":"1"}`, `{"count":1.5}`, `{"count":1e2}`, `{"count":-0}`, `{"on":1}`,
		`{"inner":[]}`, `{"kids":{}}`, `{"ref":1}`, `{"ref":[]}`, `{"count":9223372036854775808}`,
		`{"nanos":-9223372036854775808}`,
		// The number grammar.
		`{"value":1e400}`, `{"value":-1e400}`, `{"value":1e-400}`, `{"value":01}`, `{"value":-}`, `{"value":1.}`,
		`{"value":.5}`, `{"value":+1}`, `{"value":1e}`, `{"value":1E+2}`, `{"value":-0.0e-0}`, `{"value":0x10}`,
		`{"value":1.7976931348623157e308}`, `{"value":1.7976931348623159e308}`,
		// Escapes, surrogates and invalid UTF-8.
		esc(`{"name":"%"%%%/%b%f%n%r%t%u00e9%u0041"}`), esc(`{"name":"%ud83d%ude00"}`), esc(`{"name":"%ud800"}`),
		esc(`{"name":"%udc00%ud800"}`), esc(`{"name":"%ud800%u0041"}`), esc(`{"name":"%ud800%ud800%udc00"}`),
		esc(`{"name":"%ud800%"}`), esc(`{"name":"%x"}`), esc(`{"name":"%u12"}`), esc(`{"name":"%u12g4"}`),
		"{\"name\":\"\xff\xfe\"}", "{\"name\":\"\xed\xa0\x80\"}", "{\"name\":\"a\x01\"}", "{\"name\":\"\x7f\"}",
		"{\"name\":\"" + string(utf8.RuneError) + "\"}", esc(`{"na%u006de":"a"}`), `{"unknown":{"deep":[1,"x",null,true]}}`,
		`{"unknown":tru}`, `{"unknown":nul}`, `{"on":tru}`, `{"on":truex}`, "\ufeff{}", " \t\r\n{ \"on\" : true } ",
	}
	for _, in := range inputs {
		checkDecode(t, []byte(in))
	}
}

// TestDecodeDepthLimit pins encoding/json's nesting limit: 10,000 open
// brackets decode, 10,001 do not.
func TestDecodeDepthLimit(t *testing.T) {
	for _, depth := range []int{9999, 10000, 10001} {
		n := depth - 1 // the outer object is one level
		in := `{"unknown":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
		checkDecode(t, []byte(in))
		err := Decode([]byte(in), new(item))
		if (err == nil) != (depth <= maxDepth) {
			t.Errorf("depth %d: error %v", depth, err)
		}
	}
}
