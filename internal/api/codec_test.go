package api

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/emissions"
	"github.com/greenhpc/archertwin/internal/jsonwire"
	"github.com/greenhpc/archertwin/internal/report"
	"github.com/greenhpc/archertwin/internal/scenario"
	"github.com/greenhpc/archertwin/internal/units"
)

// resultMirror has exactly scenario.Result's fields and no methods, so
// encoding/json handles it by reflection: it is the oracle the codec is
// held to. resultMirror(r) compiles only while the two field lists
// agree.
type resultMirror struct {
	Scenario      scenario.Scenario
	MeanPower     units.Power
	MeanUtil      float64
	Energy        units.Energy
	NodeHours     float64
	MeanCI        units.CarbonIntensity
	Emissions     emissions.Window
	Regime        emissions.Regime
	AvoidedCarbon units.Mass
	HasBaseline   bool
	Holds         int
	HoldDelay     time.Duration
	Completed     int
	MeanWait      time.Duration
	SimDigest     string
}

// payloadMirror and shardMirror are ResultsPayload and ShardResponse
// with mirrored results and no codec methods.
type payloadMirror struct {
	ID          string             `json:"id"`
	Spec        scenario.Spec      `json:"spec"`
	Workers     int                `json:"workers"`
	Simulations int                `json:"simulations"`
	Results     []resultMirror     `json:"results"`
	DeltaTable  *report.DeltaTable `json:"delta_table"`
	RegimeTable *report.Table      `json:"regime_table"`
	CarbonTable *report.Table      `json:"carbon_table,omitempty"`
}

type shardMirror struct {
	Shard       int            `json:"shard"`
	Results     []resultMirror `json:"results"`
	Simulations int            `json:"simulations"`
}

func mirrorResults(rs []scenario.Result) []resultMirror {
	if rs == nil {
		return nil
	}
	out := make([]resultMirror, len(rs))
	for i, r := range rs {
		out[i] = resultMirror(r)
	}
	return out
}

func mirrorPayload(p *ResultsPayload) *payloadMirror {
	return &payloadMirror{ID: p.ID, Spec: p.Spec, Workers: p.Workers, Simulations: p.Simulations,
		Results: mirrorResults(p.Results), DeltaTable: p.DeltaTable, RegimeTable: p.RegimeTable, CarbonTable: p.CarbonTable}
}

func mirrorShard(s *ShardResponse) *shardMirror {
	return &shardMirror{Shard: s.Shard, Results: mirrorResults(s.Results), Simulations: s.Simulations}
}

// TestMirrorsHaveEveryField keeps the payload mirrors complete: a field
// added to ResultsPayload or ShardResponse must be added to its mirror.
func TestMirrorsHaveEveryField(t *testing.T) {
	for _, c := range []struct{ real, mirror any }{
		{ResultsPayload{}, payloadMirror{}},
		{ShardResponse{}, shardMirror{}},
	} {
		rt, mt := reflect.TypeOf(c.real), reflect.TypeOf(c.mirror)
		if rt.NumField() != mt.NumField() {
			t.Fatalf("%v has %d fields, its mirror %v %d", rt, rt.NumField(), mt, mt.NumField())
		}
		for i := 0; i < rt.NumField(); i++ {
			if rf, mf := rt.Field(i), mt.Field(i); rf.Name != mf.Name || rf.Tag != mf.Tag {
				t.Errorf("%v field %d is %s %q, mirror's %s %q", rt, i, rf.Name, rf.Tag, mf.Name, mf.Tag)
			}
		}
	}
}

// checkWire holds one encoded value to the reflection oracle: the codec's
// bytes equal encoding/json's for the mirror.
func checkWire(t *testing.T, what string, v jsonwire.Appender, mirror any) []byte {
	t.Helper()
	got, err := v.AppendJSON(nil)
	if err != nil {
		t.Fatalf("%s: codec: %v", what, err)
	}
	want, err := json.Marshal(mirror)
	if err != nil {
		t.Fatalf("%s: encoding/json: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: codec bytes differ from encoding/json:\n got %s\nwant %s", what, got, want)
	}
	return got
}

// checkDecode decodes data with the codec into a fresh codecV and with
// json.Unmarshal into a fresh mirrorV, and fails unless both accept or
// both refuse it, and agree on the value.
func checkDecode[C any, M any, PC interface {
	*C
	jsonwire.Decoder
}](t *testing.T, data []byte, mirror func(*C) *M) {
	t.Helper()
	var got C
	gotErr := jsonwire.Decode(data, PC(&got))
	var want M
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T from %q: codec error %v, encoding/json error %v", got, data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(mirror(&got), &want) {
		t.Fatalf("%T from %q: codec decoded %+v, encoding/json %+v", got, data, mirror(&got), &want)
	}
}

func checkAllDecodes(t *testing.T, data []byte) {
	t.Helper()
	checkDecode(t, data, mirrorPayload)
	checkDecode(t, data, mirrorShard)
	checkDecode(t, data, func(r *scenario.Result) *resultMirror { m := resultMirror(*r); return &m })
}

// nonZero sets v, a field of a wire type, to a value that is not its
// zero value, and fails on a kind it has no value for.
func nonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Type() {
	case reflect.TypeOf(scenario.Spec{}):
		v.Set(reflect.ValueOf(scenario.Spec{Name: "<spec>"}))
		return
	case reflect.TypeOf([]scenario.Result(nil)):
		v.Set(reflect.ValueOf([]scenario.Result{{SimDigest: "d"}}))
		return
	case reflect.TypeOf((*report.Table)(nil)):
		tb := report.NewTable("T", "h")
		tb.AddRow("<c>")
		v.Set(reflect.ValueOf(tb))
		return
	case reflect.TypeOf((*report.DeltaTable)(nil)):
		d := report.NewDeltaTable("D", "k", report.DeltaColumn{Header: "kw", Format: report.KW})
		d.SetBaseline("b", 1.5e-7)
		v.Set(reflect.ValueOf(d))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString("x<&>\u2028\xff")
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	case reflect.Float64:
		v.SetFloat(1.25e-7)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("field %s: no non-zero value for kind %s; teach nonZero and the codec", name, v.Kind())
	}
}

// eachField calls set for every exported field of the struct type typ,
// descending into struct-valued fields other than scenario.Spec (which
// travels through encoding/json whole), with the path to the field.
func eachField(typ reflect.Type, path []int, prefix string, set func(path []int, name string)) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		p := append(append([]int(nil), path...), i)
		if f.Type.Kind() == reflect.Struct && f.Type != reflect.TypeOf(scenario.Spec{}) {
			eachField(f.Type, p, prefix+f.Name+".", set)
			continue
		}
		set(p, prefix+f.Name)
	}
}

// TestCodecCoversEveryField sets each exported field of Result (with
// Scenario and emissions.Window inside it), ResultsPayload and
// ShardResponse alone to a non-zero value: the codec's bytes must change
// and must equal encoding/json's for the mirror, and must decode as
// encoding/json decodes them. A field added without codec support fails
// here.
func TestCodecCoversEveryField(t *testing.T) {
	cases := []struct {
		zero    any
		encode  func(v reflect.Value) (jsonwire.Appender, any)
		decodes func(t *testing.T, data []byte)
	}{
		{scenario.Result{}, func(v reflect.Value) (jsonwire.Appender, any) {
			r := v.Addr().Interface().(*scenario.Result)
			return r, resultMirror(*r)
		}, func(t *testing.T, data []byte) {
			checkDecode(t, data, func(r *scenario.Result) *resultMirror { m := resultMirror(*r); return &m })
		}},
		{ResultsPayload{}, func(v reflect.Value) (jsonwire.Appender, any) {
			p := v.Addr().Interface().(*ResultsPayload)
			return p, mirrorPayload(p)
		}, func(t *testing.T, data []byte) { checkDecode(t, data, mirrorPayload) }},
		{ShardResponse{}, func(v reflect.Value) (jsonwire.Appender, any) {
			s := v.Addr().Interface().(*ShardResponse)
			return s, mirrorShard(s)
		}, func(t *testing.T, data []byte) { checkDecode(t, data, mirrorShard) }},
	}
	for _, c := range cases {
		typ := reflect.TypeOf(c.zero)
		zero := reflect.New(typ).Elem()
		a, m := c.encode(zero)
		base := checkWire(t, typ.String()+" zero", a, m)
		n := 0
		eachField(typ, nil, typ.Name()+".", func(path []int, name string) {
			n++
			v := reflect.New(typ).Elem()
			nonZero(t, name, v.FieldByIndex(path))
			a, m := c.encode(v)
			got := checkWire(t, name, a, m)
			if bytes.Equal(got, base) {
				t.Errorf("%s: setting it leaves the codec's bytes unchanged", name)
			}
			c.decodes(t, got)
		})
		if n == 0 {
			t.Errorf("%v: no fields visited", typ)
		}
	}
}

// randomResult draws a Result whose every field is random: strings from
// escape-heavy pieces, floats from all finite bit patterns.
func randomResult(rng *rand.Rand) scenario.Result {
	pieces := []string{"", "freq=capped", "<&>", "\"\\", "\t\n\b\f\x01", "\xff", "\u2028", "日本", "grid=65"}
	str := func() string { return pieces[rng.Intn(len(pieces))] + pieces[rng.Intn(len(pieces))] }
	num := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Round(rng.NormFloat64() * 3000)
		case 2:
			return rng.Float64()
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	var r scenario.Result
	v := reflect.ValueOf(&r).Elem()
	eachField(v.Type(), nil, "", func(path []int, _ string) {
		f := v.FieldByIndex(path)
		switch f.Kind() {
		case reflect.String:
			f.SetString(str())
		case reflect.Int, reflect.Int64:
			f.SetInt(rng.Int63n(1<<40) - 1<<39)
		case reflect.Float64:
			f.SetFloat(num())
		case reflect.Bool:
			f.SetBool(rng.Intn(2) == 0)
		}
	})
	return r
}

// TestShardResponseRoundTrips encodes random shard responses with the
// codec and with encoding/json (byte-equal), decodes the bytes both ways
// (equal values), and round-trips the decoded response (the same value).
func TestShardResponseRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < 2000; i++ {
		s := &ShardResponse{Shard: rng.Intn(8), Simulations: rng.Intn(100)}
		if n := rng.Intn(5); n > 0 || rng.Intn(2) == 0 {
			s.Results = make([]scenario.Result, n)
			for j := range s.Results {
				s.Results[j] = randomResult(rng)
			}
		}
		data := checkWire(t, "shard response", s, mirrorShard(s))
		var back, again ShardResponse
		if err := jsonwire.Decode(data, &back); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
		// Invalid UTF-8 comes back as U+FFFD, so the decoded value is
		// the fixed point: encoding and decoding it changes nothing.
		if err := jsonwire.Decode(checkWire(t, "re-encoded shard response", &back, mirrorShard(&back)), &again); err != nil || !reflect.DeepEqual(&again, &back) {
			t.Fatalf("round trip of %s changed the value (%v)", data, err)
		}
		checkDecode(t, data, mirrorShard)
	}
}

// TestResultNaNRefused pins the 500 path: a NaN has no JSON form, so the
// codec refuses it as encoding/json does.
func TestResultNaNRefused(t *testing.T) {
	r := scenario.Result{MeanUtil: math.NaN()}
	if _, err := json.Marshal(r); err == nil {
		t.Error("json.Marshal of a NaN result succeeded")
	}
	if _, err := (&ResultsPayload{Results: []scenario.Result{r}}).AppendJSON(nil); err == nil {
		t.Error("AppendJSON of a NaN result succeeded")
	}
}

var (
	defaultBodyOnce sync.Once
	defaultBody     []byte
)

// defaultSpecBody is a served DefaultSpec results body, built as the
// server builds it.
func defaultSpecBody(tb testing.TB) []byte {
	defaultBodyOnce.Do(func() {
		res, err := (&scenario.Runner{}).Run(context.Background(), scenario.DefaultSpec())
		if err != nil {
			tb.Fatal(err)
		}
		p := &ResultsPayload{ID: "sweep-1", Spec: res.Spec, Workers: res.Workers, Simulations: res.Simulations,
			Results: res.Results, DeltaTable: res.Table(), RegimeTable: res.RegimeTable()}
		if res.CarbonSwept() {
			p.CarbonTable = res.CarbonTable()
		}
		if defaultBody, err = p.AppendJSON(nil); err != nil {
			tb.Fatal(err)
		}
	})
	if defaultBody == nil {
		tb.Fatal("no DefaultSpec body")
	}
	return defaultBody
}

// TestDefaultSpecBodyDecodes holds a real served body to the oracle.
func TestDefaultSpecBodyDecodes(t *testing.T) {
	body := defaultSpecBody(t)
	var p payloadMirror
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Results) == 0 || p.Results[0].SimDigest == "" {
		t.Fatalf("body has no results: %.200s", body)
	}
	checkWire(t, "DefaultSpec body", func() *ResultsPayload {
		var back ResultsPayload
		if err := jsonwire.Decode(body, &back); err != nil {
			t.Fatal(err)
		}
		back.DeltaTable, back.RegimeTable, back.CarbonTable = nil, nil, nil
		return &back
	}(), func() *payloadMirror { p.DeltaTable, p.RegimeTable, p.CarbonTable = nil, nil, nil; return &p }())
	checkAllDecodes(t, body)
}

// FuzzResultsWire holds the codec's decoder to json.Unmarshal on any
// input: for a ResultsPayload, a ShardResponse and a bare Result, both
// accept or both refuse, and what they accept decodes to equal values.
func FuzzResultsWire(f *testing.F) {
	f.Add(defaultSpecBody(f))
	golden, err := os.ReadFile(filepath.Join("testdata", "wire_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	var samples map[string]json.RawMessage
	if err := json.Unmarshal(golden, &samples); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"results_payload", "shard_response"} {
		f.Add([]byte(samples[name]))
		var compact bytes.Buffer
		if err := json.Compact(&compact, samples[name]); err != nil {
			f.Fatal(err)
		}
		f.Add(compact.Bytes())
	}
	esc := func(s string) string { return strings.ReplaceAll(s, "%", `\`) }
	for _, s := range []string{
		`{"ID":"a","Workers":1,"RESULTS":[{"meanpower":1,"scenario":{"NAME":"x"}}],"Shard":2}`,
		"{\"\u017fimulations\":3,\"re\u017fults\":[{\"Holds\":1}]}", esc(`{"%u0069d":"x","%u212a":1}`),
		`{"results":[{"Holds":1},{"Holds":2},{"Holds":3}],"results":[{}],"results":[{},{}]}`,
		`{"results":[{"Scenario":{"Index":1}}],"results":[{"Scenario":{"Name":"b"}}]}`,
		`{"regime_table":{"title":"a"},"regime_table":{"Title":"b","rows":[["x"]]},"delta_table":{"title":"t"}}`,
		`{"id":null,"spec":null,"workers":null,"results":null,"delta_table":null,"carbon_table":null}`,
		`{"results":[null,{"Emissions":null,"Scenario":null,"SimDigest":null}]}`, `null`, `[]`, `{}`, ``,
		esc(`{"id":"%"%%%/%b%f%n%r%t%u00e9","results":[{"SimDigest":"%ud83d%ude00"}]}`),
		esc(`{"id":"%ud800","results":[{"SimDigest":"%udc00%ud800","Scenario":{"Name":"%ud800%u0041"}}]}`),
		"{\"id\":\"\xff\xfe\",\"results\":[{\"SimDigest\":\"\xed\xa0\x80\"}]}",
		`{"results":[{"MeanPower":1e400}]}`, `{"results":[{"MeanPower":1e-400}]}`, `{"workers":01}`,
		`{"workers":1.0}`, `{"workers":-0}`, `{"results":[{"HoldDelay":9223372036854775808}]}`,
		`{"spec":{"nodes":"x"}}`, `{"spec":{"name":"s","axes":{"grid_mean":[1,2]}},"spec":{"seed":3}}`,
		`{"regime_table":[]}`, `{"delta_table":5}`, `{"results":{}}`, `{"results":[{"HasBaseline":1}]}`,
		`{"results":[{"Regime":"1"}]}`, `{"unknown":{"a":[1,{"b":null}]},"id":"x"}`, `{"id":"x"}garbage`,
		`{"spec":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"spec":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
		`{"results":[` + strings.Repeat(`{"x":`, 9998) + `1` + strings.Repeat("}", 9998) + `]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAllDecodes(t, data)
	})
}
