package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"github.com/greenhpc/archertwin/internal/core"
)

// The memo oracle. Random small specs, drawn field by field through
// reflection (so a new Spec, CarbonSpec or Axes field is drawn with no
// edit here), check three properties of the memo without reference to
// its key bytes:
//   - soundness: scenarios with equal memo keys simulate to equal
//     core.Results digests, so a hit never serves another simulation;
//   - completeness: the spec fields that shape no simulation, and the
//     axes beyond a scenario's own values, never move its key, so no
//     simulation is run twice;
//   - warm equals fresh: a Runner whose memo is tiny enough to evict,
//     grow accounts and hit partially answers every sweep byte for byte
//     as a fresh Runner does, from one submitter or two at once.

// oracleMaxSims bounds a drawn spec's distinct simulations.
const oracleMaxSims = 6

// oracleFloats are the values a float field without its own draw takes.
var oracleFloats = [...]float64{0, 0.5, 0.9, 2}

// oracleDraws draws the fields whose valid values their kind does not
// tell, by path. Every other field is drawn by its kind.
var oracleDraws = map[string]func(r *rand.Rand, s *Spec) any{
	"Name":                  func(r *rand.Rand, _ *Spec) any { return "oracle-" + strconv.Itoa(r.Intn(100)) },
	"Nodes":                 func(r *rand.Rand, _ *Spec) any { return 16 + r.Intn(49) },
	"Days":                  func(r *rand.Rand, _ *Spec) any { return 2 + r.Intn(3) },
	"WarmupDays":            func(r *rand.Rand, _ *Spec) any { return r.Intn(3) - 1 },
	"DivergeDay":            func(r *rand.Rand, s *Spec) any { return r.Intn(s.Days) },
	"Mode":                  func(r *rand.Rand, _ *Spec) any { return [...]string{ModeGrid, ModeList}[r.Intn(2)] },
	"MaxScenarios":          func(r *rand.Rand, _ *Spec) any { return [...]int{0, 4, 64}[r.Intn(3)] },
	"Carbon.ThresholdGrams": func(r *rand.Rand, _ *Spec) any { return [...]float64{0, 60, 150}[r.Intn(3)] },
	"Carbon.FlexibleShare":  func(r *rand.Rand, _ *Spec) any { return [...]float64{0, 0.3, 1}[r.Intn(3)] },
}

// oracleAxisValues are the values of the free-form axes, by axis key;
// an enumerated axis takes its base and its choices.
var oracleAxisValues = map[string][]string{
	"freq":  {"stock", "capped", "1.5GHz", "2.0GHz"},
	"grid":  {"200", "65", "20"},
	"sched": {"backfill", "fcfs", "backfill=8"},
	"wl":    {"base", "portable", "simd"},
	"nodes": {"16", "32", "48"},
	"mid":   {MidNone, "capped", "2.0GHz"},
}

// oracleInvariant names the spec fields that shape no simulation: a
// scenario's key must not move with them (DivergeDay only while the
// scenario does not diverge). Every Axes field is invariant too beyond
// the scenario's own values, which its run key carries.
var oracleInvariant = map[string]bool{"Name": true, "Mode": true, "MaxScenarios": true, "DivergeDay": true}

// oracleField is one drawable field of Spec.
type oracleField struct {
	path  string
	index []int // through Spec, for reflect.Value.FieldByIndex
	axis  bool  // an Axes field
	draw  func(r *rand.Rand, s *Spec) reflect.Value
}

// oracleFields walks Spec, CarbonSpec and Axes by reflection. It fails
// on a field the JSON encoding skips, on a kind it cannot draw and on
// an Axes field no axisTable entry reads.
func oracleFields(t testing.TB) []oracleField {
	var fields []oracleField
	var walk func(typ reflect.Type, prefix string, index []int)
	walk = func(typ reflect.Type, prefix string, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path, idx := prefix+f.Name, append(append([]int(nil), index...), i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				t.Fatalf("spec field %s is skipped by encoding/json", path)
			}
			ft := f.Type
			var draw func(r *rand.Rand, s *Spec) reflect.Value
			switch d := oracleDraws[path]; {
			case ft == reflect.TypeOf(Axes{}):
				for j := 0; j < ft.NumField(); j++ {
					fields = append(fields, oracleAxisField(t, ft.Field(j), append(append([]int(nil), idx...), j)))
				}
				continue
			case d != nil:
				draw = func(r *rand.Rand, s *Spec) reflect.Value { return reflect.ValueOf(d(r, s)).Convert(ft) }
			case ft.Kind() == reflect.Struct:
				walk(ft, path+".", idx)
				continue
			case ft.Kind() >= reflect.Int && ft.Kind() <= reflect.Uint64:
				draw = func(r *rand.Rand, _ *Spec) reflect.Value { return reflect.ValueOf(r.Intn(4)).Convert(ft) }
			case ft.Kind() == reflect.Float64:
				draw = func(r *rand.Rand, _ *Spec) reflect.Value {
					return reflect.ValueOf(oracleFloats[r.Intn(len(oracleFloats))]).Convert(ft)
				}
			case ft.Kind() == reflect.Bool:
				draw = func(r *rand.Rand, _ *Spec) reflect.Value { return reflect.ValueOf(r.Intn(2) == 1).Convert(ft) }
			default:
				t.Fatalf("spec field %s: cannot draw a %s; give it an oracleDraws entry", path, ft)
			}
			fields = append(fields, oracleField{path: path, index: idx, draw: draw})
		}
	}
	walk(reflect.TypeOf(Spec{}), "", nil)
	return fields
}

// oracleAxisField is the draw of Axes field f: unswept three times in
// four, else one or two distinct values of the axis reading f.
func oracleAxisField(t testing.TB, f reflect.StructField, index []int) oracleField {
	path := "Axes." + f.Name
	if !f.IsExported() || f.Tag.Get("json") == "-" {
		t.Fatalf("spec field %s is skipped by encoding/json", path)
	}
	var probe Axes
	ptr := reflect.ValueOf(&probe).Elem().FieldByIndex(index[len(index)-1:]).Addr().Interface()
	var def *axisDef
	for i := range axisTable {
		if axisTable[i].values(&probe) == ptr {
			def = &axisTable[i]
		}
	}
	if def == nil {
		t.Fatalf("spec field %s: no axisTable entry reads it", path)
	}
	values, ok := oracleAxisValues[def.key]
	if def.parse == nil {
		values, ok = []string{def.base}, true
		for _, c := range def.choices {
			values = append(values, c.value)
		}
	}
	if !ok {
		t.Fatalf("spec field %s: free-form axis %q has no oracleAxisValues entry", path, def.key)
	}
	draw := func(r *rand.Rand, _ *Spec) reflect.Value {
		out := reflect.Zero(f.Type)
		if r.Intn(4) != 0 {
			return out
		}
		for _, i := range r.Perm(len(values))[:1+r.Intn(2)] {
			var v any = values[i]
			switch f.Type.Elem().Kind() {
			case reflect.Float64:
				v, _ = strconv.ParseFloat(values[i], 64)
			case reflect.Int:
				v, _ = strconv.Atoi(values[i])
			}
			out = reflect.Append(out, reflect.ValueOf(v))
		}
		return out
	}
	return oracleField{path: path, index: index, axis: true, draw: draw}
}

// oracleFits reports whether a drawn spec partitions into at most
// oracleMaxSims simulations.
func oracleFits(s Spec) bool {
	part, err := s.Partition()
	return err == nil && part.Simulations <= oracleMaxSims
}

// drawSpec draws a spec that fits, field by field.
func drawSpec(t testing.TB, r *rand.Rand, fields []oracleField) Spec {
	for try := 0; try < 1000; try++ {
		var s Spec
		for _, f := range fields {
			reflect.ValueOf(&s).Elem().FieldByIndex(f.index).Set(f.draw(r, &s))
		}
		if oracleFits(s) {
			return s
		}
	}
	t.Fatal("no fitting spec in 1000 draws")
	return Spec{}
}

// perturb redraws field f of base until the spec differs and fits.
func perturb(r *rand.Rand, base Spec, f oracleField) (Spec, bool) {
	for try := 0; try < 50; try++ {
		s := base // the draws replace Axes slices, never write through them
		reflect.ValueOf(&s).Elem().FieldByIndex(f.index).Set(f.draw(r, &s))
		if !reflect.DeepEqual(s, base) && oracleFits(s) {
			return s, true
		}
	}
	return Spec{}, false
}

// keyed is one simulation of a partition under its memo key.
type keyed struct {
	key  string
	part Partition
	sc   *Scenario
}

// memoKeyed returns the memo key of every scenario of spec, as Execute
// derives them.
func memoKeyed(t testing.TB, spec Spec) []keyed {
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	keys := newMemoKeys(part.spec)
	out := make([]keyed, len(part.scenarios))
	for i := range part.scenarios {
		out[i] = keyed{keys.key(&part.scenarios[i], part.RunKeys[i]), part, &part.scenarios[i]}
	}
	return out
}

// axisValues is a scenario's axis assignment, its position and name left
// out.
func axisValues(sc *Scenario) Scenario {
	v := *sc
	v.Index, v.Name = 0, ""
	return v
}

// oracleDigests runs simulations cold, once each, by the whole canonical
// spec and the scenario's axis values: an identity finer than any memo
// key. A simulation that fails reads as its error.
type oracleDigests map[string]string

func (d oracleDigests) of(t testing.TB, k keyed) string {
	spec := k.part.Spec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := fmt.Sprintf("%s|%+v", data, axisValues(k.sc))
	if digest, ok := d[id]; ok {
		return digest
	}
	cfg, _, err := k.sc.BuildConfig(spec)
	var res *core.Results
	if err == nil {
		res, err = core.RunConfigContext(context.Background(), cfg)
	}
	if d[id] = "error: "; err == nil {
		d[id] = res.Digest()
	} else {
		d[id] += err.Error()
	}
	return d[id]
}

// checkMemoKeys draws a spec from seed and redraws each of its fields in
// turn. Every pair of scenarios with equal keys must simulate to equal
// digests, and a scenario whose axis values are unchanged by a redraw of
// an invariant field or of an axis must keep its key.
func checkMemoKeys(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	fields := oracleFields(t)
	base := drawSpec(t, r, fields)
	baseKeyed := memoKeyed(t, base)
	byKey := map[string]keyed{}
	byValues := map[Scenario]keyed{}
	for _, k := range baseKeyed {
		byKey[k.key] = k
		byValues[axisValues(k.sc)] = k
	}
	digests := oracleDigests{}
	for _, f := range fields {
		other, ok := perturb(r, base, f)
		if !ok {
			continue
		}
		for _, k := range memoKeyed(t, other) {
			if b, ok := byKey[k.key]; ok && digests.of(t, b) != digests.of(t, k) {
				t.Errorf("seed %d, %s redrawn: key %s names two simulations:\n%+v %s\n%+v %s",
					seed, f.path, k.key, b.part.Spec(), b.sc.Name, k.part.Spec(), k.sc.Name)
			}
			invariant := f.axis || oracleInvariant[f.path] && !(f.path == "DivergeDay" && k.sc.midActive())
			if b, ok := byValues[axisValues(k.sc)]; ok && invariant && b.key != k.key {
				t.Errorf("seed %d, %s redrawn: scenario %s moved its key:\n%+v\n%+v",
					seed, f.path, k.sc.Name, b.part.Spec(), k.part.Spec())
			}
		}
	}
}

// oracleAnswer is everything a sweep answers: the results with their
// digests, and the three rendered tables.
func oracleAnswer(r *Runner, spec Spec) string {
	return answerText(r.Run(context.Background(), spec))
}

// answerText renders a sweep's answer, or its error: a sweep that fails
// must fail as it does on a fresh Runner.
func answerText(res *SweepResults, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	data, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	return string(data) + res.Table().String() + res.RegimeTable().String() + res.CarbonTable().String()
}

// oracleSequence draws n specs: each a new draw, a repeat of one of the
// last three, or one of those with one field, or its grid means,
// redrawn, so a warm Runner sees repeats, partial hits and new grid
// means on held simulations.
func oracleSequence(t testing.TB, r *rand.Rand, fields []oracleField, n int) []Spec {
	var grid oracleField
	for _, f := range fields {
		if f.path == "Axes.GridMean" {
			grid = f
		}
	}
	seq := []Spec{drawSpec(t, r, fields)}
	for len(seq) < n {
		prev := seq[len(seq)-1-r.Intn(min(3, len(seq)))]
		f := grid
		switch r.Intn(4) {
		case 0:
			seq = append(seq, drawSpec(t, r, fields))
			continue
		case 1:
			seq = append(seq, prev)
			continue
		case 2:
			f = fields[r.Intn(len(fields))]
		}
		if s, ok := perturb(r, prev, f); ok {
			seq = append(seq, s)
		}
	}
	return seq
}

// oracleCost is the memo cost of one small simulation held with one
// account, the unit of the oracle's byte budget.
func oracleCost(t testing.TB) int64 {
	probe := &Runner{Workers: 1, MemoBudgetBytes: -1}
	if _, err := probe.Run(context.Background(), Spec{Nodes: 40, Days: 3}); err != nil {
		t.Fatal(err)
	}
	return probe.CacheStats().Bytes
}

// warmRunner is a Runner whose memo holds a few small simulations.
func warmRunner(cost int64) *Runner {
	return &Runner{Workers: 2, MemoCap: 6, MemoBudgetBytes: 4 * cost}
}

// memoEvents counts what a sequence of sweeps made the memo do.
type memoEvents struct{ partial, grown int }

// checkWarmSequence runs seq on r, one sweep at a time, and compares
// every answer with a fresh Runner's (fresh caches them by spec).
func checkWarmSequence(t *testing.T, r *Runner, seq []Spec, fresh map[string]string) memoEvents {
	var ev memoEvents
	for i, spec := range seq {
		before := r.CacheStats()
		got := oracleAnswer(r, spec)
		after := r.CacheStats()
		part, _ := spec.Partition()
		if ran := after.Misses - before.Misses; ran > 0 && ran < part.Simulations {
			ev.partial++
		} else if ran == 0 && (after.Bytes > before.Bytes || after.Evictions > before.Evictions) {
			ev.grown++
		}
		key, _ := json.Marshal(spec)
		want, ok := fresh[string(key)]
		if !ok {
			want = oracleAnswer(&Runner{Workers: 2}, spec)
			fresh[string(key)] = want
		}
		if got != want {
			t.Fatalf("sweep %d (%+v) differs from a fresh Runner's:\n%s\nvs\n%s", i, spec, got, want)
		}
	}
	return ev
}

// FuzzMemoSoundness checks the memo keys of the spec its input seeds,
// and a short warm sequence from the same seed against fresh Runners.
func FuzzMemoSoundness(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	cost := oracleCost(f)
	f.Fuzz(func(t *testing.T, seed int64) {
		checkMemoKeys(t, seed)
		seq := oracleSequence(t, rand.New(rand.NewSource(seed)), oracleFields(t), 6)
		checkWarmSequence(t, warmRunner(cost), seq, map[string]string{})
	})
}

// TestMemoWarmEqualsFresh runs longer sequences through one small memo,
// which must evict, grow held accounts and hit partially along the way,
// then two sequences at once through another.
func TestMemoWarmEqualsFresh(t *testing.T) {
	cost, fields := oracleCost(t), oracleFields(t)
	fresh := map[string]string{}
	var ev memoEvents
	r := warmRunner(cost)
	for seed := int64(1); seed <= 3; seed++ {
		got := checkWarmSequence(t, r, oracleSequence(t, rand.New(rand.NewSource(seed)), fields, 16), fresh)
		ev.partial += got.partial
		ev.grown += got.grown
	}
	cs := r.CacheStats()
	t.Logf("%+v, %d partial hits, %d hits that grew accounts", cs, ev.partial, ev.grown)
	if cs.Evictions == 0 || ev.partial == 0 || ev.grown == 0 {
		t.Error("the sequences exercised too little")
	}

	shared := warmRunner(cost)
	seqs := [2][]Spec{}
	for i := range seqs {
		seqs[i] = oracleSequence(t, rand.New(rand.NewSource(int64(10+i))), fields, 12)
	}
	answers := [2][]string{}
	var wg sync.WaitGroup
	for i := range seqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, spec := range seqs[i] {
				answers[i] = append(answers[i], answerText(shared.Run(context.Background(), spec)))
			}
		}(i)
	}
	wg.Wait()
	for i, seq := range seqs {
		for j, spec := range seq {
			if want := oracleAnswer(&Runner{Workers: 2}, spec); answers[i][j] != want {
				t.Errorf("submitter %d, sweep %d (%+v) differs from a fresh Runner's", i, j, spec)
			}
		}
	}
}
