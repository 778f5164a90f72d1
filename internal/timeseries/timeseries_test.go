package timeseries

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

// mkStep builds a series of vals sampled every step from t0.
func mkStep(step time.Duration, vals ...float64) *Series {
	s := New("power", "kW", step, len(vals))
	for i, v := range vals {
		s.MustAppend(t0.Add(time.Duration(i)*step), v)
	}
	return s
}

// mk builds an hourly series from t0.
func mk(vals ...float64) *Series { return mkStep(time.Hour, vals...) }

func TestAppendOrdering(t *testing.T) {
	s := New("x", "u", time.Hour, 0)
	if err := s.Append(t0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(t0.Add(time.Hour), 2); err != nil {
		t.Fatal(err)
	}
	// Out of order, and a repeated timestamp, both break the cadence.
	for _, bad := range []time.Time{t0.Add(-time.Second), t0.Add(time.Hour)} {
		if err := s.Append(bad, 3); err == nil {
			t.Fatalf("append at %v accepted", bad)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestMustAppendPanics(t *testing.T) {
	s := mk(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend out of order did not panic")
		}
	}()
	s.MustAppend(t0.Add(-time.Hour), 0)
}

func TestMeanAndSpan(t *testing.T) {
	s := mk(1, 2, 3, 4)
	if got := s.Mean(); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
	if from, to := s.At(0).T, s.At(s.Len()-1).T; !from.Equal(t0) || !to.Equal(t0.Add(3*time.Hour)) {
		t.Fatalf("span = %v %v", from, to)
	}
}

func TestSliceAndMeanBetween(t *testing.T) {
	s := mk(10, 20, 30, 40, 50)
	sl := s.Slice(t0.Add(time.Hour), t0.Add(3*time.Hour))
	if sl.Len() != 2 {
		t.Fatalf("slice len = %d", sl.Len())
	}
	if got := sl.Mean(); got != 25 {
		t.Fatalf("slice mean = %v", got)
	}
	if got := s.MeanBetween(t0.Add(3*time.Hour), t0.Add(100*time.Hour)); got != 45 {
		t.Fatalf("MeanBetween = %v", got)
	}
}

func TestValueAt(t *testing.T) {
	s := mkStep(15*time.Minute, 10, 20, 30)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 10}, {14 * time.Minute, 10}, {15 * time.Minute, 20}, {29 * time.Minute, 20}, {30 * time.Minute, 30},
	}
	for _, c := range cases {
		v, ok := s.ValueAt(t0.Add(c.at))
		if !ok || v != c.want {
			t.Errorf("ValueAt(+%v) = %v,%v want %v", c.at, v, ok, c.want)
		}
	}
}

func TestTimeWeightedMean(t *testing.T) {
	// 10 kW for 1h then 30 kW for 1h -> 20 kW average over the 2h window.
	s := mk(10, 30)
	got := s.TimeWeightedMean(t0, t0.Add(2*time.Hour))
	if got != 20 {
		t.Fatalf("time-weighted mean = %v, want 20", got)
	}
	// Asymmetric window: 10 for 0.5h, 30 for 1h over 1.5h -> (5+30)/1.5.
	got = s.TimeWeightedMean(t0.Add(30*time.Minute), t0.Add(2*time.Hour))
	want := (10*0.5 + 30*1.0) / 1.5
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("asymmetric TW mean = %v, want %v", got, want)
	}
	if got := New("e", "u", time.Hour, 0).TimeWeightedMean(t0, t0.Add(time.Hour)); got != 0 {
		t.Fatalf("empty TW mean = %v", got)
	}
	if got := s.TimeWeightedMean(t0, t0); got != 0 {
		t.Fatalf("zero-width TW mean = %v", got)
	}
}

func TestTimeWeightedMeanWindowBeforeData(t *testing.T) {
	s := mk(10, 30)
	// Window starting 1h before data: only covered portion averaged.
	got := s.TimeWeightedMean(t0.Add(-time.Hour), t0.Add(2*time.Hour))
	if got != 20 {
		t.Fatalf("partial-cover TW mean = %v, want 20", got)
	}
}

func TestDetectStep(t *testing.T) {
	// 3220 -> 3010 style step.
	s := New("p", "kW", time.Hour, 0)
	for i := 0; i < 50; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*time.Hour), 3220)
	}
	for i := 50; i < 100; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*time.Hour), 3010)
	}
	step, ok := s.DetectStep(10, 0.02)
	if !ok {
		t.Fatal("step not detected")
	}
	if math.Abs(step.BeforeMean-3220) > 1 || math.Abs(step.AfterMean-3010) > 1 {
		t.Fatalf("step means = %v -> %v", step.BeforeMean, step.AfterMean)
	}
	if math.Abs(step.RelativeChg+0.0652) > 0.005 {
		t.Fatalf("relative change = %v", step.RelativeChg)
	}
	if !step.At.Equal(t0.Add(50 * time.Hour)) {
		t.Fatalf("step at %v", step.At)
	}
}

func TestDetectStepNone(t *testing.T) {
	s := mk(100, 100, 100, 100, 100, 100, 100, 100)
	if _, ok := s.DetectStep(2, 0.01); ok {
		t.Fatal("step detected in flat series")
	}
	if _, ok := mk(1).DetectStep(2, 0.01); ok {
		t.Fatal("step detected in tiny series")
	}
}

func TestWriteCSV(t *testing.T) {
	s := mk(1.5, 2.5)
	var b strings.Builder
	if err := s.WriteCSV(&b, true); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "time,power_kW\n") {
		t.Fatalf("csv header missing: %q", out)
	}
	if !strings.Contains(out, "2021-12-01T00:00:00Z,1.5") ||
		!strings.Contains(out, "2021-12-01T01:00:00Z,2.5") {
		t.Fatalf("csv row missing: %q", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Fatalf("csv line count = %d", lines)
	}
}

func TestRenderASCII(t *testing.T) {
	s := New("p", "kW", time.Hour, 0)
	for i := 0; i < 200; i++ {
		v := 3220.0
		if i >= 100 {
			v = 2530
		}
		s.MustAppend(t0.Add(time.Duration(i)*time.Hour), v)
	}
	out := s.RenderASCII(10, 60)
	if out == "" {
		t.Fatal("empty render")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "kW") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if got := mk(1).RenderASCII(10, 60); got != "" {
		t.Fatal("render of single sample should be empty")
	}
}

// Property: Slice(from,to) contains exactly the samples in [from, to).
func TestPropertySliceBounds(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		s := New("x", "u", time.Minute, 0)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.MustAppend(t0.Add(time.Duration(i)*time.Minute), v)
		}
		lo, hi := int(a%64), int(b%64)
		if lo > hi {
			lo, hi = hi, lo
		}
		from, to := t0.Add(time.Duration(lo)*time.Minute), t0.Add(time.Duration(hi)*time.Minute)
		sl := s.Slice(from, to)
		for i := 0; i < sl.Len(); i++ {
			if smp := sl.At(i); smp.T.Before(from) || !smp.T.Before(to) {
				return false
			}
		}
		// Count check.
		want := 0
		for i := 0; i < s.Len(); i++ {
			if at := s.At(i).T; !at.Before(from) && at.Before(to) {
				want++
			}
		}
		return sl.Len() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: time-weighted mean lies within [min, max] of the involved values.
func TestPropertyTWMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := New("x", "u", time.Minute, 0)
		min, max := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				v = 0
			}
			s.MustAppend(t0.Add(time.Duration(i)*time.Minute), v)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		got := s.TimeWeightedMean(t0, t0.Add(time.Duration(len(raw))*time.Minute))
		return got >= min-1e-9 && got <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The windowed accumulator must be bit-identical to per-window
// TimeWeightedMean calls for any monotone window sweep, including windows
// before the first sample, beyond the last, and zero-width ones.
func TestWindowAccumulatorMatchesTimeWeightedMean(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := New("x", "u", 17*time.Minute, 0)
	for i := 0; i < 500; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*17*time.Minute), r.NormFloat64()*10)
	}
	last := s.At(s.Len() - 1).T

	acc := s.Accumulator()
	from := t0.Add(-3 * time.Hour)
	for from.Before(last.Add(3 * time.Hour)) {
		to := from.Add(time.Duration(r.Intn(5*3600)) * time.Second)
		want := s.TimeWeightedMean(from, to)
		got := acc.TimeWeightedMean(from.Sub(t0), to.Sub(t0))
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("window [%v, %v): accumulator %v != series %v", from, to, got, want)
		}
		from = to
	}
}

func TestRegularAppendCadence(t *testing.T) {
	s := New("x", "u", time.Hour, 0)
	if err := s.Append(t0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(t0.Add(time.Hour), 2); err != nil {
		t.Fatal(err)
	}
	// Off-cadence: early, late, duplicate.
	for _, bad := range []time.Duration{90 * time.Minute, 3 * time.Hour, time.Hour} {
		if err := s.Append(t0.Add(bad), 9); err == nil {
			t.Fatalf("off-cadence append at +%v accepted", bad)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if from, to := s.At(0).T, s.At(1).T; !from.Equal(t0) || !to.Equal(t0.Add(time.Hour)) {
		t.Fatalf("span = %v %v", from, to)
	}
}

func TestRegularMustAppendPanics(t *testing.T) {
	s := mk(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("off-cadence MustAppend did not panic")
		}
	}()
	s.MustAppend(t0.Add(30*time.Minute), 0)
}

func TestRegularValueAtEdges(t *testing.T) {
	s := mk(10, 20, 30)
	if _, ok := s.ValueAt(t0.Add(-time.Second)); ok {
		t.Fatal("value before epoch reported ok")
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 10}, {30 * time.Minute, 10}, {time.Hour, 20}, {5 * time.Hour, 30},
	}
	for _, c := range cases {
		v, ok := s.ValueAt(t0.Add(c.at))
		if !ok || v != c.want {
			t.Errorf("ValueAt(+%v) = %v,%v want %v", c.at, v, ok, c.want)
		}
	}
	// Far past the last sample the last value holds.
	if v, ok := s.ValueAt(t0.AddDate(300, 0, 0)); !ok || v != 30 {
		t.Errorf("ValueAt(+300y) = %v,%v want 30", v, ok)
	}
	if _, ok := New("e", "u", time.Hour, 0).ValueAt(t0); ok {
		t.Fatal("empty series reported a value")
	}
}

func TestRegularSliceStaysRegular(t *testing.T) {
	s := mk(10, 20, 30, 40, 50)
	sl := s.Slice(t0.Add(time.Hour), t0.Add(3*time.Hour))
	if sl.Len() != 2 {
		t.Fatalf("slice len = %d", sl.Len())
	}
	if sl.Step() != time.Hour {
		t.Fatalf("slice step = %v", sl.Step())
	}
	if from := sl.At(0).T; !from.Equal(t0.Add(time.Hour)) {
		t.Fatalf("slice epoch = %v", from)
	}
	if got := sl.Mean(); got != 25 {
		t.Fatalf("slice mean = %v", got)
	}
	if empty := s.Slice(t0.Add(10*time.Hour), t0.Add(20*time.Hour)); empty.Len() != 0 {
		t.Fatalf("out-of-range slice len = %d", empty.Len())
	}
}

func TestRegularCSVAndRender(t *testing.T) {
	s := New("cab,01", "k\nW", time.Hour, 0)
	for i := 0; i < 100; i++ {
		v := 3220.0
		if i >= 50 {
			v = 2530
		}
		s.MustAppend(t0.Add(time.Duration(i)*time.Hour), v)
	}
	var b strings.Builder
	if err := s.WriteCSV(&b, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "time,cab_01_k_W\n") ||
		!strings.Contains(b.String(), "2021-12-05T03:00:00Z,2530") {
		t.Fatalf("csv output wrong: %q", b.String()[:80])
	}
	if out := s.RenderASCII(10, 60); !strings.Contains(out, "*") {
		t.Fatalf("render missing marks:\n%s", out)
	}
	if step, ok := s.DetectStep(10, 0.05); !ok || !step.At.Equal(t0.Add(50*time.Hour)) {
		t.Fatalf("step = %+v ok=%v", step, ok)
	}
}

func TestRegularClipAndFootprint(t *testing.T) {
	s := New("x", "u", time.Hour, 1000)
	for i := 0; i < 10; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*time.Hour), float64(i))
	}
	before := s.MemoryFootprint()
	s.Clip()
	after := s.MemoryFootprint()
	if after >= before {
		t.Fatalf("Clip did not shrink footprint: %d -> %d", before, after)
	}
	if s.Len() != 10 || s.At(9).V != 9 {
		t.Fatal("Clip lost samples")
	}
	// A sample costs 8 bytes: timestamps are implicit.
	if got := before - after; got != 990*8 {
		t.Fatalf("Clip released %d bytes, want %d", got, 990*8)
	}
}

// refSeries is the reference model the property test checks Series
// against: explicit samples, linear-scan index searches and in-order sums.
type refSeries []Sample

// ceil returns the index of the first sample at or after t.
func (r refSeries) ceil(t time.Time) int {
	for i, smp := range r {
		if !smp.T.Before(t) {
			return i
		}
	}
	return len(r)
}

func (r refSeries) values(lo, hi int) []float64 {
	var out []float64
	for _, smp := range r[lo:max(lo, hi)] {
		out = append(out, smp.V)
	}
	return out
}

func (r refSeries) valueAt(t time.Time) (float64, bool) {
	i := 0
	for i < len(r) && !r[i].T.After(t) {
		i++
	}
	if i == 0 {
		return 0, false
	}
	return r[i-1].V, true
}

// mean sums xs in order and divides by the count: the sequential mean
// every Series mean must reproduce bit for bit.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func (r refSeries) meanBetween(from, to time.Time) float64 {
	return mean(r.values(r.ceil(from), r.ceil(to)))
}

func (r refSeries) countBetween(from, to time.Time) int {
	return max(0, r.ceil(to)-r.ceil(from))
}

// timeWeightedMean integrates sample-and-hold over [from, to), averaging
// over the covered portion when the window starts before the data.
func (r refSeries) timeWeightedMean(from, to time.Time) float64 {
	if !to.After(from) || len(r) == 0 {
		return 0
	}
	i := r.ceil(from)
	var integral, current float64
	cursor, have := from, i > 0
	if have {
		current = r[i-1].V
	}
	for ; i < len(r) && r[i].T.Before(to); i++ {
		if have {
			integral += current * r[i].T.Sub(cursor).Seconds()
		}
		cursor, current, have = r[i].T, r[i].V, true
	}
	if !have {
		return 0
	}
	integral += current * to.Sub(cursor).Seconds()
	denom := to.Sub(from).Seconds()
	if r[0].T.After(from) {
		if denom = to.Sub(r[0].T).Seconds(); denom <= 0 {
			return 0
		}
	}
	return integral / denom
}

// TestPropertySeriesMatchesReference is the reference-model property test:
// on random fixed-cadence data, Series must agree bit-exactly with the
// linear-scan refSeries on every read-API query — same indices found, same
// arithmetic performed — including windows whose bounds lie centuries
// from the epoch, where time.Time.Sub saturates.
func TestPropertySeriesMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	// bound draws a window bound: usually near the data, sometimes more
	// than 300 years before or after it.
	bound := func(span, step time.Duration) time.Time {
		switch rnd.Intn(10) {
		case 0:
			return t0.AddDate(-300-rnd.Intn(200), 0, 0)
		case 1:
			return t0.AddDate(300+rnd.Intn(200), 0, 0)
		}
		return t0.Add(time.Duration(rnd.Int63n(int64(span+4*step))) - 2*step)
	}
	for trial := 0; trial < 50; trial++ {
		step := time.Duration(1+rnd.Intn(120)) * time.Minute
		n := 2 + rnd.Intn(400)
		var ref refSeries
		s := New("x", "u", step, 0)
		for i := 0; i < n; i++ {
			at := t0.Add(time.Duration(i) * step)
			v := rnd.NormFloat64() * 1000
			ref = append(ref, Sample{T: at, V: v})
			s.MustAppend(at, v)
		}
		span := time.Duration(n) * step

		all := ref.values(0, n)
		if a, b := mean(all), s.Mean(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: Mean %v != %v", trial, b, a)
		}
		if a, b := mean(all), s.Clone().Mean(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: Clone().Mean %v != %v", trial, b, a)
		}

		acc := s.Accumulator()
		from := t0.Add(-time.Duration(rnd.Intn(3)) * step)
		for q := 0; q < 200; q++ {
			at := bound(span, step)
			va, oka := ref.valueAt(at)
			vb, okb := s.ValueAt(at)
			if oka != okb || math.Float64bits(va) != math.Float64bits(vb) {
				t.Fatalf("trial %d: ValueAt(%v) = (%v,%v) != (%v,%v)", trial, at, vb, okb, va, oka)
			}

			to := bound(span, step)
			if rnd.Intn(2) == 0 && !to.After(at) {
				at, to = to, at
			}
			if a, b := ref.meanBetween(at, to), s.MeanBetween(at, to); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d: MeanBetween(%v,%v) = %v != %v", trial, at, to, b, a)
			}
			if a, b := ref.countBetween(at, to), s.CountBetween(at, to); a != b {
				t.Fatalf("trial %d: CountBetween(%v,%v) = %d != %d", trial, at, to, b, a)
			}
			if a, b := ref.timeWeightedMean(at, to), s.TimeWeightedMean(at, to); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d: TimeWeightedMean(%v,%v) = %v != %v", trial, at, to, b, a)
			}
			sl := s.Slice(at, to)
			lo := ref.ceil(at)
			if sl.Len() != ref.countBetween(at, to) {
				t.Fatalf("trial %d: Slice(%v,%v) len %d != %d", trial, at, to, sl.Len(), ref.countBetween(at, to))
			}
			for i := 0; i < sl.Len(); i++ {
				if a, b := ref[lo+i], sl.At(i); !a.T.Equal(b.T) || math.Float64bits(a.V) != math.Float64bits(b.V) {
					t.Fatalf("trial %d: slice[%d] = %v != %v", trial, i, b, a)
				}
			}
			if a, b := ref.meanBetween(at, to), sl.Mean(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d: Slice(%v,%v).Mean = %v != %v", trial, at, to, b, a)
			}

			// Monotone window sweep through the accumulator.
			wTo := from.Add(time.Duration(rnd.Int63n(int64(3 * step))))
			if a, b := ref.timeWeightedMean(from, wTo), acc.TimeWeightedMean(from.Sub(t0), wTo.Sub(t0)); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d: accumulator window (%v,%v) = %v != %v", trial, from, wTo, b, a)
			}
			from = wTo
		}
	}
}

// Window bounds more than ~292 years past the epoch saturate
// time.Time.Sub at the largest time.Duration; the index search must clamp
// instead of overflowing to a negative index.
func TestFarWindowBounds(t *testing.T) {
	s := mkStep(15*time.Minute, 1, 2, 3, 4, 5, 6, 7, 8)
	far := t0.AddDate(300, 0, 0)
	if got := s.MeanBetween(t0, far); got != 4.5 {
		t.Errorf("MeanBetween(t0, +300y) = %v, want 4.5", got)
	}
	if got := s.CountBetween(t0, far); got != 8 {
		t.Errorf("CountBetween(t0, +300y) = %d, want 8", got)
	}
	if got := s.Slice(t0, far).Len(); got != 8 {
		t.Errorf("Slice(t0, +300y).Len() = %d, want 8", got)
	}
	if got := s.TimeWeightedMean(far, far.Add(time.Hour)); got != 8 {
		t.Errorf("TimeWeightedMean(+300y, +300y+1h) = %v, want 8", got)
	}
}

// Mean and MeanBetween must not allocate.
func TestMeanAllocFree(t *testing.T) {
	s := mkStep(time.Minute, make([]float64, 4096)...)
	if n := testing.AllocsPerRun(100, func() { _ = s.Mean() }); n != 0 {
		t.Errorf("Mean allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.MeanBetween(t0, t0.Add(time.Hour)) }); n != 0 {
		t.Errorf("MeanBetween allocates %v per call", n)
	}
}

// The append path must be allocation-free once capacity is reserved.
func TestRegularAppendAllocFree(t *testing.T) {
	s := New("x", "u", time.Second, 200)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		s.MustAppend(t0.Add(time.Duration(i)*time.Second), float64(i))
		i++
	}); n != 0 {
		t.Errorf("pre-sized append allocates %v per call", n)
	}
}

// Inverted windows (from after to) must degrade to empty results — never
// panic, never go negative.
func TestInvertedWindowsAreEmpty(t *testing.T) {
	s := mk(1, 2, 3, 4, 5)
	from, to := t0.Add(4*time.Hour), t0.Add(time.Hour) // inverted
	if got := s.Slice(from, to); got.Len() != 0 {
		t.Errorf("inverted Slice has %d samples", got.Len())
	}
	if got := s.CountBetween(from, to); got != 0 {
		t.Errorf("inverted CountBetween = %d", got)
	}
	if got := s.MeanBetween(from, to); got != 0 {
		t.Errorf("inverted MeanBetween = %v", got)
	}
	if got := s.TimeWeightedMean(from, to); got != 0 {
		t.Errorf("inverted TimeWeightedMean = %v", got)
	}
}

// timeIntegrator is the time.Time form of the sample-and-hold integrator,
// kept as the reference the integer-offset kernel must match bit for bit:
// it builds every sample's timestamp and measures each segment with
// time.Time.Sub. i is the index of the first sample at or after `from`.
func timeIntegrator(s *Series, i int, from, to time.Time) float64 {
	if !to.After(from) || s.Len() == 0 {
		return 0
	}
	n := s.Len()
	var integral float64
	cursor := from
	var current float64
	haveCurrent := false
	if i > 0 {
		current = s.values[i-1]
		haveCurrent = true
	}
	for ; i < n; i++ {
		at := s.timeAt(i)
		if !at.Before(to) {
			break
		}
		if haveCurrent {
			integral += current * at.Sub(cursor).Seconds()
		}
		cursor = at
		current = s.values[i]
		haveCurrent = true
	}
	if !haveCurrent {
		return 0
	}
	integral += current * to.Sub(cursor).Seconds()
	denom := to.Sub(from).Seconds()
	if s.epoch.After(from) {
		denom = to.Sub(s.epoch).Seconds()
		if denom <= 0 {
			return 0
		}
	}
	return integral / denom
}

// timeCursor is the time.Time form of the accumulator's cursor advance.
func timeCursor(s *Series, lo int, from time.Time) int {
	for lo < s.Len() && s.timeAt(lo).Before(from) {
		lo++
	}
	return lo
}

// TestIntegerKernelMatchesTimeIntegrator checks the integer-offset kernel
// on random series and windows of every kind: before the epoch,
// straddling it, inside, straddling or past the end, inverted, empty, and
// centuries away, where time.Time.Sub saturates. Series.TimeWeightedMean
// is checked against the time.Time integrator, and WindowAccumulator, fed
// the offsets of a monotone window sweep, against Series.TimeWeightedMean.
func TestIntegerKernelMatchesTimeIntegrator(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	for trial := 0; trial < 200; trial++ {
		step := time.Duration(1+rnd.Int63n(int64(3*time.Hour))) * time.Nanosecond
		if rnd.Intn(2) == 0 {
			step = time.Duration(1+rnd.Intn(120)) * time.Minute
		}
		n := 1 + rnd.Intn(300)
		s := New("x", "u", step, n)
		for i := 0; i < n; i++ {
			s.MustAppend(t0.Add(time.Duration(i)*step), rnd.NormFloat64()*1000)
		}
		span := time.Duration(n) * step
		// at draws one window bound in the region the case names.
		at := func(region int) time.Time {
			switch region {
			case 0: // before the epoch
				return t0.Add(-time.Duration(1 + rnd.Int63n(int64(3*step))))
			case 1: // inside the data
				return t0.Add(time.Duration(rnd.Int63n(int64(span))))
			case 2: // past the last sample
				return t0.Add(span + time.Duration(rnd.Int63n(int64(3*step))))
			case 3: // on a sample
				return s.timeAt(rnd.Intn(n))
			case 4: // centuries before
				return t0.AddDate(-300-rnd.Intn(200), 0, 0)
			default: // centuries after
				return t0.AddDate(300+rnd.Intn(200), 0, 0)
			}
		}
		for q := 0; q < 100; q++ {
			from, to := at(rnd.Intn(6)), at(rnd.Intn(6))
			want := timeIntegrator(s, s.searchCeil(from), from, to)
			if got := s.TimeWeightedMean(from, to); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %v n %d: TimeWeightedMean(%v, %v) = %v, time integrator %v",
					trial, step, n, from, to, got, want)
			}
		}

		// A monotone sweep of windows through the accumulator, with the
		// time.Time cursor beside it.
		acc := s.Accumulator()
		lo := 0
		from := at(rnd.Intn(2) * 4) // before the epoch, near or far
		for q := 0; q < 100; q++ {
			to := from.Add(time.Duration(rnd.Int63n(int64(4*step))) - step) // sometimes inverted
			switch rnd.Intn(20) {
			case 0:
				to = t0.AddDate(300, 0, 0)
			case 1, 2, 3, 4:
				to = s.timeAt(rnd.Intn(n)) // windows meeting on a sample
			}
			lo = timeCursor(s, lo, from)
			want := s.TimeWeightedMean(from, to)
			if got := acc.TimeWeightedMean(from.Sub(t0), to.Sub(t0)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %v n %d: accumulator window (%v, %v) = %v, Series.TimeWeightedMean %v",
					trial, step, n, from, to, got, want)
			}
			if acc.lo != lo {
				t.Fatalf("trial %d: accumulator cursor %d, time cursor %d at %v", trial, acc.lo, lo, from)
			}
			if to.After(from) && to.Before(t0.AddDate(200, 0, 0)) {
				from = to
			}
		}
	}
}
