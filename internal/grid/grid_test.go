package grid

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"

	_ "time/tzdata" // Europe/London for the DST-crossing trace below
)

var t0 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

func TestGB2022TraceStatistics(t *testing.T) {
	m := GB2022()
	s, err := m.Trace(t0, t0.AddDate(1, 0, 0), time.Hour, rng.New(1).Split("grid"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 8760 {
		t.Fatalf("samples = %d, want 8760", s.Len())
	}
	// Annual mean near the GB 2022 figure.
	if mean := s.Mean(); math.Abs(mean-200) > 15 {
		t.Fatalf("annual mean = %v, want ~200", mean)
	}
	lo, hi := s.At(0).V, s.At(0).V
	for i := 1; i < s.Len(); i++ {
		lo, hi = math.Min(lo, s.At(i).V), math.Max(hi, s.At(i).V)
	}
	if lo < m.Min-1e-9 || hi > m.Max+1e-9 {
		t.Fatalf("trace escapes clamps: [%v, %v]", lo, hi)
	}
	// The grid must visit all three paper bands over a year.
	low, mid, high := 0, 0, 0
	for i, n := 0, s.Len(); i < n; i++ {
		switch BandOf(units.GramsPerKWh(s.At(i).V)) {
		case VeryLowCarbon:
			low++
		case ModerateCarbon:
			mid++
		default:
			high++
		}
	}
	if low == 0 || mid == 0 || high == 0 {
		t.Fatalf("bands not all visited: low=%d mid=%d high=%d", low, mid, high)
	}
	if high < low {
		t.Fatalf("2022 GB grid should be mostly high-carbon: low=%d high=%d", low, high)
	}
}

func TestSeasonalStructure(t *testing.T) {
	m := GB2022()
	m.NoiseSigma = 0 // isolate the deterministic components
	s, err := m.Trace(t0, t0.AddDate(1, 0, 0), time.Hour, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	jan := s.MeanBetween(t0, t0.AddDate(0, 1, 0))
	jun := s.MeanBetween(t0.AddDate(0, 5, 0), t0.AddDate(0, 6, 0))
	if jan <= jun {
		t.Fatalf("winter %v not above summer %v", jan, jun)
	}
}

func TestDiurnalStructure(t *testing.T) {
	m := GB2022()
	m.NoiseSigma = 0
	day := time.Date(2022, 6, 15, 0, 0, 0, 0, time.UTC)
	s, err := m.Trace(day, day.AddDate(0, 0, 1), 30*time.Minute, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	evening, _ := s.ValueAt(day.Add(18 * time.Hour))
	night, _ := s.ValueAt(day.Add(3 * time.Hour))
	if evening <= night {
		t.Fatalf("evening peak %v not above night trough %v", evening, night)
	}
}

func TestScaled(t *testing.T) {
	m := GB2022().Scaled(50)
	s, err := m.Trace(t0, t0.AddDate(1, 0, 0), time.Hour, rng.New(4).Split("grid"))
	if err != nil {
		t.Fatal(err)
	}
	if mean := s.Mean(); math.Abs(mean-50) > 5 {
		t.Fatalf("scaled mean = %v, want ~50", mean)
	}
	// Degenerate base returns unchanged.
	z := IntensityModel{}.Scaled(50)
	if z.Base != 0 {
		t.Fatal("zero-base Scaled changed Base")
	}
}

func TestTraceErrors(t *testing.T) {
	m := GB2022()
	if _, err := m.Trace(t0, t0, time.Hour, rng.New(1)); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := m.Trace(t0, t0.Add(time.Hour), 0, rng.New(1)); err == nil {
		t.Error("zero step accepted")
	}
	bad := m
	bad.Base = -1
	if _, err := bad.Trace(t0, t0.Add(time.Hour), time.Minute, rng.New(1)); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestTraceDeterminism(t *testing.T) {
	m := GB2022()
	a, err := m.Trace(t0, t0.AddDate(0, 0, 7), time.Hour, rng.New(5).Split("grid"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := m.Trace(t0, t0.AddDate(0, 0, 7), time.Hour, rng.New(5).Split("grid"))
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestMeanIntensity(t *testing.T) {
	m := GB2022()
	s, err := m.Trace(t0, t0.AddDate(0, 1, 0), time.Hour, rng.New(6).Split("grid"))
	if err != nil {
		t.Fatal(err)
	}
	ci := MeanIntensity(s)
	if ci.GramsPerKWh() <= 0 {
		t.Fatalf("mean intensity = %v", ci)
	}
}

func TestBandOf(t *testing.T) {
	cases := []struct {
		g    float64
		want IntensityBand
	}{
		{10, VeryLowCarbon}, {29.9, VeryLowCarbon}, {30, ModerateCarbon},
		{65, ModerateCarbon}, {100, ModerateCarbon}, {100.1, HighCarbon}, {250, HighCarbon},
	}
	for _, c := range cases {
		if got := BandOf(units.GramsPerKWh(c.g)); got != c.want {
			t.Errorf("BandOf(%v) = %v, want %v", c.g, got, c.want)
		}
	}
	for _, b := range []IntensityBand{VeryLowCarbon, ModerateCarbon, HighCarbon, IntensityBand(9)} {
		if b.String() == "" {
			t.Error("empty band string")
		}
	}
}

func TestStressEvents(t *testing.T) {
	from := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	events := StressEvents(from, to, 0.3, rng.New(7).Split("stress"))
	if len(events) == 0 {
		t.Fatal("no stress events in winter window")
	}
	for _, e := range events {
		if e.Duration() != 3*time.Hour {
			t.Fatalf("event duration = %v", e.Duration())
		}
		if e.Start.Hour() != 17 {
			t.Fatalf("event starts at %v", e.Start)
		}
		wd := e.Start.Weekday()
		if wd == time.Saturday || wd == time.Sunday {
			t.Fatal("weekend stress event")
		}
		m := e.Start.Month()
		if m != time.November && m != time.December && m != time.January && m != time.February {
			t.Fatalf("event in month %v", m)
		}
	}
	// Probability 0 -> none.
	if got := StressEvents(from, to, 0, rng.New(7)); len(got) != 0 {
		t.Fatalf("p=0 produced %d events", len(got))
	}
	// Summer window -> none.
	s0 := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	if got := StressEvents(s0, s0.AddDate(0, 2, 0), 1, rng.New(7)); len(got) != 0 {
		t.Fatalf("summer produced %d events", len(got))
	}
}

// Stress-event generation must be deterministic for a given stream and
// actually driven by the stream: same seed twice gives identical events,
// different seeds diverge somewhere over a winter.
func TestStressEventsDeterministic(t *testing.T) {
	from := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	a := StressEvents(from, to, 0.4, rng.New(7).Split("stress"))
	b := StressEvents(from, to, 0.4, rng.New(7).Split("stress"))
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := StressEvents(from, to, 0.4, rng.New(8).Split("stress"))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical event sets")
	}
}

// With p=1 every cold-season weekday whose full 17:00-20:00 slot lies in
// the window gets exactly one event, and every event lies inside
// [from, to) — the generator clamps at the window edges rather than
// emitting partial events.
func TestStressEventsCoverageAndBounds(t *testing.T) {
	from := time.Date(2022, 11, 7, 18, 0, 0, 0, time.UTC) // Monday, mid-event
	to := time.Date(2022, 11, 19, 0, 0, 0, 0, time.UTC)
	events := StressEvents(from, to, 1, rng.New(1))
	// Nov 7 is cut by `from` (start 17:00 precedes it); Nov 8-11 and
	// 14-18 are whole weekdays: 9 events.
	if len(events) != 9 {
		t.Fatalf("got %d events, want 9: %+v", len(events), events)
	}
	for _, e := range events {
		if e.Start.Before(from) || e.End.After(to) {
			t.Errorf("event [%v, %v] escapes window [%v, %v)", e.Start, e.End, from, to)
		}
		if !e.End.After(e.Start) {
			t.Errorf("empty event %+v", e)
		}
	}
	// Monotone in p on a shared stream draw count: a higher probability
	// can only add event days, never remove them (per-day independent
	// draws with identical sequences).
	lo := StressEvents(from, to, 0.2, rng.New(3))
	hi := StressEvents(from, to, 0.9, rng.New(3))
	if len(lo) > len(hi) {
		t.Errorf("p=0.2 gave %d events but p=0.9 gave %d", len(lo), len(hi))
	}
}

// refTrace is the one-model generator Traces replaced, kept as the
// reference it must match bit for bit: the deterministic level from the
// calendar of each timestamp, plus an OU wind term drawn with Normal.
func refTrace(m IntensityModel, from, to time.Time, step time.Duration, r *rng.Stream) *timeseries.Series {
	deterministic := func(t time.Time) float64 {
		yearFrac := float64(t.YearDay()-1) / 365
		seasonal := m.SeasonalAmp * math.Cos(2*math.Pi*(yearFrac-0.04))
		hour := float64(t.Hour()) + float64(t.Minute())/60
		diurnal := m.DiurnalAmp * math.Cos(2*math.Pi*(hour-18)/24)
		return m.Base + seasonal + diurnal
	}
	s := timeseries.New("carbon_intensity", "gCO2/kWh", step, int(to.Sub(from)/step)+1)
	a := math.Exp(-step.Seconds() / m.NoiseTau.Seconds())
	q := m.NoiseSigma * math.Sqrt(1-a*a)
	x := r.Normal(0, m.NoiseSigma)
	for t := from; t.Before(to); t = t.Add(step) {
		v := deterministic(t) + x
		if v < m.Min {
			v = m.Min
		}
		if v > m.Max {
			v = m.Max
		}
		s.MustAppend(t, v)
		x = x*a + q*r.Normal(0, 1)
	}
	return s
}

// Traces must reproduce, series for series, a per-model loop in which
// every model draws from its own copy of the stream: across seeds, at the
// 15-minute, settlement and hourly steps and at a 7m30s step that leaves
// seconds on the clock, over windows from a UTC and a DST-crossing
// Europe/London start, across 31 Dec of a leap year (day 366) and of a
// length that is not a whole number of steps, for models that differ in
// scale and in NoiseTau. refTrace evaluates the calendar per step, so this
// also pins the calendar tables.
func TestTracesMatchPerModelLoop(t *testing.T) {
	london, err := time.LoadLocation("Europe/London")
	if err != nil {
		t.Fatal(err)
	}
	gb := GB2022()
	slow := gb.Scaled(65)
	slow.NoiseTau = 3 * 24 * time.Hour
	fast := gb.Scaled(20)
	fast.NoiseTau = 90 * time.Minute
	models := []IntensityModel{gb, gb.Scaled(100), slow, fast, gb.Scaled(350)}
	for g := 10.0; len(models) < 10; g += 37 { // past the stack-held wind state
		models = append(models, gb.Scaled(g))
	}
	dst := time.Date(2022, 3, 24, 7, 45, 0, 0, london) // spans the March clock change
	leap := time.Date(2024, 12, 27, 13, 0, 0, 0, time.UTC)
	windows := [][2]time.Time{
		{t0, t0.AddDate(0, 0, 9)},
		{dst, dst.AddDate(0, 0, 9)},
		{leap, leap.AddDate(0, 0, 9)},
		{t0, t0.AddDate(0, 0, 9).Add(17 * time.Minute)},
	}
	for _, seed := range []uint64{1, 42, 1 << 40} {
		for _, step := range []time.Duration{15 * time.Minute, 30 * time.Minute, time.Hour, 7*time.Minute + 30*time.Second} {
			for _, w := range windows {
				from, to := w[0], w[1]
				got, err := Traces(models, from, to, step, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				for k, m := range models {
					want := refTrace(m, from, to, step, rng.New(seed))
					if got[k].Len() != want.Len() || !got[k].SameCadence(want) {
						t.Fatalf("seed %d step %v from %v model %d: %d samples, want %d on the same cadence",
							seed, step, from, k, got[k].Len(), want.Len())
					}
					for i := 0; i < want.Len(); i++ {
						if g, w := got[k].Value(i), want.Value(i); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("seed %d step %v from %v model %d sample %d: %v, per-model loop %v",
								seed, step, from, k, i, g, w)
						}
					}
					if one, err := m.Trace(from, to, step, rng.New(seed)); err != nil || math.Float64bits(one.Mean()) != math.Float64bits(want.Mean()) {
						t.Fatalf("seed %d step %v model %d: Trace mean %v (%v), per-model loop %v", seed, step, k, one.Mean(), err, want.Mean())
					}
				}
			}
		}
	}
}

// One invalid model fails the whole family.
func TestTracesRejectsInvalidModel(t *testing.T) {
	bad := GB2022()
	bad.NoiseTau = 0
	if _, err := Traces([]IntensityModel{GB2022(), bad}, t0, t0.AddDate(0, 0, 1), time.Hour, rng.New(1)); err == nil {
		t.Error("family with an invalid model generated")
	}
}
