package forecast

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/grid"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/timeseries"
)

var t0 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// gbTrace generates a week of GB2022 intensity at 30-minute steps.
func gbTrace(t *testing.T) *timeseries.Series {
	t.Helper()
	tr, err := grid.GB2022().Trace(t0, t0.AddDate(0, 0, 7), 30*time.Minute, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The core property the scheduling property test builds on: a zero
// ErrorModel returns exactly the true trace value at every horizon.
func TestZeroErrorEqualsTruth(t *testing.T) {
	tr := gbTrace(t)
	f, err := New(tr, ErrorModel{})
	if err != nil {
		t.Fatal(err)
	}
	issue := t0.Add(6 * time.Hour)
	for h := time.Duration(0); h <= 48*time.Hour; h += 90 * time.Minute {
		target := issue.Add(h)
		want, _ := tr.ValueAt(target)
		got, ok := f.At(issue, target)
		if !ok || got.GramsPerKWh() != want {
			t.Fatalf("zero-error forecast at horizon %v: got %v want %v (ok=%v)", h, got, want, ok)
		}
	}
}

// A forecast query must be a pure function of (issue, target): asking in
// any order, or interleaving unrelated queries, never changes an answer.
func TestQueryOrderIndependence(t *testing.T) {
	tr := gbTrace(t)
	em := ErrorModel{Sigma0: 5, GrowthPerSqrtHour: 10, Seed: 9}
	a, _ := New(tr, em)
	b, _ := New(tr, em)
	issue := t0.Add(12 * time.Hour)
	targets := []time.Duration{36 * time.Hour, time.Hour, 12 * time.Hour, 36 * time.Hour}

	var first []float64
	for _, h := range targets {
		v, _ := a.At(issue, issue.Add(h))
		first = append(first, v.GramsPerKWh())
	}
	// Same queries, reversed, with noise queries interleaved.
	for i := len(targets) - 1; i >= 0; i-- {
		_, _ = b.At(issue.Add(7*time.Hour), issue.Add(100*time.Hour))
		v, _ := b.At(issue, issue.Add(targets[i]))
		if v.GramsPerKWh() != first[i] {
			t.Fatalf("query order changed forecast %d: %v vs %v", i, v.GramsPerKWh(), first[i])
		}
	}
	if first[0] != first[3] {
		t.Fatalf("identical queries disagreed: %v vs %v", first[0], first[3])
	}
}

// Error must grow with horizon per the model: RMS error near the nowcast
// is smaller than at two days out.
func TestErrorGrowsWithHorizon(t *testing.T) {
	tr := gbTrace(t)
	f, _ := New(tr, ErrorModel{Sigma0: 2, GrowthPerSqrtHour: 12, Seed: 3})
	rms := func(h time.Duration) float64 {
		var sum float64
		n := 0
		for issue := t0; issue.Before(t0.AddDate(0, 0, 4)); issue = issue.Add(time.Hour) {
			truth, _ := tr.ValueAt(issue.Add(h))
			got, ok := f.At(issue, issue.Add(h))
			if !ok {
				continue
			}
			d := got.GramsPerKWh() - truth
			sum += d * d
			n++
		}
		return math.Sqrt(sum / float64(n))
	}
	short, long := rms(time.Hour), rms(48*time.Hour)
	if short >= long {
		t.Errorf("error did not grow with horizon: rms(1h)=%.2f rms(48h)=%.2f", short, long)
	}
	// Sanity on the calibration: rms(48h) should be near 2+12*sqrt(48)~85.
	if long < 40 || long > 170 {
		t.Errorf("48h rms error %.2f wildly off the configured sigma", long)
	}
}

// Hindcasts (target at or before issue) return the truth even with a
// noisy model: the past is observed, not forecast.
func TestHindcastIsTruth(t *testing.T) {
	tr := gbTrace(t)
	f, _ := New(tr, ErrorModel{Sigma0: 50, Bias: 30, Seed: 4})
	issue := t0.Add(24 * time.Hour)
	for _, h := range []time.Duration{0, -time.Hour, -13 * time.Hour} {
		truth, _ := tr.ValueAt(issue.Add(h))
		got, ok := f.At(issue, issue.Add(h))
		if !ok || got.GramsPerKWh() != truth {
			t.Errorf("hindcast at %v: got %v want %v", h, got, truth)
		}
	}
}

// BestStart must find an intensity trough: on a synthetic trace with a
// known minimum, the chosen start hits it exactly.
func TestBestStartFindsTrough(t *testing.T) {
	s := timeseries.New("ci", "gCO2/kWh", 30*time.Minute, 0)
	for i := 0; i < 48; i++ {
		v := 200.0
		if i >= 20 && i < 26 {
			v = 50 // a 3-hour trough starting at +10h
		}
		s.MustAppend(t0.Add(time.Duration(i)*30*time.Minute), v)
	}
	f, err := New(s, ErrorModel{})
	if err != nil {
		t.Fatal(err)
	}
	start, ci, ok := f.BestStart(t0, 20*time.Hour, 2*time.Hour)
	if !ok {
		t.Fatal("no best start found")
	}
	if want := t0.Add(10 * time.Hour); !start.Equal(want) {
		t.Errorf("best start %v, want %v", start, want)
	}
	if ci.GramsPerKWh() != 50 {
		t.Errorf("best mean CI %v, want 50", ci)
	}
	// Ties resolve earliest: a flat trace starts immediately.
	flat := timeseries.New("ci", "gCO2/kWh", 30*time.Minute, 0)
	for i := 0; i < 48; i++ {
		flat.MustAppend(t0.Add(time.Duration(i)*30*time.Minute), 100)
	}
	pf, _ := New(flat, ErrorModel{})
	start, _, _ = pf.BestStart(t0.Add(time.Hour), 12*time.Hour, time.Hour)
	if !start.Equal(t0.Add(time.Hour)) {
		t.Errorf("flat trace did not resolve tie to earliest start: %v", start)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(timeseries.New("ci", "g", time.Hour, 0), ErrorModel{}); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := New(gbTrace(t), ErrorModel{Sigma0: -1}); err == nil {
		t.Error("negative sigma accepted")
	}
	if !(ErrorModel{Seed: 5}).IsPerfect() {
		t.Error("seed-only model not perfect")
	}
	if (ErrorModel{Bias: 1}).IsPerfect() {
		t.Error("biased model reported perfect")
	}
}
