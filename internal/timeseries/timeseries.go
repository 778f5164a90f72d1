// Package timeseries implements the time-series container used by the
// facility telemetry pipeline: append-only fixed-cadence samples with
// window means, step-change detection and export helpers.
//
// Every series the twin produces is sampled on a fixed cadence — PMDB
// cabinet power and utilisation every 15 minutes, grid intensity and
// price traces — so a Series stores an epoch, a step and a contiguous
// []float64 block. Sample i's timestamp is implicit, epoch + i*step,
// which costs 8 bytes per sample instead of the 32 an explicit
// (time, value) pair takes.
//
// A Series keeps nothing per sample beyond the value: Mean and the window
// means are one in-order pass over the values when read, so the sum
// accumulates in sample order on every path — the determinism the golden
// digests pin.
//
// A series is the twin's equivalent of one PMDB cabinet-power trace: the
// paper's Figures 1-3 are window means over exactly such series, and the
// step-change detector recovers the dated operational changes from them.
package timeseries

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
	"unsafe"
)

// Sample is one (timestamp, value) observation.
type Sample struct {
	T time.Time
	V float64
}

// Series is a named, fixed-cadence sequence of values. Appends must land
// exactly on the cadence: the first Append pins the epoch, every later
// Append must carry timestamp epoch + Len()*step.
type Series struct {
	Name string
	Unit string

	step   time.Duration
	epoch  time.Time // timestamp of values[0]; meaningless until Len() > 0
	values []float64
}

// New creates an empty series sampled every step, pre-sized for
// `capacity` samples. Producers that know their horizon — a telemetry
// meter sampling until the run end, a grid trace over a fixed window —
// should size up front so a year of samples is one allocation instead of
// a doubling cascade. It panics on a non-positive step.
func New(name, unit string, step time.Duration, capacity int) *Series {
	if step <= 0 {
		panic("timeseries: non-positive step")
	}
	s := &Series{Name: name, Unit: unit, step: step}
	if capacity > 0 {
		s.values = make([]float64, 0, capacity)
	}
	return s
}

// FromValues returns a series that takes ownership of values, sample i
// at epoch + i*step: a producer on an exact clock writes its samples in
// place instead of appending them. It panics on a non-positive step.
func FromValues(name, unit string, epoch time.Time, step time.Duration, values []float64) *Series {
	s := New(name, unit, step, 0)
	s.epoch, s.values = epoch, values
	return s
}

// Step returns the sampling cadence.
func (s *Series) Step() time.Duration { return s.step }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.values) }

// Clone returns a deep copy of the series: its own value backing array,
// sharing no mutable state with the original.
// Checkpoints clone telemetry tails so a forked simulation can keep
// appending without disturbing the parent.
func (s *Series) Clone() *Series {
	c := &Series{Name: s.Name, Unit: s.Unit, step: s.step, epoch: s.epoch}
	if len(s.values) > 0 {
		c.values = make([]float64, len(s.values))
		copy(c.values, s.values)
	}
	return c
}

// timeAt returns the implicit timestamp of sample i.
func (s *Series) timeAt(i int) time.Time {
	return s.epoch.Add(time.Duration(i) * s.step)
}

// At returns sample i with its implicit timestamp.
func (s *Series) At(i int) Sample {
	return Sample{T: s.timeAt(i), V: s.values[i]}
}

// Value returns sample i's value, without building its timestamp.
func (s *Series) Value(i int) float64 { return s.values[i] }

// SameCadence reports whether o samples exactly where s does: the same
// step, the same length and, when non-empty, the same epoch, so sample i
// of each carries one timestamp.
func (s *Series) SameCadence(o *Series) bool {
	return s.step == o.step && len(s.values) == len(o.values) &&
		(len(s.values) == 0 || s.epoch.Equal(o.epoch))
}

// Append adds a sample. The first append pins the series epoch; every
// later append must land exactly on the cadence (epoch + Len()*step) or
// an error is returned.
func (s *Series) Append(t time.Time, v float64) error {
	if len(s.values) == 0 {
		s.epoch = t
	} else if expected := s.timeAt(len(s.values)); !t.Equal(expected) {
		return fmt.Errorf("timeseries %q: sample at %v off the %v cadence (expected %v)",
			s.Name, t, s.step, expected)
	}
	s.values = append(s.values, v)
	return nil
}

// MustAppend is Append for producers on an exact clock (the DES engine's
// Every ticks); it panics on an off-cadence timestamp.
func (s *Series) MustAppend(t time.Time, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// searchCeil returns the index of the first sample at or after t.
func (s *Series) searchCeil(t time.Time) int { return s.ceil(t.Sub(s.epoch)) }

// ceil returns the index of the first sample at or after offset d from
// the epoch, found arithmetically: every implicit timestamp is an integer
// multiple of step past the epoch. time.Time.Sub saturates at the largest
// time.Duration for bounds centuries away, so the ceiling is taken from
// the quotient and remainder rather than by adding step-1, which would
// overflow.
func (s *Series) ceil(d time.Duration) int {
	n := len(s.values)
	if n == 0 || d <= 0 {
		return 0
	}
	i := d / s.step
	if d%s.step != 0 {
		i++
	}
	if i > time.Duration(n) {
		return n
	}
	return int(i)
}

// ValueAt returns the sample-and-hold value in force at time t: the value
// of the latest sample with timestamp <= t. ok is false if t precedes the
// epoch.
func (s *Series) ValueAt(t time.Time) (float64, bool) {
	n := len(s.values)
	if n == 0 {
		return 0, false
	}
	d := t.Sub(s.epoch)
	if d < 0 {
		return 0, false
	}
	i := d / s.step
	if i >= time.Duration(n) {
		i = time.Duration(n - 1)
	}
	return s.values[i], true
}

// Slice returns an independent sub-series with from <= t < to, still on
// the cadence (a contiguous block of a fixed-cadence series is one too).
func (s *Series) Slice(from, to time.Time) *Series {
	lo, hi := s.searchCeil(from), s.searchCeil(to)
	out := &Series{Name: s.Name, Unit: s.Unit, step: s.step}
	if hi > lo {
		out.epoch = s.timeAt(lo)
		out.values = append(out.values, s.values[lo:hi]...)
	}
	return out
}

// Mean returns the arithmetic mean of all values, or 0 for an empty
// series: one pass summing in sample order.
func (s *Series) Mean() float64 { return meanRange(s.values, 0, len(s.values)) }

// MeanBetween returns the mean of samples with from <= t < to, summing
// the window's values in sample order (bit-identical to Slice + Mean)
// without materialising a sub-series.
func (s *Series) MeanBetween(from, to time.Time) float64 {
	return meanRange(s.values, s.searchCeil(from), s.searchCeil(to))
}

// CountBetween returns the number of samples with from <= t < to
// (0 for an inverted window).
func (s *Series) CountBetween(from, to time.Time) int {
	if n := s.searchCeil(to) - s.searchCeil(from); n > 0 {
		return n
	}
	return 0
}

// meanRange sums values[lo:hi] in index order and divides by the count,
// so window means are bit-identical to Slice-then-Mean without the copy.
func meanRange(values []float64, lo, hi int) float64 {
	if hi <= lo {
		return 0
	}
	sum := 0.0
	for _, v := range values[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// TimeWeightedMean integrates the series with a step-function (sample-and-
// hold) interpretation over [from, to) and divides by the duration. Samples
// outside the window bound the edge segments. It returns 0 when the window
// is empty or no sample precedes or lies within it.
func (s *Series) TimeWeightedMean(from, to time.Time) float64 {
	f := from.Sub(s.epoch)
	return s.timeWeightedMean(s.ceil(f), f, to.Sub(s.epoch), to.Sub(from))
}

// Span returns the length of the window between epoch offsets f and t as
// time.Time.Sub gives it for their bounds: t-f, or 0 if t <= f. Offsets
// from time.Time.Sub saturate at the largest or smallest Duration, and a
// span to a saturated offset saturates too: exact when that bound lies
// more than the largest Duration from the other, as bounds centuries away
// do.
func Span(f, t time.Duration) time.Duration {
	if t <= f {
		return 0
	}
	if d := t - f; d > 0 && t != math.MaxInt64 && f != math.MinInt64 {
		return d
	}
	return math.MaxInt64
}

// timeWeightedMean is the one sample-and-hold integrator behind
// Series.TimeWeightedMean and WindowAccumulator, in epoch offsets: the
// window [f, t) lasts span, and samples from index i (the first at or
// after f) bound the segments. Sample j sits at offset j*step, so the
// window's first segment runs i*step-f, every inner one a whole step, and
// the last t-(hi-1)*step — the same time.Duration values time.Time.Sub
// gives for the implicit timestamps, hence the same floats. A saturated t
// saturates the last segment (see Span).
func (s *Series) timeWeightedMean(i int, f, t, span time.Duration) float64 {
	n := len(s.values)
	if span <= 0 || n == 0 {
		return 0
	}
	hi := s.ceil(t) // first sample at or after t; i <= hi since f <= t
	var integral float64
	if i == hi {
		// No sample inside the window: the value held from before it
		// covers all of it, or nothing does.
		if i == 0 {
			return 0
		}
		integral += s.values[i-1] * span.Seconds()
		return integral / span.Seconds()
	}
	if i > 0 {
		integral += s.values[i-1] * (time.Duration(i)*s.step - f).Seconds()
	}
	step := s.step.Seconds()
	for j := i + 1; j < hi; j++ {
		integral += s.values[j-1] * step
	}
	integral += s.values[hi-1] * Span(time.Duration(hi-1)*s.step, t).Seconds()
	denom := span.Seconds()
	// If the first in-window sample started after `from` with no prior value,
	// only average over the covered portion.
	if f < 0 {
		denom = t.Seconds()
	}
	return integral / denom
}

// WindowAccumulator computes time-weighted window means over a series of
// consecutive (non-decreasing) windows in one forward pass: the cursor
// remembers where the previous window started, so sweeping M windows over
// an N-sample series is O(N+M) instead of M index searches plus rescans.
// Windows are epoch offsets (as time.Time.Sub gives them), so a caller
// converting its bounds once walks the series without time.Time
// arithmetic (emissions.AccountSeries); each call returns exactly what
// Series.TimeWeightedMean does for the same bounds, saturating as Span
// does. Successive windows must have non-decreasing f; the series must
// not be appended to while accumulating.
type WindowAccumulator struct {
	s *Series
	// lo is the index of the first sample at or after the previous
	// window's start (the search result the cursor replaces).
	lo int
}

// Accumulator returns a WindowAccumulator positioned at the series start.
func (s *Series) Accumulator() *WindowAccumulator {
	return &WindowAccumulator{s: s}
}

// TimeWeightedMean is Series.TimeWeightedMean for the next window in the
// sweep, the window running from epoch offset f to epoch offset t.
func (a *WindowAccumulator) TimeWeightedMean(f, t time.Duration) float64 {
	s := a.s
	// Advance the cursor to the first sample at or after f — the same
	// index ceil finds, reached monotonically.
	for a.lo < len(s.values) && time.Duration(a.lo)*s.step < f {
		a.lo++
	}
	return s.timeWeightedMean(a.lo, f, t, Span(f, t))
}

// StepChange describes a detected level shift in a series.
type StepChange struct {
	At          time.Time
	BeforeMean  float64
	AfterMean   float64
	RelativeChg float64
}

// DetectStep finds the split point that maximises the between-segment mean
// difference, comparing the window means either side. It is a deliberately
// simple estimator: the operational changes in the paper are large level
// shifts, not subtle trends. Returns ok=false when fewer than 2*minSeg
// samples exist or no shift exceeds threshold (relative).
func (s *Series) DetectStep(minSeg int, threshold float64) (StepChange, bool) {
	n := s.Len()
	if minSeg < 1 || n < 2*minSeg {
		return StepChange{}, false
	}
	// Prefix sums for O(n) scanning.
	prefix := make([]float64, n+1)
	for i, v := range s.values {
		prefix[i+1] = prefix[i] + v
	}
	best := StepChange{}
	bestAbs := 0.0
	found := false
	for k := minSeg; k <= n-minSeg; k++ {
		mb := prefix[k] / float64(k)
		ma := (prefix[n] - prefix[k]) / float64(n-k)
		if mb == 0 {
			continue
		}
		rel := (ma - mb) / mb
		if math.Abs(rel) > bestAbs && math.Abs(rel) >= threshold {
			bestAbs = math.Abs(rel)
			best = StepChange{
				At:          s.timeAt(k),
				BeforeMean:  mb,
				AfterMean:   ma,
				RelativeChg: rel,
			}
			found = true
		}
	}
	return best, found
}

// WriteCSV writes "time,value" rows with an optional header.
func (s *Series) WriteCSV(w io.Writer, header bool) error {
	if header {
		if _, err := fmt.Fprintf(w, "time,%s_%s\n", csvSafe(s.Name), csvSafe(s.Unit)); err != nil {
			return err
		}
	}
	for i, v := range s.values {
		if _, err := fmt.Fprintf(w, "%s,%.6g\n", s.timeAt(i).UTC().Format(time.RFC3339), v); err != nil {
			return err
		}
	}
	return nil
}

func csvSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ',', '\n', '\r':
			return '_'
		}
		return r
	}, s)
}

// RenderASCII draws the series as a rows x cols ASCII chart with a mean
// line, in the spirit of the paper's Figures 1-3. It returns "" for series
// with fewer than two samples.
func (s *Series) RenderASCII(rows, cols int) string {
	n := s.Len()
	if n < 2 || rows < 3 || cols < 8 {
		return ""
	}
	// Bucket samples into columns for the column means, finding the
	// range in the same pass.
	colSum := make([]float64, cols)
	colN := make([]int, cols)
	min, max := s.values[0], s.values[0]
	for i, v := range s.values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		c := i * cols / n
		colSum[c] += v
		colN[c]++
	}
	if max == min {
		max = min + 1
	}
	pad := (max - min) * 0.05
	min, max = min-pad, max+pad
	mean := s.Mean()

	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	rowOf := func(val float64) int {
		r := int((max - val) / (max - min) * float64(rows-1))
		if r < 0 {
			r = 0
		}
		if r >= rows {
			r = rows - 1
		}
		return r
	}
	meanRow := rowOf(mean)
	for c := 0; c < cols; c++ {
		if grid[meanRow][c] == ' ' {
			grid[meanRow][c] = '-'
		}
	}
	for c := 0; c < cols; c++ {
		if colN[c] == 0 {
			continue
		}
		grid[rowOf(colSum[c]/float64(colN[c]))][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]  (mean %.4g, - marks mean)\n", s.Name, s.Unit, mean)
	fmt.Fprintf(&b, "%10.4g |%s|\n", max, string(grid[0]))
	for r := 1; r < rows-1; r++ {
		fmt.Fprintf(&b, "%10s |%s|\n", "", string(grid[r]))
	}
	fmt.Fprintf(&b, "%10.4g |%s|\n", min, string(grid[rows-1]))
	return b.String()
}

// Clip shrinks the backing array to exactly the held values, releasing
// over-reserved capacity (a meter sized for a horizon the run did not
// reach). Used by core.Results.Compact before long-term retention.
func (s *Series) Clip() {
	if cap(s.values) > len(s.values) {
		clipped := make([]float64, len(s.values))
		copy(clipped, s.values)
		s.values = clipped
	}
}

// MemoryFootprint returns the series' retained bytes: struct header,
// label strings and the full backing capacity (capacity, not length —
// over-reservation is real memory).
func (s *Series) MemoryFootprint() int64 {
	return int64(unsafe.Sizeof(*s)) +
		int64(len(s.Name)) + int64(len(s.Unit)) +
		int64(cap(s.values))*8
}
