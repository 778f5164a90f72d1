package roofline

import (
	_ "embed"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/greenhpc/archertwin/internal/units"
)

// Table is the measured-operating-point PerfModel: per determinism mode,
// a grid of (frequency, runtime multiplier) points normalised to the
// grid's highest frequency (the reference operating point, multiplier
// 1.0). Lookups linearly interpolate between grid points and clamp
// outside the measured band; an exact grid hit returns the stored value
// bit-for-bit, which is what makes a table sampled from a Kernel
// indistinguishable from the kernel at the sampled points. The lookup is
// allocation-free — it sits on the scheduler's job-start hot path
// (BenchmarkTableLookup gates this).
//
// This is the inference-sim MFU approach applied to HPC codes: offline
// benchmark sweeps produce a CSV of measured multipliers, the loader
// validates them against the first-order model's achievable band, and
// the simulation interpolates in between.
type Table struct {
	name   string
	curves [2]curve // indexed by Mode ordinal
}

// curve is one mode's measured grid: freq (hertz) strictly ascending,
// mult the runtime multiplier at that frequency, non-increasing in
// frequency with the top point exactly 1.0.
type curve struct {
	freq []float64
	mult []float64
}

// Name returns the application name the table was measured for.
func (t *Table) Name() string { return t.name }

// Validate checks the table invariants: a name, at least one measured
// point, and per mode a strictly ascending positive frequency axis with
// multipliers that are >= 1 at reduced frequency, non-increasing in
// frequency, and exactly 1.0 at the reference (top) point. Every
// reduced-frequency point must also round-trip through
// ComputeFractionFromPerfRatio — a multiplier at or beyond the
// fully-compute-bound bound fref/f is unachievable under the first-order
// model and rejected as a measurement inconsistency.
func (t *Table) Validate() error {
	if t.name == "" {
		return fmt.Errorf("roofline: unnamed table")
	}
	total := 0
	for m := range t.curves {
		c := &t.curves[m]
		n := len(c.freq)
		total += n
		if n == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			if c.freq[i] <= 0 || math.IsInf(c.freq[i], 0) || math.IsNaN(c.freq[i]) {
				return fmt.Errorf("roofline: table %s %v: bad frequency %v", t.name, Mode(m), c.freq[i])
			}
			if math.IsNaN(c.mult[i]) || math.IsInf(c.mult[i], 0) {
				return fmt.Errorf("roofline: table %s %v: non-finite multiplier at point %d", t.name, Mode(m), i)
			}
			if i > 0 && c.freq[i] <= c.freq[i-1] {
				return fmt.Errorf("roofline: table %s %v: frequency axis not strictly ascending at point %d", t.name, Mode(m), i)
			}
			if c.mult[i] < 1 {
				return fmt.Errorf("roofline: table %s %v: multiplier %v below 1 at %s", t.name, Mode(m), c.mult[i], units.Hertz(c.freq[i]))
			}
			if i > 0 && c.mult[i] > c.mult[i-1] {
				return fmt.Errorf("roofline: table %s %v: multiplier rises with frequency at point %d", t.name, Mode(m), i)
			}
		}
		if c.mult[n-1] != 1 {
			return fmt.Errorf("roofline: table %s %v: reference point multiplier %v != 1", t.name, Mode(m), c.mult[n-1])
		}
		fref := units.Hertz(c.freq[n-1])
		for i := 0; i < n-1; i++ {
			r := 1 / c.mult[i]
			if _, err := ComputeFractionFromPerfRatio(r, units.Hertz(c.freq[i]), fref); err != nil {
				// ComputeFractionFromPerfRatio's invertible band is open at
				// f/fref, but a multiplier of exactly fref/f is the
				// fully-compute-bound response (c = 1) and a legitimate
				// measurement; accept the closed boundary to float
				// precision.
				lo := c.freq[i] / c.freq[n-1]
				if errors.Is(err, ErrRatioOutOfRange) && r <= lo && r >= lo*(1-1e-9) {
					continue
				}
				return fmt.Errorf("roofline: table %s %v: point %d does not round-trip: %w", t.name, Mode(m), i, err)
			}
		}
	}
	if total == 0 {
		return fmt.Errorf("roofline: table %s has no measured points", t.name)
	}
	return nil
}

// Multiplier implements PerfModel by clamped linear interpolation on the
// mode's measured grid. A mode with no measured points falls back to the
// other mode's curve (the frequency-response shape is mode-invariant to
// first order; the uniform per-mode perf factor is applied outside the
// frequency model, exactly as for Kernel). Panics on non-positive
// frequencies, matching Kernel.TimeMultiplier. The reference frequency
// argument is ignored: the grid is already normalised to its own
// measured reference point.
func (t *Table) Multiplier(f, fref units.Frequency, m Mode) float64 {
	if f.Hertz() <= 0 || fref.Hertz() <= 0 {
		panic("roofline: non-positive frequency")
	}
	ci := PowerDeterminism
	if m == PerformanceDeterminism {
		ci = PerformanceDeterminism
	}
	c := &t.curves[ci]
	if len(c.freq) == 0 {
		c = &t.curves[1-ci]
	}
	hz := f.Hertz()
	n := len(c.freq)
	if hz <= c.freq[0] {
		return c.mult[0]
	}
	if hz >= c.freq[n-1] {
		return c.mult[n-1]
	}
	for i := 1; i < n; i++ {
		if hz == c.freq[i] {
			return c.mult[i]
		}
		if hz < c.freq[i] {
			w := (hz - c.freq[i-1]) / (c.freq[i] - c.freq[i-1])
			return c.mult[i-1] + w*(c.mult[i]-c.mult[i-1])
		}
	}
	return c.mult[n-1]
}

// tableHeader is the mandatory first non-comment CSV line.
const tableHeader = "app,mode,freq_ghz,multiplier"

// maxTableRows bounds loader input (a parse guard, far above any real
// measurement campaign).
const maxTableRows = 10000

// ParseTables parses an operating-point CSV into per-application tables.
// The format is one measured point per line,
//
//	app,mode,freq_ghz,multiplier
//
// with '#' comment lines and blank lines ignored, mode one of
// power-determinism / performance-determinism, and rows for each
// (app, mode) in ascending frequency order. Every resulting table is
// validated (Table.Validate), so a malformed file reports exactly which
// measured point is bad — and errors.Is(err, ErrRatioOutOfRange)
// distinguishes a physically unachievable measurement from plain bad
// data.
func ParseTables(data []byte) (map[string]*Table, error) {
	tables := make(map[string]*Table)
	sawHeader := false
	rows := 0
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sawHeader {
			if line != tableHeader {
				return nil, fmt.Errorf("roofline: tables line %d: expected header %q, got %q", ln+1, tableHeader, line)
			}
			sawHeader = true
			continue
		}
		rows++
		if rows > maxTableRows {
			return nil, fmt.Errorf("roofline: tables: more than %d rows", maxTableRows)
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("roofline: tables line %d: want 4 fields, got %d", ln+1, len(fields))
		}
		name := strings.TrimSpace(fields[0])
		if name == "" {
			return nil, fmt.Errorf("roofline: tables line %d: empty app name", ln+1)
		}
		mode, err := ParseMode(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("roofline: tables line %d: %w", ln+1, err)
		}
		ghz, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("roofline: tables line %d: bad frequency: %v", ln+1, err)
		}
		mult, err := strconv.ParseFloat(strings.TrimSpace(fields[3]), 64)
		if err != nil {
			return nil, fmt.Errorf("roofline: tables line %d: bad multiplier: %v", ln+1, err)
		}
		t := tables[name]
		if t == nil {
			t = &Table{name: name}
			tables[name] = t
		}
		c := &t.curves[mode]
		c.freq = append(c.freq, units.Gigahertz(ghz).Hertz())
		c.mult = append(c.mult, mult)
	}
	if !sawHeader {
		return nil, fmt.Errorf("roofline: tables: empty input (missing %q header)", tableHeader)
	}
	for _, t := range tables {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

//go:embed tables/archer2.csv
var archer2CSV []byte

// ARCHER2Tables parses the embedded ARCHER2 operating-point grid: the
// paper's Table 4 applications plus the seven fleet workload classes,
// measured at the EPYC 7742 p-states (1.5, 2.0, 2.25 GHz) and the 2.8
// GHz boost reference, in both determinism modes. Each call returns a
// fresh map, so callers may attach and mutate tables freely.
func ARCHER2Tables() (map[string]*Table, error) {
	return ParseTables(archer2CSV)
}
