package roofline

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/units"
)

// specSettings enumerates every valid FreqSetting of a spec: each base
// P-state plus boost on the top one.
func specSettings(spec *cpu.Spec) []cpu.FreqSetting {
	var out []cpu.FreqSetting
	for _, p := range spec.PStates {
		out = append(out, cpu.FreqSetting{Base: p.Freq})
	}
	out = append(out, spec.DefaultSetting())
	return out
}

// parseTable loads CSV rows (header omitted) for one application through
// ParseTables, the loader programs use, and returns that one table.
func parseTable(rows string) (*Table, error) {
	tables, err := ParseTables([]byte(tableHeader + "\n" + rows))
	if err != nil {
		return nil, err
	}
	for _, tab := range tables {
		if len(tables) == 1 {
			return tab, nil
		}
	}
	return nil, fmt.Errorf("%d tables, want 1", len(tables))
}

// kernelSampledTable builds a Table by sampling a Kernel at every valid
// FreqSetting of the spec, in both determinism modes. Each frequency and
// multiplier is printed in its shortest round-trip form, so the loader
// reads back the exact sampled floats.
func kernelSampledTable(t *testing.T, name string, k Kernel, spec *cpu.Spec) *Table {
	t.Helper()
	var rows strings.Builder
	for _, m := range []Mode{PowerDeterminism, PerformanceDeterminism} {
		for _, fs := range specSettings(spec) {
			f := spec.EffectiveFrequency(fs)
			ghz := strconv.FormatFloat(f.Hertz()/1e9, 'g', -1, 64)
			if g, _ := strconv.ParseFloat(ghz, 64); units.Gigahertz(g) != f {
				t.Fatalf("%v does not round-trip through %s GHz", f, ghz)
			}
			mult := strconv.FormatFloat(k.TimeMultiplier(f, spec.BoostFreq), 'g', -1, 64)
			fmt.Fprintf(&rows, "%s,%v,%s,%s\n", name, m, ghz, mult)
		}
	}
	tab, err := parseTable(rows.String())
	if err != nil {
		t.Fatalf("ParseTables: %v", err)
	}
	return tab
}

// The tentpole property: a Table whose grid is exactly the kernel's
// response sampled at the machine's operating points is bit-identical to
// the scalar Kernel at every FreqSetting x Mode — so swapping the perf
// model implementation cannot perturb a simulation that only ever visits
// grid points.
func TestTableSampledFromKernelBitIdentical(t *testing.T) {
	spec := cpu.EPYC7742()
	for _, c := range []float64{0, 0.132, 0.188172, 0.55, 0.878378, 1} {
		k := Kernel{ComputeFraction: c}
		tab := kernelSampledTable(t, fmt.Sprintf("c=%g", c), k, spec)
		for _, m := range []Mode{PowerDeterminism, PerformanceDeterminism} {
			for _, fs := range specSettings(spec) {
				f := spec.EffectiveFrequency(fs)
				want := k.TimeMultiplier(f, spec.BoostFreq)
				got := tab.Multiplier(f, spec.BoostFreq, m)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("c=%g %v %v: table %v (bits %x) != kernel %v (bits %x)",
						c, m, fs, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// A single-point table is the degenerate grid: every lookup clamps to
// the one measured point, which must equal the kernel's value there.
func TestTableOnePointClamp(t *testing.T) {
	k := Kernel{ComputeFraction: 0} // only c=0 admits a one-point table (mult 1 at reference)
	fref := units.Gigahertz(2.8)
	tab, err := parseTable(fmt.Sprintf("one,power-determinism,2.8,%v\n", k.TimeMultiplier(fref, fref)))
	if err != nil {
		t.Fatalf("ParseTables: %v", err)
	}
	for _, f := range []units.Frequency{units.Gigahertz(1.5), units.Gigahertz(2.8), units.Gigahertz(3.1)} {
		if got := tab.Multiplier(f, fref, PerformanceDeterminism); got != 1 {
			t.Errorf("Multiplier(%v) = %v, want 1 (clamped to the single point)", f, got)
		}
	}
}

func TestTableInterpolatesBetweenPoints(t *testing.T) {
	tab, err := parseTable("interp,power-determinism,2.0,1.4\ninterp,power-determinism,2.8,1.0\n")
	if err != nil {
		t.Fatalf("ParseTables: %v", err)
	}
	got := tab.Multiplier(units.Gigahertz(2.4), units.Gigahertz(2.8), PowerDeterminism)
	if math.Abs(got-1.2) > 1e-12 {
		t.Errorf("midpoint multiplier = %v, want 1.2", got)
	}
	// Below and above the grid: clamped, not extrapolated.
	if got := tab.Multiplier(units.Gigahertz(1.0), units.Gigahertz(2.8), PowerDeterminism); got != 1.4 {
		t.Errorf("below-grid multiplier = %v, want clamp 1.4", got)
	}
	if got := tab.Multiplier(units.Gigahertz(3.5), units.Gigahertz(2.8), PowerDeterminism); got != 1.0 {
		t.Errorf("above-grid multiplier = %v, want clamp 1.0", got)
	}
}

// A mode with no measured points must fall back to the other mode's
// curve rather than panic.
func TestTableModeFallback(t *testing.T) {
	tab, err := parseTable("fallback,power-determinism,2.0,1.3\nfallback,power-determinism,2.8,1.0\n")
	if err != nil {
		t.Fatalf("ParseTables: %v", err)
	}
	want := tab.Multiplier(units.Gigahertz(2.0), units.Gigahertz(2.8), PowerDeterminism)
	got := tab.Multiplier(units.Gigahertz(2.0), units.Gigahertz(2.8), PerformanceDeterminism)
	if got != want {
		t.Errorf("fallback multiplier = %v, want %v", got, want)
	}
}

func TestTableValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		rows string
	}{
		{"non-ascending frequency", "A,power-determinism,2.8,1.2\nA,power-determinism,2.0,1.0\n"},
		{"multiplier below 1", "A,power-determinism,2.0,0.9\nA,power-determinism,2.8,1.0\n"},
		{"multiplier rising with frequency",
			"A,power-determinism,1.5,1.1\nA,power-determinism,2.0,1.2\nA,power-determinism,2.8,1.0\n"},
		{"reference multiplier not 1", "A,power-determinism,2.0,1.2\nA,power-determinism,2.8,1.1\n"},
	}
	for _, tc := range cases {
		if _, err := ParseTables([]byte(tableHeader + "\n" + tc.rows)); err == nil {
			t.Errorf("%s: ParseTables accepted invalid points", tc.name)
		}
	}
}

// An unachievable multiplier (at or beyond the fully-compute-bound bound
// fref/f) must surface the typed sentinel, so loaders can tell a
// physically impossible measurement from plain bad data.
func TestTableValidateUnachievableIsSentinel(t *testing.T) {
	// The bound at 2.0 GHz is 2.8/2.0 = 1.4.
	_, err := parseTable("A,power-determinism,2.0,1.5\nA,power-determinism,2.8,1.0\n")
	if !errors.Is(err, ErrRatioOutOfRange) {
		t.Fatalf("err = %v, want ErrRatioOutOfRange", err)
	}
}

func TestComputeFractionSentinelOnlyForRange(t *testing.T) {
	// Out of range: wraps the sentinel.
	if _, err := ComputeFractionFromPerfRatio(0.5, units.Gigahertz(2.0), units.Gigahertz(2.8)); !errors.Is(err, ErrRatioOutOfRange) {
		t.Errorf("out-of-range err = %v, want ErrRatioOutOfRange", err)
	}
	// Malformed input: a plain error, not the sentinel.
	if _, err := ComputeFractionFromPerfRatio(0.9, units.Gigahertz(2.8), units.Gigahertz(2.0)); err == nil || errors.Is(err, ErrRatioOutOfRange) {
		t.Errorf("inverted-frequency err = %v, want plain error", err)
	}
	if _, err := ComputeFractionFromPerfRatio(0.9, 0, units.Gigahertz(2.8)); err == nil || errors.Is(err, ErrRatioOutOfRange) {
		t.Errorf("zero-frequency err = %v, want plain error", err)
	}
}

// The embedded ARCHER2 grid must parse, cover the paper's Table 4
// applications and the fleet classes, and agree with the first-order
// kernels those measurements calibrate (round-trip within the CSV's
// printed precision).
func TestARCHER2TablesEmbedded(t *testing.T) {
	tables, err := ARCHER2Tables()
	if err != nil {
		t.Fatalf("ARCHER2Tables: %v", err)
	}
	table4 := map[string]float64{ // app -> paper perf ratio at 2.0 GHz
		"CASTEP Al Slab":       0.93,
		"CP2K H2O 2048":        0.91,
		"GROMACS 1400k":        0.83,
		"LAMMPS Ethanol":       0.74,
		"Nektar++ TGV 128 DoF": 0.80,
		"ONETEP hBN-BP-hBN":    0.92,
		"VASP CdTe":            0.95,
	}
	f20, fref := units.Gigahertz(2.0), units.Gigahertz(2.8)
	for name, perf := range table4 {
		tab, ok := tables[name]
		if !ok {
			t.Errorf("embedded grid missing Table 4 app %q", name)
			continue
		}
		c, err := ComputeFractionFromPerfRatio(perf, f20, fref)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k := Kernel{ComputeFraction: c}
		for _, m := range []Mode{PowerDeterminism, PerformanceDeterminism} {
			for _, f := range []units.Frequency{units.Gigahertz(1.5), f20, units.Gigahertz(2.25), fref} {
				got := tab.Multiplier(f, fref, m)
				want := k.TimeMultiplier(f, fref)
				if math.Abs(got-want) > 5e-6 {
					t.Errorf("%s %v @%v: table %v vs kernel %v", name, m, f, got, want)
				}
			}
		}
	}
	for _, class := range []string{"materials-dft", "climate-ocean", "biomolecular-md",
		"engineering-cfd", "mineral-physics", "seismology", "plasma-physics"} {
		if _, ok := tables[class]; !ok {
			t.Errorf("embedded grid missing fleet class %q", class)
		}
	}
}

// The lookup sits on the scheduler's job-start hot path and must not
// allocate (the bench gate pins allocs/op == 0; this is the direct
// check).
func TestTableLookupZeroAlloc(t *testing.T) {
	tables, err := ARCHER2Tables()
	if err != nil {
		t.Fatalf("ARCHER2Tables: %v", err)
	}
	tab := tables["LAMMPS Ethanol"]
	f, fref := units.Gigahertz(2.1), units.Gigahertz(2.8)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = tab.Multiplier(f, fref, PerformanceDeterminism)
	})
	if allocs != 0 {
		t.Fatalf("Table.Multiplier allocates %v per lookup, want 0", allocs)
	}
}

func TestParseTablesRejects(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"missing header", "LAMMPS,power-determinism,2.0,1.35\n"},
		{"wrong field count", tableHeader + "\nLAMMPS,power-determinism,2.0\n"},
		{"bad mode", tableHeader + "\nLAMMPS,turbo,2.0,1.35\n"},
		{"bad frequency", tableHeader + "\nLAMMPS,power-determinism,x,1.35\n"},
		{"bad multiplier", tableHeader + "\nLAMMPS,power-determinism,2.0,x\n"},
		{"empty app", tableHeader + "\n,power-determinism,2.0,1.35\n"},
		{"non-monotone", tableHeader + "\nA,power-determinism,2.8,1.0\nA,power-determinism,2.0,1.35\n"},
	}
	for _, tc := range cases {
		if _, err := ParseTables([]byte(tc.csv)); err == nil {
			t.Errorf("%s: ParseTables accepted malformed input", tc.name)
		}
	}
}

func TestParseTablesComments(t *testing.T) {
	csv := "# comment\n\n" + tableHeader + "\nA,power-determinism,2.0,1.2\nA,power-determinism,2.8,1.0\n"
	tables, err := ParseTables([]byte(csv))
	if err != nil {
		t.Fatalf("ParseTables: %v", err)
	}
	if len(tables) != 1 || tables["A"] == nil {
		t.Fatalf("tables = %v, want one entry A", tables)
	}
}

// FuzzParseTables drives the CSV loader with arbitrary input: it must
// never panic, and any table it accepts must satisfy the validated
// invariants (so accepted lookups are safe on the hot path).
func FuzzParseTables(f *testing.F) {
	f.Add([]byte(tableHeader + "\nA,power-determinism,2.0,1.2\nA,power-determinism,2.8,1.0\n"))
	f.Add([]byte(tableHeader + "\nA,performance-determinism,1.5,1.5\n"))
	f.Add([]byte("# comment only\n"))
	f.Add(archer2CSV)
	f.Fuzz(func(t *testing.T, data []byte) {
		tables, err := ParseTables(data)
		if err != nil {
			return
		}
		for name, tab := range tables {
			if err := tab.Validate(); err != nil {
				t.Fatalf("accepted table %q fails Validate: %v", name, err)
			}
			// Lookups across the band must stay finite and >= 1.
			for _, ghz := range []float64{0.5, 1.5, 2.0, 2.8, 4.0} {
				got := tab.Multiplier(units.Gigahertz(ghz), units.Gigahertz(2.8), PowerDeterminism)
				if math.IsNaN(got) || math.IsInf(got, 0) || got < 1 {
					t.Fatalf("table %q: multiplier %v at %v GHz", name, got, ghz)
				}
			}
		}
	})
}
