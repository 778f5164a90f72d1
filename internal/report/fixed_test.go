package report

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fixedEdgeCases are the values where a fixed-point formatter most
// easily parts from fmt: exact and near ties, carries into a new leading
// digit, signed zeros, subnormals, the integer path's bound (2^64) and
// non-finite values.
var fixedEdgeCases = []float64{
	0.125, 2.5, 2.675, 9.95, 99.95, 0.5, 1.5, 0.05, 0.15, 1.005, 1.045,
	999.9999999999999, 9.999999999999998, 99.99999999999999, 0.9999999999999999,
	999.95, 9999.5, 0.995, 1, 10, 100, -0.04, -0.05, -0.5, -2.5, -999.96,
	0, math.Copysign(0, -1), 5e-324, -5e-324, math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, 2.225073858507201e-308, // smallest normal, largest subnormal
	1e15, 999999999999999.9, 1e15 - 0.5, 1e21, -1e21, 1e22, 1e300,
	1 << 53, 1<<53 + 2, 1<<64 - 2048, 1 << 64, 0x1p-53, 0x1p-63, 0x1p-64, 0x1p-65,
	math.MaxFloat64, -math.MaxFloat64, 123456789012345.67, 12345678901234.567,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// checkFixed compares AppendFixed at precisions 0-4 (4 is past the
// integer path) and Pct with fmt.
func checkFixed(t *testing.T, v float64) {
	t.Helper()
	for prec := 0; prec <= 4; prec++ {
		if got, want := string(AppendFixed(nil, v, prec)), fmt.Sprintf("%.*f", prec, v); got != want {
			t.Fatalf("AppendFixed(%v (%#x), %d) = %q, fmt = %q", v, math.Float64bits(v), prec, got, want)
		}
	}
	if got, want := Pct(v), fmt.Sprintf("%+.1f%%", v*100); got != want {
		t.Fatalf("Pct(%v (%#x)) = %q, fmt = %q", v, math.Float64bits(v), got, want)
	}
}

func TestAppendFixedMatchesFmt(t *testing.T) {
	for _, v := range fixedEdgeCases {
		checkFixed(t, v)
		checkFixed(t, -v)
	}
	// Powers of ten and their neighbours: the carries into a new digit.
	for p := 1e-4; p <= 1e20; p *= 10 {
		for _, v := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))} {
			checkFixed(t, v)
		}
	}
	r := rand.New(rand.NewSource(1))
	n := 10000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		// Random magnitudes from 1e-6 to 1e21, either sign.
		v := math.Pow(10, r.Float64()*27-6)
		if r.Intn(2) == 0 {
			v = -v
		}
		checkFixed(t, v)
		// Random bit patterns: every exponent, subnormals, NaN payloads.
		checkFixed(t, math.Float64frombits(r.Uint64()))
		// Near-ties: m + 5*10^-(prec+1) for a random prec, and the
		// doubles on either side of the nearest double to it.
		prec := r.Intn(4)
		tie := (float64(r.Int63n(1e7)) + 0.5) / math.Pow(10, float64(prec))
		checkFixed(t, tie)
		checkFixed(t, math.Nextafter(tie, 0))
		checkFixed(t, math.Nextafter(tie, math.Inf(1)))
		// Values that carry into a new leading digit when rounded.
		under := math.Pow(10, float64(r.Intn(15))) - math.Pow(10, -float64(r.Intn(6)))*r.Float64()
		checkFixed(t, under)
	}
}

func TestDeltaFormatFallbackMatchesFmt(t *testing.T) {
	d := NewDeltaTable("", "k", DeltaColumn{Header: "v"})
	for _, v := range fixedEdgeCases {
		if got, want := d.format(0, v), fmt.Sprintf("%g", v); got != want {
			t.Errorf("format(%v) = %q, fmt %%g = %q", v, got, want)
		}
	}
}

func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedEdgeCases {
		f.Add(v)
	}
	f.Fuzz(checkFixed)
}
