package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at %d: %d vs %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agree %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	// Splitting must not advance the parent, so the parent's sequence is the
	// same whether or not children are split off.
	a := New(7)
	b := New(7)
	_ = b.Split("child-1")
	_ = b.Split("child-2")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split perturbed parent sequence at %d", i)
		}
	}
}

func TestSplitLabelsDistinct(t *testing.T) {
	r := New(7)
	c1 := r.Split("alpha")
	c2 := r.Split("beta")
	if c1.Uint64() == c2.Uint64() {
		t.Error("differently-labelled children start identically")
	}
	// Two same-label splits from an unadvanced parent give equal streams.
	x := New(7).Split("alpha")
	y := New(7).Split("alpha")
	for i := 0; i < 50; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatalf("same-label splits diverge at %d", i)
		}
	}
}

func TestSplitIndexed(t *testing.T) {
	r := New(9)
	a := r.SplitIndexed("job", 1)
	b := r.SplitIndexed("job", 2)
	if a.Uint64() == b.Uint64() {
		t.Error("indexed splits with different indices start identically")
	}
	x := New(9).SplitIndexed("job", 5)
	y := New(9).SplitIndexed("job", 5)
	for i := 0; i < 50; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatalf("same-index splits diverge at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(17)
	for i := 0; i < 5000; i++ {
		v := r.TruncNormal(1.0, 0.5, 0.8, 1.2)
		if v < 0.8 || v > 1.2 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(19)
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(0.5) // mean 2
	}
	mean := sum / float64(n)
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("exp mean = %v, want ~2", mean)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestCategorical(t *testing.T) {
	c := NewCategorical([]float64{1, 0, 3})
	r := New(31)
	counts := make([]int, 3)
	n := 40000
	for i := 0; i < n; i++ {
		counts[c.Draw(r)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[1])
	}
	frac0 := float64(counts[0]) / float64(n)
	if math.Abs(frac0-0.25) > 0.02 {
		t.Errorf("category 0 frequency = %v, want ~0.25", frac0)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"negative": {1, -1},
		"zero-sum": {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights did not panic", name)
				}
			}()
			NewCategorical(weights)
		}()
	}
}

// Property: any seed produces values in [0,1) and same seed reproduces.
func TestPropertySeedReproducibility(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			av := a.Float64()
			if av < 0 || av >= 1 {
				return false
			}
			if av != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: split streams with distinct labels are (statistically) distinct.
func TestPropertySplitDistinct(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		a := r.Split("a")
		b := r.Split("b")
		same := 0
		for i := 0; i < 8; i++ {
			if a.Uint64() == b.Uint64() {
				same++
			}
		}
		return same < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeed(t *testing.T) {
	// Deterministic: same (base, label) -> same seed.
	if DeriveSeed(42, "scenario/a") != DeriveSeed(42, "scenario/a") {
		t.Error("DeriveSeed not deterministic")
	}
	// Sensitive to both base and label.
	if DeriveSeed(42, "a") == DeriveSeed(43, "a") {
		t.Error("DeriveSeed insensitive to base seed")
	}
	if DeriveSeed(42, "a") == DeriveSeed(42, "b") {
		t.Error("DeriveSeed insensitive to label")
	}
	// Streams built from derived seeds are decorrelated.
	a := New(DeriveSeed(42, "x"))
	b := New(DeriveSeed(42, "y"))
	same := 0
	for i := 0; i < 16; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same == 16 {
		t.Error("derived-seed streams identical")
	}
}
