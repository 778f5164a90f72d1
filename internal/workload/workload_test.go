package workload

import (
	"math"
	"testing"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/units"
)

func calibratedMix(t *testing.T) []apps.WeightedApp {
	t.Helper()
	s := cpu.EPYC7742()
	mix, _, err := apps.CalibrateMixToBusyPower(s, apps.FleetMix(),
		s.DefaultSetting(), cpu.PowerDeterminism, units.Watts(540))
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

func newGen(t *testing.T, seed uint64) *Generator {
	t.Helper()
	cfg, err := DefaultConfig(calibratedMix(t))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(cfg, rng.New(seed).Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CalibrateArrivalRate(5860, 1.1); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratorValidation(t *testing.T) {
	cfg, err := DefaultConfig(calibratedMix(t))
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.MaxJobNodes = 0
	if _, err := NewGenerator(bad, rng.New(1)); err == nil {
		t.Error("zero MaxJobNodes accepted")
	}
	bad = cfg
	bad.Mix = bad.Mix[:2]
	if _, err := NewGenerator(bad, rng.New(1)); err == nil {
		t.Error("mismatched mix accepted")
	}
	bad = cfg
	bad.MinRuntime = 0
	if _, err := NewGenerator(bad, rng.New(1)); err == nil {
		t.Error("zero MinRuntime accepted")
	}
	if _, err := DefaultConfig(calibratedMix(t)[:3]); err == nil {
		t.Error("short mix accepted by DefaultConfig")
	}
}

func TestJobShapesInBounds(t *testing.T) {
	g := newGen(t, 7)
	for i := 0; i < 5000; i++ {
		spec, gap := g.Next()
		if spec.Nodes < 1 || spec.Nodes > g.Config().MaxJobNodes {
			t.Fatalf("job %d: nodes = %d", spec.ID, spec.Nodes)
		}
		if spec.RefRuntime < g.Config().MinRuntime || spec.RefRuntime > g.Config().MaxRuntime {
			t.Fatalf("job %d: runtime = %v", spec.ID, spec.RefRuntime)
		}
		if gap < 0 {
			t.Fatalf("negative interarrival %v", gap)
		}
		if spec.App == nil || spec.Class == "" {
			t.Fatalf("job %d: missing app/class", spec.ID)
		}
	}
}

func TestJobIDsMonotone(t *testing.T) {
	g := newGen(t, 9)
	prev := 0
	for i := 0; i < 100; i++ {
		spec, _ := g.Next()
		if spec.ID <= prev {
			t.Fatalf("non-monotone job IDs: %d after %d", spec.ID, prev)
		}
		prev = spec.ID
	}
}

func TestClassSharesRespected(t *testing.T) {
	g := newGen(t, 11)
	counts := map[string]int{}
	n := 30000
	for i := 0; i < n; i++ {
		spec, _ := g.Next()
		counts[spec.Class]++
	}
	for i, cl := range g.Config().Classes {
		frac := float64(counts[cl.Name]) / float64(n)
		if math.Abs(frac-cl.Share) > 0.02 {
			t.Errorf("class %d %s: drawn %.3f, share %.3f", i, cl.Name, frac, cl.Share)
		}
	}
}

func TestCalibratedRateSaturates(t *testing.T) {
	g := newGen(t, 13)
	// Offered node-hours per hour must be ~1.1x the 5860-node capacity.
	mean := g.MeanJobNodeHours(50000)
	offered := g.Config().ArrivalRatePerHour * mean
	want := 5860 * 1.1
	if math.Abs(offered-want)/want > 0.05 {
		t.Fatalf("offered load = %v node-hours/h, want ~%v", offered, want)
	}
}

func TestArrivalGapsExponential(t *testing.T) {
	g := newGen(t, 17)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		_, gap := g.Next()
		sum += gap.Hours()
	}
	meanGap := sum / float64(n)
	wantGap := 1 / g.Config().ArrivalRatePerHour
	if math.Abs(meanGap-wantGap)/wantGap > 0.05 {
		t.Fatalf("mean interarrival = %v h, want %v h", meanGap, wantGap)
	}
}

func TestDeterministicStream(t *testing.T) {
	a, b := newGen(t, 21), newGen(t, 21)
	for i := 0; i < 200; i++ {
		sa, ga := a.Next()
		sb, gb := b.Next()
		// App pointers come from separately-built mixes; compare by value.
		if sa.ID != sb.ID || sa.Class != sb.Class || sa.Nodes != sb.Nodes ||
			sa.RefRuntime != sb.RefRuntime || sa.App.Name != sb.App.Name || ga != gb {
			t.Fatalf("generators diverge at job %d", i)
		}
	}
}

func TestNextPanicsWithoutRate(t *testing.T) {
	cfg, err := DefaultConfig(calibratedMix(t))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Next without rate did not panic")
		}
	}()
	g.Next()
}

func TestCalibrateArrivalRateErrors(t *testing.T) {
	g := newGen(t, 23)
	if err := g.CalibrateArrivalRate(0, 1.1); err == nil {
		t.Error("zero nodes accepted")
	}
	if err := g.CalibrateArrivalRate(100, 0); err == nil {
		t.Error("zero oversubscription accepted")
	}
}

// genWithPriorities builds a calibrated generator with the given priority
// mix and hash seed on top of the default config.
func genWithPriorities(t *testing.T, seed uint64, pcs []PriorityClass, prioSeed uint64) *Generator {
	t.Helper()
	cfg, err := DefaultConfig(calibratedMix(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Priorities = pcs
	cfg.PrioritySeed = prioSeed
	g, err := NewGenerator(cfg, rng.New(seed).Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CalibrateArrivalRate(5860, 1.1); err != nil {
		t.Fatal(err)
	}
	return g
}

var testPriorityMix = []PriorityClass{{Level: 0, Share: 0.6}, {Level: 2, Share: 0.3}, {Level: 5, Share: 0.1}}

// Adding priority classes must not perturb the arrival stream: the hash
// assignment is a pure function of (PrioritySeed, job ID), so a run with
// priorities produces the exact job sequence of a run without — same
// IDs, shapes, classes and interarrival gaps, only Priority differs.
func TestPriorityAssignmentStreamIndependent(t *testing.T) {
	plain := genWithPriorities(t, 31, nil, 77)
	prio := genWithPriorities(t, 31, testPriorityMix, 77)
	for i := 0; i < 5000; i++ {
		sa, ga := plain.Next()
		sb, gb := prio.Next()
		if sa.ID != sb.ID || sa.Class != sb.Class || sa.Nodes != sb.Nodes ||
			sa.RefRuntime != sb.RefRuntime || ga != gb {
			t.Fatalf("priority mix perturbed the job stream at job %d", i)
		}
		if sa.Priority != 0 {
			t.Fatalf("job %d: generator without priorities assigned level %d", sa.ID, sa.Priority)
		}
	}
}

// Priority levels are drawn from the declared classes with the declared
// shares, the assignment depends only on (PrioritySeed, ID) — not on the
// generator's arrival seed — and changing PrioritySeed reshuffles it.
func TestPriorityLevelSharesAndSeed(t *testing.T) {
	g := genWithPriorities(t, 31, testPriorityMix, 77)
	sameHash := genWithPriorities(t, 99, testPriorityMix, 77)  // different arrival seed
	otherHash := genWithPriorities(t, 31, testPriorityMix, 78) // different hash seed
	levels := map[int]bool{}
	for _, pc := range testPriorityMix {
		levels[pc.Level] = true
	}
	counts := map[int]int{}
	n, moved := 30000, 0
	for i := 0; i < n; i++ {
		sa, _ := g.Next()
		sb, _ := sameHash.Next()
		sc, _ := otherHash.Next()
		if !levels[sa.Priority] {
			t.Fatalf("job %d: priority %d not in the declared mix", sa.ID, sa.Priority)
		}
		if sa.Priority != sb.Priority {
			t.Fatalf("job %d: priority depends on the arrival seed (%d vs %d)", sa.ID, sa.Priority, sb.Priority)
		}
		if sa.Priority != sc.Priority {
			moved++
		}
		counts[sa.Priority]++
	}
	for _, pc := range testPriorityMix {
		frac := float64(counts[pc.Level]) / float64(n)
		if math.Abs(frac-pc.Share) > 0.02 {
			t.Errorf("level %d: drawn %.3f, share %.3f", pc.Level, frac, pc.Share)
		}
	}
	if moved == 0 {
		t.Error("changing PrioritySeed left every assignment unchanged")
	}
}

// Invalid priority mixes are rejected at construction.
func TestPriorityValidation(t *testing.T) {
	cfg, err := DefaultConfig(calibratedMix(t))
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Priorities = []PriorityClass{{Level: 0, Share: -0.5}}
	if _, err := NewGenerator(bad, rng.New(1)); err == nil {
		t.Error("negative priority share accepted")
	}
	bad = cfg
	bad.Priorities = []PriorityClass{{Level: 0, Share: 0}, {Level: 2, Share: 0}}
	if _, err := NewGenerator(bad, rng.New(1)); err == nil {
		t.Error("zero-sum priority shares accepted")
	}
}

// genWithPartitions builds a calibrated generator with the given partition
// shares and hash seed on top of the default config.
func genWithPartitions(t *testing.T, seed uint64, pss []PartitionShare, partSeed uint64) *Generator {
	t.Helper()
	cfg, err := DefaultConfig(calibratedMix(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Partitions = pss
	cfg.PartitionSeed = partSeed
	g, err := NewGenerator(cfg, rng.New(seed).Split("workload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CalibrateArrivalRate(5860, 1.1); err != nil {
		t.Fatal(err)
	}
	return g
}

var testPartitionMix = []PartitionShare{
	{Index: 0, Share: 0.9},
	{Index: 1, Share: 0.1, MaxJobNodes: 64},
}

// Routing jobs to partitions must not perturb the arrival stream: like
// priorities, the assignment is a pure hash of (PartitionSeed, job ID),
// so a heterogeneous run generates the exact job sequence of the
// homogeneous one — only Partition (and the partition node cap) differ.
func TestPartitionAssignmentStreamIndependent(t *testing.T) {
	plain := genWithPartitions(t, 31, nil, 55)
	part := genWithPartitions(t, 31, testPartitionMix, 55)
	routed := 0
	for i := 0; i < 5000; i++ {
		sa, ga := plain.Next()
		sb, gb := part.Next()
		if sa.ID != sb.ID || sa.Class != sb.Class || sa.RefRuntime != sb.RefRuntime || ga != gb {
			t.Fatalf("partition mix perturbed the job stream at job %d", i)
		}
		if sa.Partition != 0 {
			t.Fatalf("job %d: generator without partitions routed to %d", sa.ID, sa.Partition)
		}
		if sb.Partition == 1 {
			routed++
			if sb.Nodes > 64 {
				t.Fatalf("job %d: partition cap ignored (%d nodes)", sb.ID, sb.Nodes)
			}
		} else if sa.Nodes != sb.Nodes {
			t.Fatalf("job %d: primary-partition job resized (%d vs %d)", sa.ID, sa.Nodes, sb.Nodes)
		}
	}
	if routed == 0 {
		t.Error("no jobs routed to the extra partition")
	}
}

// Partition routing depends only on (PartitionSeed, ID) — not on the
// arrival seed — and follows the declared shares.
func TestPartitionSharesAndSeed(t *testing.T) {
	g := genWithPartitions(t, 31, testPartitionMix, 55)
	sameHash := genWithPartitions(t, 99, testPartitionMix, 55)
	otherHash := genWithPartitions(t, 31, testPartitionMix, 56)
	counts := map[int]int{}
	n, moved := 30000, 0
	for i := 0; i < n; i++ {
		sa, _ := g.Next()
		sb, _ := sameHash.Next()
		sc, _ := otherHash.Next()
		if sa.Partition != sb.Partition {
			t.Fatalf("job %d: partition depends on the arrival seed", sa.ID)
		}
		if sa.Partition != sc.Partition {
			moved++
		}
		counts[sa.Partition]++
	}
	for _, ps := range testPartitionMix {
		frac := float64(counts[ps.Index]) / float64(n)
		if math.Abs(frac-ps.Share) > 0.02 {
			t.Errorf("partition %d: drawn %.3f, share %.3f", ps.Index, frac, ps.Share)
		}
	}
	if moved == 0 {
		t.Error("changing PartitionSeed left every assignment unchanged")
	}
}

// Invalid partition mixes are rejected at construction.
func TestPartitionValidation(t *testing.T) {
	cfg, err := DefaultConfig(calibratedMix(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]PartitionShare{
		{{Index: 0, Share: -0.5}},
		{{Index: -1, Share: 1}},
		{{Index: 0, Share: 0}, {Index: 1, Share: 0}},
	} {
		cfgBad := cfg
		cfgBad.Partitions = bad
		if _, err := NewGenerator(cfgBad, rng.New(1)); err == nil {
			t.Errorf("invalid partition mix %v accepted", bad)
		}
	}
}
