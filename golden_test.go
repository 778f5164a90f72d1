// Determinism golden tests: the hot-path rewrite of the DES core
// (internal/des 4-ary heap, internal/sched indexed free set, node power
// caching) must be observationally invisible. The digests below were
// recorded from the pre-refactor engine (container/heap event queue,
// sorted-slice free list, uncached power); the refactored engine must
// reproduce them bit for bit, at every worker count.
package archertwin_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/core"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// Golden digests recorded from the pre-refactor engine (commit 5f48ed0).
// If an intentional model change alters simulation output, re-bless these
// by running with -run TestGolden -v and copying the printed digests —
// but an engine/performance PR must never need to.
const (
	// goldenSeedDigest is core.DefaultConfig() (the full 13-month,
	// 5,860-node seed run) through Results.Digest.
	goldenSeedDigest = "f44760aae1702a3dd0820d6d5c6d052a87a4dedf1e6c98e01575e3435a523496"
	// goldenScaledDigest is the scaled 150-node, 21-day config.
	goldenScaledDigest = "2b9690768415317aecafda8c74df26cdcc868b00ab4819d8a53acd66d0b5e493"
	// goldenSweepDigest is the 2x2 frequency x carbon-policy sweep below,
	// identical at every worker count.
	goldenSweepDigest = "98f6e12f1c8893c9b9f426bfaa1f28c4e4204f9756812f5490586486201bd6a0"
	// goldenForkSweepDigest is the carbon-policy x mid-frequency divergence
	// sweep below, recorded from the cold (NoFork) path; the checkpoint/fork
	// path must reproduce it bit for bit at every worker count. Re-blessed
	// when avoided carbon started matching counterparts on every axis but
	// carbon_policy (mid_frequency included); simulations are unchanged.
	goldenForkSweepDigest = "0c83f197296997053b35916041f26f424d561e1c7f33a628926e7a3b998897aa"
	// goldenGridSweepDigest is scenario.DefaultSpec() at seed 42: two
	// frequencies under four grid means, so every simulation is priced
	// against four intensity traces.
	goldenGridSweepDigest = "dcc598bb2c8fa51ba9b6513eb5c50d0819624524d85f25b8d92676c907b7a60f"
	// goldenCarbonGridSweepDigest adds a grid-blind and a carbon-aware
	// policy at seed 7: the carbon-aware simulations consume the trace of
	// their own grid mean, the grid-blind ones share one across all four.
	goldenCarbonGridSweepDigest = "8060477f49e2c6ea8b8882353432d0db4b62efb419bb6bd69cf15c7c052d48d0"
)

// goldenSweepSpec exercises the scheduler's backfill, hold/release and
// forecast paths on a small facility: two frequency settings crossed with
// a grid-blind and a carbon-aware temporal policy, under-subscribed so
// the delay-flexible policy has room to shift work.
func goldenSweepSpec() scenario.Spec {
	return scenario.Spec{
		Name:             "golden",
		Nodes:            64,
		Days:             10,
		Seed:             42,
		OverSubscription: 0.8,
		Axes: scenario.Axes{
			Frequency:    []string{"stock", "capped"},
			CarbonPolicy: []string{"fcfs", "delay-flexible"},
		},
	}
}

// goldenScaledConfig is the small deterministic replay config.
func goldenScaledConfig() core.Config {
	cfg := core.ScaledConfig(150, epoch, 21)
	cfg.Windows = []core.Window{{Label: "w", From: epoch.AddDate(0, 0, 7), To: epoch.AddDate(0, 0, 21)}}
	return cfg
}

// sweepDigest fingerprints every scenario result of a sweep: exact float
// bits of each measured quantity, in scenario order.
func sweepDigest(res *scenario.SweepResults) string {
	h := sha256.New()
	buf := make([]byte, 8)
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		h.Write(buf)
	}
	for _, r := range res.Results {
		h.Write([]byte(r.Scenario.Name))
		f64(r.MeanPower.Watts())
		f64(r.MeanUtil)
		f64(r.Energy.Joules())
		f64(r.NodeHours)
		f64(r.MeanCI.GramsPerKWh())
		f64(r.Emissions.Scope2.Grams())
		f64(r.Emissions.Scope3.Grams())
		f64(r.Emissions.Total.Grams())
		f64(r.Emissions.CI.GramsPerKWh())
		f64(r.AvoidedCarbon.Grams())
		f64(float64(r.Holds))
		f64(float64(r.HoldDelay / time.Nanosecond))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenSeedConfigDigest proves the refactored engine reproduces the
// pre-refactor seed run exactly (shares the cached full timeline with the
// acceptance test and figure benchmarks).
func TestGoldenSeedConfigDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale timeline: skipped in -short mode")
	}
	res := fullTimeline(t)
	if d := res.Digest(); d != goldenSeedDigest {
		t.Errorf("seed config digest = %s, golden %s", d, goldenSeedDigest)
	}
}

// TestGoldenScaledConfigDigest is the fast replay proof, run on every
// test invocation including -short.
func TestGoldenScaledConfigDigest(t *testing.T) {
	res, err := core.RunConfig(goldenScaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Digest(); d != goldenScaledDigest {
		t.Errorf("scaled config digest = %s, golden %s", d, goldenScaledDigest)
	}
}

// goldenForkSweepSpec sweeps two temporal policies against a mid-sweep
// frequency divergence at day 7 of 10: the three branches of each policy
// share their first week bit for bit, so the runner simulates that prefix
// once per policy, checkpoints it, and forks the branches — the execution
// path this golden pins against the cold one.
func goldenForkSweepSpec() scenario.Spec {
	return scenario.Spec{
		Name:             "golden-fork",
		Nodes:            64,
		Days:             10,
		Seed:             42,
		OverSubscription: 0.8,
		DivergeDay:       7,
		Axes: scenario.Axes{
			CarbonPolicy: []string{"fcfs", "delay-flexible"},
			MidFrequency: []string{"none", "capped", "1.5GHz"},
		},
	}
}

// TestGoldenForkSweep proves the checkpoint/fork execution path is
// observationally invisible: the divergence sweep produces bit-identical
// measured outcomes and per-scenario simulation digests whether every
// branch runs cold from day zero (NoFork) or forks from the shared prefix
// checkpoint, at every worker count, and both match the golden digest
// recorded from the cold path.
func TestGoldenForkSweep(t *testing.T) {
	spec := goldenForkSweepSpec()
	cold, err := (&scenario.Runner{Workers: 4, NoFork: true}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if d := sweepDigest(cold); d != goldenForkSweepDigest {
		t.Errorf("cold sweep digest = %s, golden %s", d, goldenForkSweepDigest)
	}
	for _, workers := range []int{1, 4, 8} {
		r := &scenario.Runner{Workers: workers}
		forked, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := sweepDigest(forked); d != goldenForkSweepDigest {
			t.Errorf("workers=%d: forked sweep digest = %s, golden %s", workers, d, goldenForkSweepDigest)
		}
		// 2 prefix checkpoints + 6 forked branches: proves the fork path
		// actually executed instead of silently running every branch cold.
		// The memo keeps the 6 branch results and no fork point.
		if cs := r.CacheStats(); cs.Misses != 8 || cs.Size != 6 {
			t.Errorf("workers=%d: misses = %d, size = %d, want 8 (2 prefixes + 6 branches) and 6 (results only)",
				workers, cs.Misses, cs.Size)
		}
		for i := range forked.Results {
			fd, cd := forked.Results[i].SimDigest, cold.Results[i].SimDigest
			if fd == "" || fd != cd {
				t.Errorf("workers=%d: scenario %s: forked SimDigest %s, cold %s",
					workers, forked.Results[i].Scenario.Name, fd, cd)
			}
		}
	}
}

// TestGoldenSweepWorkerInvariance runs the golden sweep at 1, 4 and 8
// workers and asserts every scenario's measured outcome is bit-identical
// to the pre-refactor golden digest at every worker count.
func TestGoldenSweepWorkerInvariance(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		r := scenario.Runner{Workers: workers}
		res, err := r.Run(context.Background(), goldenSweepSpec())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := sweepDigest(res); d != goldenSweepDigest {
			t.Errorf("workers=%d: sweep digest = %s, golden %s", workers, d, goldenSweepDigest)
		}
	}
}

// TestGoldenGridSweeps pins the path that prices one simulation against
// several grid means — one trace per mean drawn under shared weather, one
// accounting walk per simulation — on the flagship frequency x grid-mix
// sweep, alone and crossed with a carbon-aware policy, at one and at
// three workers. Both digests were recorded before that path shared its
// draws and walks.
func TestGoldenGridSweeps(t *testing.T) {
	plain := scenario.DefaultSpec()
	plain.Seed = 42
	carbon := scenario.DefaultSpec()
	carbon.Seed = 7
	carbon.Axes.CarbonPolicy = []string{"fcfs", "delay-flexible"}
	for _, c := range []struct {
		name   string
		spec   scenario.Spec
		n      int
		digest string
	}{
		{"default", plain, 8, goldenGridSweepDigest},
		{"carbon", carbon, 16, goldenCarbonGridSweepDigest},
	} {
		for _, workers := range []int{1, 3} {
			r := scenario.Runner{Workers: workers}
			res, err := r.Run(context.Background(), c.spec)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", c.name, workers, err)
			}
			if len(res.Results) != c.n {
				t.Fatalf("%s, workers=%d: %d scenarios, want %d", c.name, workers, len(res.Results), c.n)
			}
			if d := sweepDigest(res); d != c.digest {
				t.Errorf("%s, workers=%d: sweep digest = %s, golden %s", c.name, workers, d, c.digest)
			}
		}
	}
}
