package core

import (
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/facility"
)

// heteroForkConfig builds a small heterogeneous-fleet simulation: the
// primary CPU partition plus an AI partition, with the measured
// operating-point tables governing frequency response and a surrogate
// accelerating the climate class.
func heteroForkConfig(seed uint64, cpuNodes, aiNodes, days int) Config {
	cfg := ScaledConfig(cpuNodes, t0, days)
	cfg.Seed = seed
	cfg.Facility.Partitions = []facility.Partition{facility.AIPartition(aiNodes)}
	cfg.PerfModel = "table"
	cfg.Surrogate = &SurrogateConfig{Class: "climate-ocean", Speedup: 10, CoveredFraction: 0.5}
	cfg.Windows = []Window{{Label: "whole-run", From: t0, To: cfg.End}}
	return cfg
}

// TestForkHeterogeneousBitIdentical pins the fork identity with the
// Roofline-v2 feature set live in the snapshot: a two-partition fleet
// (so the scheduler carries per-partition placement state and the AI
// partition its own operating point), table-based perf models, and a
// surrogate-rescaled workload class. A fork at an arbitrary quiescent
// time must replay bit-identically to the uninterrupted run, and
// snapshotting must not perturb the parent.
func TestForkHeterogeneousBitIdentical(t *testing.T) {
	cfg := heteroForkConfig(17, 24, 8, 3)

	// The features must actually change the results, or this pins nothing.
	plain := ScaledConfig(24, t0, 3)
	plain.Seed = 17
	plain.Windows = cfg.Windows
	cold := digestOf(t, cfg)
	if cold == digestOf(t, plain) {
		t.Fatal("heterogeneous fleet + tables changed nothing; the fork test is vacuous")
	}

	for name, at := range map[string]time.Time{
		"early": t0.Add(9 * time.Hour),
		"late":  t0.Add(55 * time.Hour),
	} {
		t.Run(name, func(t *testing.T) {
			forked, continued := forkDigest(t, cfg, cfg, at)
			if forked != cold {
				t.Errorf("fork digest %s != cold digest %s", forked, cold)
			}
			if continued != cold {
				t.Errorf("parent continuation digest %s != cold digest %s", continued, cold)
			}
		})
	}
}

// TestForkValidationPartitionShape checks that Fork rejects a config
// whose partition layout contradicts the snapshot's, while tolerating a
// changed perf model (a legitimate future-divergence axis: restored
// jobs keep their recorded runtimes, so only new placements differ).
func TestForkValidationPartitionShape(t *testing.T) {
	cfg := heteroForkConfig(23, 16, 8, 3)
	parent, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(t0.Add(30 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(*Config){
		"partition dropped": func(c *Config) { c.Facility.Partitions = nil },
		"partition resized": func(c *Config) { c.Facility.Partitions[0].Nodes += 4 },
		"partition renamed": func(c *Config) { c.Facility.Partitions[0].Name = "gpu" },
		"partition layout":  func(c *Config) { c.Facility.Partitions[0].SocketsPerNode = 2 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			bad := heteroForkConfig(23, 16, 8, 3)
			mutate(&bad)
			if _, err := Fork(snap, bad); err == nil {
				t.Errorf("Fork accepted a config with %s", name)
			}
		})
	}

	// Switching the perf model is a divergence, not a contradiction.
	branch := heteroForkConfig(23, 16, 8, 3)
	branch.PerfModel = "kernel"
	if _, err := Fork(snap, branch); err != nil {
		t.Errorf("Fork rejected a perf-model divergence: %v", err)
	}
}
