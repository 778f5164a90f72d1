package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/forecast"
	"github.com/greenhpc/archertwin/internal/grid"
	"github.com/greenhpc/archertwin/internal/policy"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/sched"
	"github.com/greenhpc/archertwin/internal/units"
	"github.com/greenhpc/archertwin/internal/workload"
)

// forkTestConfig builds a small simulation exercising the given feature
// set. carbonPolicy is "", "delay-flexible" or "carbon-budget".
func forkTestConfig(seed uint64, nodes, days int, failures, joblog bool, carbonPolicy string) Config {
	cfg := ScaledConfig(nodes, t0, days)
	cfg.Seed = seed
	perfDet := cpu.PerformanceDeterminism
	capped := cfg.Facility.CPU.CappedSetting()
	cfg.Timeline = policy.Timeline{Changes: []policy.Change{
		{At: t0.AddDate(0, 0, 1), Mode: &perfDet, Note: "test: mode change on day 1"},
		{At: t0.AddDate(0, 0, days-1), Setting: &capped, Note: "test: frequency cap on the last day"},
	}}
	cfg.Windows = []Window{{Label: "whole-run", From: t0, To: cfg.End}}
	if failures {
		cfg.Failures = FailureConfig{MTBFPerNode: 200 * 24 * time.Hour, RepairTime: 6 * time.Hour}
	}
	cfg.JobLog = joblog
	if carbonPolicy != "" {
		cfg.Carbon = &CarbonConfig{
			Model:     grid.GB2022(),
			TraceSeed: rng.DeriveSeed(seed, "grid-trace"),
			NewPolicy: func(fc *forecast.Forecaster) sched.TemporalPolicy {
				switch carbonPolicy {
				case "carbon-budget":
					busyKW := DefaultConfig().BusyNodeTarget.Watts() * float64(nodes) / 1e3
					return &sched.CarbonBudgetPolicy{
						Forecast:      fc,
						BudgetPerHour: units.Grams(0.85 * busyKW * 200),
					}
				default:
					return &sched.DelayFlexiblePolicy{
						Forecast:      fc,
						Threshold:     units.GramsPerKWh(190),
						MaxDelay:      24 * time.Hour,
						FlexibleShare: 0.5,
						Seed:          rng.DeriveSeed(seed, "carbon-flex"),
					}
				}
			},
		}
	}
	return cfg
}

// digestOf runs cfg cold and returns the results digest.
func digestOf(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	return res.Digest()
}

// forkDigest runs cfg to the fork point, snapshots, forks onto forkCfg
// and runs the fork to completion, returning (fork digest, parent's
// continued digest).
func forkDigest(t *testing.T, cfg, forkCfg Config, at time.Time) (string, string) {
	t.Helper()
	parent, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("parent: %v", err)
	}
	if err := parent.RunTo(at); err != nil {
		t.Fatalf("RunTo(%v): %v", at, err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	fork, err := Fork(snap, forkCfg)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	fres, err := fork.Run()
	if err != nil {
		t.Fatalf("fork run: %v", err)
	}
	pres, err := parent.Run()
	if err != nil {
		t.Fatalf("parent continuation: %v", err)
	}
	return fres.Digest(), pres.Digest()
}

// TestForkSameConfigBitIdentical is the reference-model property test:
// across seeded random configurations and fork points, a simulation
// snapshotted at an arbitrary quiescent time and forked under the same
// configuration must produce results bit-identical to the uninterrupted
// run — and snapshotting must not perturb the parent, whose own
// continuation must match too.
func TestForkSameConfigBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation property test")
	}
	r := rng.New(20260808)
	policies := []string{"", "delay-flexible", "carbon-budget"}
	for trial := 0; trial < 6; trial++ {
		nodes := 16 + r.Intn(33)
		days := 3 + r.Intn(3)
		frac := r.Float64()
		cfg := forkTestConfig(
			r.Uint64(), nodes, days,
			trial%2 == 0,      // failures
			trial%2 == 1,      // job log
			policies[trial%3], // temporal policy
		)
		span := cfg.End.Sub(cfg.Start)
		at := cfg.Start.Add(time.Duration(frac * float64(span))).Truncate(time.Second)
		name := fmt.Sprintf("trial%d_n%d_d%d_%s", trial, nodes, days, at.Format("0102T15"))
		t.Run(name, func(t *testing.T) {
			cold := digestOf(t, cfg)
			forked, continued := forkDigest(t, cfg, cfg, at)
			if forked != cold {
				t.Errorf("fork digest %s != cold digest %s", forked, cold)
			}
			if continued != cold {
				t.Errorf("parent continuation digest %s != cold digest %s (snapshot perturbed the parent)", continued, cold)
			}
		})
	}
}

// TestForkLedgerBitIdentical checks the facility's energy ledger across
// a checkpoint: a fork of a mid-run snapshot, run to the end under the
// same configuration, ends with ledger power and energy bit-identical to
// the straight run's.
func TestForkLedgerBitIdentical(t *testing.T) {
	cfg := forkTestConfig(11, 24, 4, true, false, "")
	straight, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := straight.Run(); err != nil {
		t.Fatal(err)
	}
	parent, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(cfg.Start.Add(53 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := Fork(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fork.Run(); err != nil {
		t.Fatal(err)
	}
	a, b := straight.Facility().Snapshot().Ledger, fork.Facility().Snapshot().Ledger
	if a.Energy <= 0 {
		t.Fatalf("straight run accrued no energy: %+v", a)
	}
	if math.Float64bits(a.PowerW) != math.Float64bits(b.PowerW) ||
		math.Float64bits(a.Energy.Joules()) != math.Float64bits(b.Energy.Joules()) || a.AtNs != b.AtNs {
		t.Fatalf("ledgers diverge:\n straight %+v\n     fork %+v", a, b)
	}
}

// TestForkDivergedTimelineMatchesColdBranch pins the tentpole guarantee a
// scenario sweep relies on: forking a shared prefix onto a configuration
// whose timeline diverges at the fork point is bit-identical to running
// that branch configuration cold from the start.
func TestForkDivergedTimelineMatchesColdBranch(t *testing.T) {
	cfg := forkTestConfig(7, 32, 5, true, true, "delay-flexible")
	at := t0.AddDate(0, 0, 3) // diverge at day 3 of 5

	// The branch flips the BIOS mode back at the divergence point —
	// inserted between the base config's day-1 and day-4 changes so the
	// timeline stays in date order.
	branch := forkTestConfig(7, 32, 5, true, true, "delay-flexible")
	powDet := cpu.PowerDeterminism
	branch.Timeline.Changes = []policy.Change{
		branch.Timeline.Changes[0],
		{At: at, Mode: &powDet, Note: "test: divergence"},
		branch.Timeline.Changes[1],
	}

	coldBranch := digestOf(t, branch)
	coldParent := digestOf(t, cfg)
	if coldBranch == coldParent {
		t.Fatalf("branch timeline change had no effect; divergence test is vacuous")
	}
	forked, _ := forkDigest(t, cfg, branch, at)
	if forked != coldBranch {
		t.Errorf("forked branch digest %s != cold branch digest %s", forked, coldBranch)
	}
}

// TestForkSlurmFeaturesBitIdentical pins the fork identity with every
// Slurm-realism scheduler feature live in the snapshot: priority classes
// with aging, requeue preemption, conservative backfill and a
// maintenance reservation. The two fork points bracket the reservation
// window, so one snapshot carries a pending (unstarted) reservation and
// the other a started one with captured and draining node ledgers.
func TestForkSlurmFeaturesBitIdentical(t *testing.T) {
	cfg := forkTestConfig(13, 24, 3, true, false, "")
	cfg.Priorities = []workload.PriorityClass{
		{Level: 0, Share: 0.6}, {Level: 2, Share: 0.3}, {Level: 5, Share: 0.1},
	}
	cfg.Sched.Backfill = sched.BackfillConservative
	cfg.Sched.Preemption = sched.PreemptRequeue
	cfg.Sched.AgingHours = 12
	cfg.Sched.Reservations = []sched.Reservation{
		{Name: "maint", Nodes: []int{0, 1, 2, 3, 4, 5}, From: t0.Add(30 * time.Hour), To: t0.Add(40 * time.Hour)},
	}

	plain := forkTestConfig(13, 24, 3, true, false, "")
	cold := digestOf(t, cfg)
	if cold == digestOf(t, plain) {
		t.Fatal("Slurm features changed nothing; the fork test is vacuous")
	}
	for name, at := range map[string]time.Time{
		"reservation-pending": t0.Add(12 * time.Hour),
		"reservation-started": t0.Add(36 * time.Hour),
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

// TestForkSharesNoStateWithParent runs the parent and two forks of one
// snapshot to completion concurrently. Under -race this proves the fork
// shares no live mutable memory with its parent or sibling — in
// particular that no sync.Pool-backed event item discarded by the fork's
// engine reset is still referenced by another simulation.
func TestForkSharesNoStateWithParent(t *testing.T) {
	cfg := forkTestConfig(11, 24, 3, true, true, "carbon-budget")
	at := t0.Add(36 * time.Hour)
	parent, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(at); err != nil {
		t.Fatal(err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sims := []*Simulator{parent}
	for i := 0; i < 2; i++ {
		f, err := Fork(snap, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, f)
	}
	digests := make([]string, len(sims))
	var wg sync.WaitGroup
	for i, sim := range sims {
		i, sim := i, sim
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sim.Run()
			if err != nil {
				t.Errorf("sim %d: %v", i, err)
				return
			}
			digests[i] = res.Digest()
		}()
	}
	wg.Wait()
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Errorf("sim %d digest %s != sim 0 digest %s", i, digests[i], digests[0])
		}
	}
}

// TestForkValidation checks that Fork rejects configurations that
// contradict the snapshot's prefix.
func TestForkValidation(t *testing.T) {
	cfg := forkTestConfig(3, 16, 3, false, false, "")
	at := t0.Add(36 * time.Hour) // the day-1 change is strictly in the past
	parent, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(at); err != nil {
		t.Fatal(err)
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed++ },
		"start":    func(c *Config) { c.Start = c.Start.Add(time.Hour); c.Timeline = policy.Timeline{} },
		"end":      func(c *Config) { c.End = c.End.Add(time.Hour) },
		"nodes":    func(c *Config) { c.Facility.Nodes += 8 },
		"interval": func(c *Config) { c.Meter.Interval *= 2 },
		"joblog":   func(c *Config) { c.JobLog = true },
		"failures": func(c *Config) { c.Failures = FailureConfig{MTBFPerNode: time.Hour, RepairTime: time.Hour} },
		"past change": func(c *Config) {
			perfDet := cpu.PowerDeterminism
			c.Timeline.Changes[0].Mode = &perfDet
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			bad := forkTestConfig(3, 16, 3, false, false, "")
			mutate(&bad)
			if _, err := Fork(snap, bad); err == nil {
				t.Errorf("Fork accepted a config with mutated %s", name)
			}
		})
	}

	// Changing the future is allowed (dated after every existing change,
	// keeping the timeline in order).
	ok := forkTestConfig(3, 16, 3, false, false, "")
	capped := ok.Facility.CPU.CappedSetting()
	ok.Timeline.Changes = append(ok.Timeline.Changes,
		policy.Change{At: t0.Add(60 * time.Hour), Setting: &capped})
	if _, err := Fork(snap, ok); err != nil {
		t.Errorf("Fork rejected a future-only timeline change: %v", err)
	}
}

// TestSnapshotAfterRunRejected pins the quiescence contract.
func TestSnapshotAfterRunRejected(t *testing.T) {
	cfg := forkTestConfig(5, 16, 3, false, false, "")
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Snapshot(); err == nil {
		t.Error("Snapshot succeeded on a finished simulation")
	}
}

// FuzzSnapshotRoundTrip fuzzes the fork invariant over (seed, shape,
// fork fraction): snapshot anywhere — including the degenerate start and
// end boundaries — and fork under the same configuration, and the fork's
// digest must equal the uninterrupted run's.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(50), uint8(0))
	f.Add(uint64(42), uint8(1), uint8(0), uint8(1))
	f.Add(uint64(99), uint8(2), uint8(100), uint8(2))
	f.Add(uint64(7), uint8(3), uint8(87), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, shape, fracPct, flavour uint8) {
		nodes := 12 + int(shape%3)*6 // 12, 18, 24
		days := 2 + int(shape)%2     // 2 or 3
		frac := float64(fracPct%101) / 100
		policies := []string{"", "delay-flexible", "carbon-budget"}
		fl := int(flavour) % 3
		cfg := forkTestConfig(seed, nodes, days,
			fl == 1, false, policies[fl])
		span := cfg.End.Sub(cfg.Start)
		at := cfg.Start.Add(time.Duration(frac * float64(span))).Truncate(time.Minute)
		cold := digestOf(t, cfg)
		forked, continued := forkDigest(t, cfg, cfg, at)
		if forked != cold {
			t.Errorf("seed=%d nodes=%d days=%d at=%v: fork digest %s != cold %s",
				seed, nodes, days, at, forked, cold)
		}
		if continued != cold {
			t.Errorf("seed=%d nodes=%d days=%d at=%v: parent continuation %s != cold %s",
				seed, nodes, days, at, continued, cold)
		}
	})
}
