package core

import (
	"testing"
	"time"
)

// Integration tests: cross-module behaviour of the full simulation stack.

func TestIntegrationReclockDuringTimeline(t *testing.T) {
	// An emergency reclock mid-run drops fleet power immediately (not just
	// for new jobs) and restores afterwards.
	cfg := ScaledConfig(100, t0, 10)
	cfg.Meter.NoiseSigma = 0
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := cfg.Facility.CPU
	evStart := t0.AddDate(0, 0, 5)
	evEnd := evStart.Add(6 * time.Hour)
	sim.Engine().At(evStart, func(time.Time) {
		if _, err := sim.Scheduler().ReclockRunning(spec.CappedSetting()); err != nil {
			t.Error(err)
		}
	})
	sim.Engine().At(evEnd, func(time.Time) {
		if _, err := sim.Scheduler().ReclockRunning(spec.DefaultSetting()); err != nil {
			t.Error(err)
		}
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	before := res.Power.MeanBetween(evStart.Add(-6*time.Hour), evStart)
	during := res.Power.MeanBetween(evStart.Add(time.Hour), evEnd)
	after := res.Power.MeanBetween(evEnd.Add(3*time.Hour), evEnd.Add(24*time.Hour))
	if during >= before*0.97 {
		t.Fatalf("reclock did not drop power: %v -> %v", before, during)
	}
	if after <= during*1.02 {
		t.Fatalf("restore did not raise power: %v -> %v", during, after)
	}
}

func TestIntegrationEnergyConservation(t *testing.T) {
	// Compute-node energy accrued by the facility must be at least the
	// job-attributed energy (jobs exclude idle-node burn), and within
	// physical bounds.
	cfg := ScaledConfig(60, t0, 7)
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fac := sim.Facility()
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	facilityE := fac.ComputeEnergy().KilowattHours()
	jobsE := res.TotalUsage.Energy.KilowattHours()
	if jobsE > facilityE {
		t.Fatalf("job energy %v exceeds facility energy %v", jobsE, facilityE)
	}
	// Idle + accounting drift should be small at ~99% utilisation: jobs
	// carry at least 80% of node energy.
	if jobsE < 0.8*facilityE {
		t.Fatalf("job energy %v implausibly below facility energy %v", jobsE, facilityE)
	}
}
