package core

import (
	"testing"
	"time"
)

// Integration tests: cross-module behaviour of the full simulation stack.

func TestIntegrationFailureInjection(t *testing.T) {
	cfg := ScaledConfig(100, t0, 14)
	cfg.Failures = FailureConfig{
		MTBFPerNode: 100 * 24 * time.Hour, // aggressive: ~14 failures over the run
		RepairTime:  12 * time.Hour,
	}
	cfg.Windows = []Window{{Label: "w", From: t0.AddDate(0, 0, 3), To: t0.AddDate(0, 0, 14)}}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeFailures == 0 {
		t.Fatal("no failures injected")
	}
	// Failed jobs were recorded and the service kept running at high
	// utilisation despite the churn.
	if res.Sched.Failed == 0 {
		t.Fatal("failures killed no jobs (all hit idle nodes? unlikely at 99% util)")
	}
	w, _ := res.WindowByLabel("w")
	if w.MeanUtil < 0.85 {
		t.Fatalf("utilisation with failures = %v", w.MeanUtil)
	}
	if res.Sched.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestIntegrationFailureValidation(t *testing.T) {
	cfg := ScaledConfig(50, t0, 2)
	cfg.Failures = FailureConfig{MTBFPerNode: time.Hour} // no repair time
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("failure config without repair time accepted")
	}
}

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
