package sched

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/units"
)

// Property-style randomized scenario tests for the scheduler's global
// invariants, complementing the targeted cases in sched_test.go.

// TestPropertyPowerCapNeverExceeded: under any admission sequence with a
// cap, the committed power ledger never exceeds the cap at admission time
// (the estimate uses expected power; in Power Determinism die factors are
// exactly 1, so estimate == actual and the invariant is exact).
func TestPropertyPowerCapNeverExceeded(t *testing.T) {
	prop := func(seed uint64, capKW uint8) bool {
		r := newRigQuick(seed)
		cap := units.Kilowatts(2 + float64(capKW%20))
		r.s.SetPowerCap(cap)
		stream := rng.New(seed).Split("jobs")
		ok := true
		check := func() {
			if r.s.EstimatedBusyPower().Watts() > cap.Watts()*(1+1e-9) {
				ok = false
			}
		}
		r.s.OnJobEnd(func(*Job) { check() })
		for i := 0; i < 60; i++ {
			nodes := 1 + stream.Intn(8)
			rt := time.Duration(1+stream.Intn(6)) * time.Hour
			r.s.Submit(r.spec(i, nodes, rt))
			check()
		}
		r.eng.Run()
		check()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyJobsConserved: submitted == completed + dropped + queued +
// running at every quiescent point, for arbitrary job streams.
func TestPropertyJobsConserved(t *testing.T) {
	prop := func(seed uint64) bool {
		r := newRigQuick(seed)
		stream := rng.New(seed).Split("mix")
		for i := 0; i < 120; i++ {
			if stream.Intn(6) < 4 {
				nodes := 1 + stream.Intn(10)
				rt := time.Duration(1+stream.Intn(12)) * time.Hour
				r.s.Submit(r.spec(i, nodes, rt))
			}
			// Advance a random amount so the stream interleaves with ends.
			r.eng.RunUntil(r.eng.Now().Add(time.Duration(stream.Intn(120)) * time.Minute))
		}
		r.eng.Run()
		st := r.s.Stats()
		accounted := st.Completed + st.Dropped + r.s.QueueDepth() + r.s.RunningJobs()
		return accounted == st.Submitted
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUtilisationBounded: utilisation stays in [0, 1] under
// arbitrary interleavings of submissions and job ends.
func TestPropertyUtilisationBounded(t *testing.T) {
	prop := func(seed uint64) bool {
		r := newRigQuick(seed)
		stream := rng.New(seed).Split("util")
		for i := 0; i < 80; i++ {
			if stream.Float64() < 0.7 {
				r.s.Submit(r.spec(i, 1+stream.Intn(6), time.Hour))
			}
			u := r.s.Utilisation()
			if u < 0 || u > 1+1e-12 {
				return false
			}
			r.eng.RunUntil(r.eng.Now().Add(30 * time.Minute))
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// newRigQuick builds a small deterministic rig without requiring *testing.T
// (quick properties return bool).
func newRigQuick(seed uint64) *rig {
	fcfg := facility.ARCHER2()
	fcfg.Nodes = 30
	fac, err := facility.New(fcfg, rng.New(seed), t0)
	if err != nil {
		panic(err)
	}
	eng := des.NewEngine(t0)
	s := New(eng, fac, stockProvider{fcfg.CPU}, DefaultConfig())
	app := &apps.App{
		Name:    "quick-app",
		Kernel:  roofline.Kernel{ComputeFraction: 0.5},
		ActCore: 0.6, ActUncore: 0.6,
	}
	return &rig{eng: eng, fac: fac, s: s, app: app}
}
