package sched

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/units"
	"github.com/greenhpc/archertwin/internal/workload"
)

// settleRig is one scheduler of a TestSettledSkipInvalidation pair.
type settleRig struct {
	t    *testing.T
	eng  *des.Engine
	s    *Scheduler
	prov *switchProvider
	spec *cpu.Spec
	app  *apps.App
}

func (r *settleRig) submit(id, nodes int, ref time.Duration) *Job {
	return r.s.Submit(workload.JobSpec{ID: id, Class: "settle", App: r.app, Nodes: nodes, RefRuntime: ref})
}

// predMult is the backfill prediction multiplier at the provider's
// current setting.
func (r *settleRig) predMult() float64 {
	return r.app.TimeMultiplier(r.spec, r.prov.setting(), cpu.PerformanceDeterminism)
}

// blockJob is a temporal policy that blocks admission while job id is
// startable before until (rechecking much later), and starts everything
// else.
type blockJob struct {
	id    int
	until time.Time
}

func (blockJob) Name() string { return "block-job" }

func (p blockJob) Decide(j *Job, now time.Time, _, _ units.Power) TemporalDecision {
	if j.Spec.ID == p.id && now.Before(p.until) {
		return TemporalDecision{Block: true, Recheck: p.until.Add(100 * time.Hour)}
	}
	return TemporalDecision{Start: true}
}

// TestSettledSkipInvalidation covers each way the scheduler's state can
// change outside a scheduling pass. Every case builds the same history on
// two schedulers with BackfillDepth 1, then applies one change that makes
// a further pass start a job, ending in a submission behind the window.
// The twin is unsettled right before the change, so its submission runs
// the full pass; the scheduler under test must reach the same state.
// Deleting any one invalidation point (or the epoch or consultation
// check) fails its case.
func TestSettledSkipInvalidation(t *testing.T) {
	const filler = 100 // far-back submissions: 8 nodes, never startable in time
	cases := []struct {
		name     string
		temporal TemporalPolicy     // nil: greedy
		setup    func(r *settleRig) // history; ends settled (or, for temporal, consulted)
		change   func(r *settleRig) // the out-of-pass change plus a far-back submit
	}{
		{
			// A free node fails: the head's shadow moves out to the
			// second release, past the candidate's end.
			name: "FailNode",
			setup: func(r *settleRig) {
				r.submit(1, 4, 5*time.Hour)
				r.submit(2, 4, 10*time.Hour)
				r.submit(3, 6, time.Hour) // head: shadow at job 1's end
				r.submit(4, 1, 7*time.Hour)
				r.submit(filler, 8, time.Hour)
			},
			change: func(r *settleRig) {
				if err := r.s.FailNode(9); err != nil {
					r.t.Fatal(err)
				}
				r.submit(filler+1, 8, time.Hour)
			},
		},
		{
			// A node repaired into an active reservation adds a release
			// that gives the head a shadow at all.
			name: "RepairNode",
			setup: func(r *settleRig) {
				if err := r.s.FailNode(7); err != nil {
					r.t.Fatal(err)
				}
				if err := r.s.AddReservation(Reservation{Name: "m", Nodes: []int{6, 7},
					From: t0, To: t0.Add(5 * time.Hour)}); err != nil {
					r.t.Fatal(err)
				}
				r.submit(1, 4, 20*time.Hour)
				r.submit(2, 10, time.Hour) // head: no shadow while node 7 is down
				r.submit(3, 2, time.Hour)
				r.submit(filler, 8, time.Hour)
			},
			change: func(r *settleRig) {
				if err := r.s.RepairNode(7); err != nil {
					r.t.Fatal(err)
				}
				r.submit(filler+1, 8, time.Hour)
			},
		},
		{
			// Reclocking the running job to the slower setting moves the
			// head's shadow past the candidate's predicted end.
			name: "ReclockRunning",
			setup: func(r *settleRig) {
				r.prov.toggle() // start at the default setting
				run := r.submit(1, 6, 10*time.Hour)
				r.submit(2, 10, time.Hour)
				ratio := r.app.FreqMultiplier(r.spec, r.spec.CappedSetting(), cpu.PerformanceDeterminism) /
					r.app.FreqMultiplier(r.spec, r.spec.DefaultSetting(), cpu.PerformanceDeterminism)
				r.submit(3, 2, time.Duration(float64(run.Runtime)*math.Sqrt(ratio)/r.predMult()))
				r.submit(filler, 8, time.Hour)
			},
			change: func(r *settleRig) {
				if _, err := r.s.ReclockRunning(r.spec.CappedSetting()); err != nil {
					r.t.Fatal(err)
				}
				r.submit(filler+1, 8, time.Hour)
			},
		},
		{
			// A reservation window opening captures a free node, which
			// moves the shadow out as a failure does.
			name: "resvStart",
			setup: func(r *settleRig) {
				if err := r.s.AddReservation(Reservation{Name: "m", Nodes: []int{9},
					From: t0.Add(time.Hour), To: t0.Add(100 * time.Hour)}); err != nil {
					r.t.Fatal(err)
				}
				r.submit(1, 4, 5*time.Hour)
				r.submit(2, 4, 10*time.Hour)
				r.submit(3, 6, time.Hour)
				r.submit(4, 1, 7*time.Hour)
				r.submit(filler, 8, time.Hour)
			},
			change: func(r *settleRig) {
				r.eng.RunUntil(t0.Add(90 * time.Minute))
				r.submit(filler+1, 8, time.Hour)
			},
		},
		{
			// A completion's end callback submits before the completion's
			// own pass: both passes run, and the second one starts the
			// job the first shifted into the window.
			name: "finish",
			setup: func(r *settleRig) {
				r.submit(1, 8, 20*time.Hour)
				r.submit(2, 2, time.Hour)
				r.submit(3, 10, time.Hour)
				r.submit(4, 1, 30*time.Minute)
				r.submit(5, 1, 30*time.Minute)
				r.submit(filler, 8, time.Hour)
				r.s.OnJobEnd(func(j *Job) {
					if j.Spec.ID == 2 {
						r.submit(filler+1, 8, time.Hour)
					}
				})
			},
			change: func(r *settleRig) { r.eng.RunUntil(t0.Add(80 * time.Minute)) },
		},
		{
			// The operating point changes: the candidate's predicted
			// runtime now fits before the shadow.
			name: "SettingsEpoch",
			setup: func(r *settleRig) {
				run := r.submit(1, 6, 10*time.Hour)
				r.submit(2, 10, time.Hour)
				capped := r.predMult()
				r.prov.toggle()
				def := r.predMult()
				r.prov.toggle()
				r.submit(3, 2, time.Duration(float64(run.Runtime)/math.Sqrt(capped*def)))
				r.submit(filler, 8, time.Hour)
			},
			change: func(r *settleRig) {
				r.prov.toggle()
				r.submit(filler+1, 8, time.Hour)
			},
		},
		{
			// A pass that only consulted the temporal policy is not
			// settled: the policy answers differently later.
			name:     "temporal",
			temporal: blockJob{id: 3, until: t0.Add(time.Hour)},
			setup: func(r *settleRig) {
				r.submit(1, 6, 20*time.Hour)
				r.submit(2, 10, time.Hour)
				r.submit(3, 2, time.Hour)
				r.submit(filler, 8, time.Hour)
			},
			change: func(r *settleRig) {
				r.eng.RunUntil(t0.Add(2 * time.Hour))
				r.submit(filler+1, 8, time.Hour)
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			build := func() *settleRig {
				fcfg := facility.ARCHER2()
				fcfg.Nodes = 10
				fac, err := facility.New(fcfg, rng.New(3), t0)
				if err != nil {
					t.Fatal(err)
				}
				eng := des.NewEngine(t0)
				prov := newSwitchProvider(fcfg.CPU)
				cfg := Config{BackfillDepth: 1, MaxQueue: 64, Temporal: tc.temporal}
				return &settleRig{t: t, eng: eng, s: New(eng, fac, prov, cfg), prov: prov, spec: fcfg.CPU,
					app: &apps.App{Name: "settle", Kernel: roofline.Kernel{ComputeFraction: 0.5},
						ActCore: 0.6, ActUncore: 0.6}}
			}
			r, twin := build(), build()
			tc.setup(r)
			tc.setup(twin)
			if got, want := schedState(r.s), schedState(twin.s); got != want {
				t.Fatalf("histories differ before the change:\n  %s\n  %s", got, want)
			}
			started := twin.s.Stats().StartedJobs
			twin.s.settled = false
			tc.change(r)
			tc.change(twin)
			if twin.s.Stats().StartedJobs == started {
				t.Fatal("the change started nothing on the always-pass twin: the case is vacuous")
			}
			if got, want := schedState(r.s), schedState(twin.s); got != want {
				t.Fatalf("after the change\n  settled:     %s\n  always-pass: %s", got, want)
			}
		})
	}
}
