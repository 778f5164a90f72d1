package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/greenhpc/archertwin/internal/cpu"
)

// TestSeedLabels pins the literal seed keys: every scenario seed derives
// from simKey, and memoization and sharding from runKey, so a changed
// byte here silently re-seeds every stored sweep. One case per axis at
// its baseline, at "" and at a non-baseline value, against a scenario
// that leaves the enumerated axes at "".
func TestSeedLabels(t *testing.T) {
	const plain = "freq=stock sched=backfill wl=base nodes=64"
	cases := []struct {
		name   string
		mutate func(*Scenario)
		simKey string
		runKey string // "" when equal to simKey
	}{
		{"baseline", func(sc *Scenario) {}, plain, ""},
		{"freq=empty", func(sc *Scenario) { sc.Frequency = "" }, "freq= sched=backfill wl=base nodes=64", ""},
		{"freq=capped", func(sc *Scenario) { sc.Frequency = "capped" }, "freq=capped sched=backfill wl=base nodes=64", ""},
		{"grid=65", func(sc *Scenario) { sc.GridMean = 65 }, plain, ""},
		{"sched=empty", func(sc *Scenario) { sc.Scheduler = "" }, "freq=stock sched= wl=base nodes=64", ""},
		{"sched=fcfs", func(sc *Scenario) { sc.Scheduler = "fcfs" }, "freq=stock sched=fcfs wl=base nodes=64", ""},
		{"wl=empty", func(sc *Scenario) { sc.Workload = "" }, "freq=stock sched=backfill wl= nodes=64", ""},
		{"wl=simd", func(sc *Scenario) { sc.Workload = "simd" }, "freq=stock sched=backfill wl=simd nodes=64", ""},
		{"nodes=500", func(sc *Scenario) { sc.Nodes = 500 }, "freq=stock sched=backfill wl=base nodes=500", ""},
		{"carbon=fcfs", func(sc *Scenario) { sc.CarbonPolicy = CarbonFCFS }, plain, ""},
		{"carbon=delay-flexible", func(sc *Scenario) { sc.CarbonPolicy = CarbonDelayFlexible },
			plain + " carbon=delay-flexible grid=200", ""},
		{"carbon=carbon-budget grid=65", func(sc *Scenario) { sc.CarbonPolicy, sc.GridMean = CarbonBudget, 65 },
			plain + " carbon=carbon-budget grid=65", ""},
		{"carbon=delay-flexible grid=12.5", func(sc *Scenario) { sc.CarbonPolicy, sc.GridMean = CarbonDelayFlexible, 12.5 },
			plain + " carbon=delay-flexible grid=12.5", ""},
		{"mid=none", func(sc *Scenario) { sc.MidFrequency = MidNone }, plain, ""},
		{"mid=capped", func(sc *Scenario) { sc.MidFrequency = "capped" }, plain, plain + " mid=capped"},
		{"prio=none", func(sc *Scenario) { sc.PriorityMix = PriorityNone }, plain, ""},
		{"prio=tiered", func(sc *Scenario) { sc.PriorityMix = PriorityTiered }, plain + " prio=tiered", ""},
		{"bf=easy", func(sc *Scenario) { sc.BackfillPolicy = BackfillEASY }, plain, ""},
		{"bf=conservative", func(sc *Scenario) { sc.BackfillPolicy = BackfillConservative }, plain + " bf=conservative", ""},
		{"preempt=off", func(sc *Scenario) { sc.Preemption = PreemptOff }, plain, ""},
		{"preempt=requeue", func(sc *Scenario) { sc.Preemption = PreemptRequeue }, plain + " preempt=requeue", ""},
		{"perf=kernel", func(sc *Scenario) { sc.PerfModel = PerfKernel }, plain, ""},
		{"perf=table", func(sc *Scenario) { sc.PerfModel = PerfTable }, plain + " perf=table", ""},
		{"fleet=cpu", func(sc *Scenario) { sc.Fleet = FleetCPU }, plain, ""},
		{"fleet=hybrid", func(sc *Scenario) { sc.Fleet = FleetHybrid }, plain + " fleet=hybrid", ""},
		{"surrogate=none", func(sc *Scenario) { sc.Surrogate = SurrogateNone }, plain, ""},
		{"surrogate=10x", func(sc *Scenario) { sc.Surrogate = Surrogate10x }, plain + " surrogate=10x", ""},
		{"every axis off baseline", func(sc *Scenario) {
			*sc = Scenario{Frequency: "1.5GHz", GridMean: 20, Scheduler: "backfill=8", Workload: "portable",
				Nodes: 128, CarbonPolicy: CarbonBudget, MidFrequency: "2.0GHz", PriorityMix: PriorityDual,
				BackfillPolicy: BackfillConservative, Preemption: PreemptCancel, PerfModel: PerfTable,
				Fleet: FleetHybrid, Surrogate: Surrogate50x}
		}, "freq=1.5GHz sched=backfill=8 wl=portable nodes=128 carbon=carbon-budget grid=20" +
			" prio=dual bf=conservative preempt=cancel perf=table fleet=hybrid surrogate=50x",
			"freq=1.5GHz sched=backfill=8 wl=portable nodes=128 carbon=carbon-budget grid=20" +
				" prio=dual bf=conservative preempt=cancel perf=table fleet=hybrid surrogate=50x mid=2.0GHz"},
	}
	for _, c := range cases {
		sc := Scenario{Frequency: "stock", GridMean: 200, Scheduler: "backfill", Workload: "base", Nodes: 64}
		c.mutate(&sc)
		want := c.runKey
		if want == "" {
			want = c.simKey
		}
		if got := sc.simKey(); got != c.simKey {
			t.Errorf("%s: simKey = %q, want %q", c.name, got, c.simKey)
		}
		if got := sc.runKey(); got != want {
			t.Errorf("%s: runKey = %q, want %q", c.name, got, want)
		}
	}
}

// TestAvoidedCarbonCounterpart checks that each scenario's avoided carbon
// is measured against the baseline-policy scenario identical in every
// other axis: zero for every baseline-policy scenario, and the
// counterpart's emissions minus its own for every carbon-aware one.
func TestAvoidedCarbonCounterpart(t *testing.T) {
	for name, other := range map[string]Axes{
		"backfill_policy": {BackfillPolicy: []string{BackfillEASY, BackfillConservative}},
		"mid_frequency":   {MidFrequency: []string{MidNone, "capped"}},
	} {
		t.Run(name, func(t *testing.T) {
			spec := Spec{Name: "avoided", Nodes: 16, Days: 4, OverSubscription: 0.8, Axes: other}
			spec.Axes.CarbonPolicy = []string{CarbonFCFS, CarbonDelayFlexible}
			res, err := (&Runner{Workers: 2}).Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			// otherAxes blanks the carbon policy and the scenario's
			// position, leaving every other axis for the match.
			otherAxes := func(sc Scenario) Scenario {
				sc.Index, sc.Name, sc.CarbonPolicy = 0, "", ""
				return sc
			}
			for _, r := range res.Results {
				sc := r.Scenario
				if !r.HasBaseline {
					t.Fatalf("%s: no baseline-policy counterpart", sc.Name)
				}
				if sc.CarbonPolicy == CarbonFCFS {
					if r.AvoidedCarbon != 0 {
						t.Errorf("%s: fcfs scenario reports avoided carbon %v t", sc.Name, r.AvoidedCarbon.Tonnes())
					}
					continue
				}
				found := false
				for _, base := range res.Results {
					if base.Scenario.CarbonPolicy == CarbonFCFS && otherAxes(base.Scenario) == otherAxes(sc) {
						found = true
						want := base.Emissions.Total.Grams() - r.Emissions.Total.Grams()
						if got := r.AvoidedCarbon.Grams(); got != want {
							t.Errorf("%s: avoided %v g, want %v g (against %s)", sc.Name, got, want, base.Scenario.Name)
						}
					}
				}
				if !found {
					t.Fatalf("%s: test found no fcfs counterpart", sc.Name)
				}
			}
		})
	}
}

// FuzzParseSpec drives arbitrary spec JSON through the whole expansion
// path: parsing, validation, expansion and partitioning never panic,
// Canonical is idempotent and survives the JSON round trip the service
// derives its spec key from, and every scenario Expand accepts builds a
// config core.Config.Validate accepts.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"name":"x","nodes":16,"days":4,"warmup_days":-1,"seed":7,"oversubscription":0.8,"axes":{"frequency":["stock","capped","1.5GHz"],"grid_mean":[200,65.5]}}`,
		`{"mode":"list","axes":{"frequency":["stock","2.25GHz+boost"],"carbon_policy":["fcfs","carbon-budget"],"nodes":[8,32]}}`,
		`{"days":10,"diverge_day":3,"axes":{"mid_frequency":["none","capped"],"scheduler":["backfill=3","fcfs"],"workload":["simd"]}}`,
		`{"priority_aging_hours":2,"carbon":{"threshold_g_per_kwh":50,"forecast_sigma":3},"axes":{"priority_mix":["tiered"],"backfill_policy":["conservative"],"preemption":["requeue","cancel"]}}`,
		`{"max_scenarios":4,"axes":{"perf_model":["kernel","table"],"fleet":["hybrid"],"surrogate":["none","10x","50x"]}}`,
		`{"axes":{"carbon_policy":["time-travel"]}}`,
		`{"axes":{"grid_mean":[-1]}}`,
		`{"days":9223372036854775807}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		// Bounding the work max_scenarios admits is the admission task's
		// job, not this fuzzer's.
		if spec.MaxScenarios > DefaultMaxScenarios {
			return
		}
		canon := spec.Canonical()
		if again := canon.Canonical(); !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonical not idempotent:\n%+v\n%+v", canon, again)
		}
		wire, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(wire)
		if err != nil {
			t.Fatalf("canonical spec does not parse back: %v\n%s", err, wire)
		}
		if rewire, _ := json.Marshal(back.Canonical()); string(rewire) != string(wire) {
			t.Fatalf("canonical spec changed over a JSON round trip:\n%s\n%s", wire, rewire)
		}
		if spec.Validate() != nil {
			return
		}
		scenarios, err := spec.Expand()
		if msg := expandVersusRef(spec, err); msg != "" {
			t.Fatal(msg)
		}
		if err != nil {
			return
		}
		if _, err := spec.Partition(); err != nil {
			t.Fatalf("Expand accepted the spec, Partition did not: %v", err)
		}
		for _, sc := range scenarios {
			cfg, _, err := sc.BuildConfig(spec)
			if err != nil {
				t.Fatalf("scenario %s: BuildConfig: %v", sc.Name, err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("scenario %s: config invalid: %v", sc.Name, err)
			}
		}
	})
}

// refCheckValues is Expand's axis-value check as it was before Expand
// stopped building a scratch configuration: every value of every axis is
// applied to one.
func refCheckValues(s Spec) error {
	s = s.withDefaults()
	ax := s.axes()
	// Check every value once, by applying it to a scratch configuration.
	scratch := &build{spec: s}
	scratch.cfg.Facility.CPU = cpu.EPYC7742()
	for _, a := range ax {
		for _, v := range a.values {
			if err := a.def.apply(scratch, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// expandVersusRef compares Expand's verdict err on a spec that Validate
// accepts with refCheckValues', unless the expansion guard rejected the
// spec before any value was checked. It returns "" when they agree.
func expandVersusRef(s Spec, err error) string {
	if err != nil && (strings.Contains(err.Error(), "expansion exceeds") ||
		strings.Contains(err.Error(), "list mode needs")) {
		return ""
	}
	want := refCheckValues(s)
	if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
		return fmt.Sprintf("Expand(%+v) = %v, the scratch-build check says %v", s.Axes, err, want)
	}
	return ""
}

// TestExpandCheckMatchesScratchBuild holds Expand's value check to the
// scratch-build check it replaced: one spec per value of every axis —
// each free-form axis's accepted spellings, every enumerated axis's base
// and choices — plus invalid values, accepted or rejected alike and with
// the same error text.
func TestExpandCheckMatchesScratchBuild(t *testing.T) {
	values := map[string][]string{
		"freq":  {"", "stock", "capped", "1.5GHz", "2.0GHz", "2.25GHz", "2.25GHz+boost", "2.0GHz+boost", "3.5GHz", "fast"},
		"grid":  {"200", "65.5", "0", "-1"},
		"sched": {"", "backfill", "fcfs", "backfill=0", "backfill=3", "backfill=-1", "backfill=x", "sjf"},
		"wl":    {"", "base", "portable", "production", "simd", "debug"},
		"nodes": {"8", "32", "200", "7"},
		"mid":   {"", MidNone, "capped", "2.0GHz", "3.5GHz", "fast"},
	}
	// The invalid values above: 3 frequency, 2 grid, 3 scheduler, 1
	// workload, 1 node count and 2 mid values, then one unknown choice per
	// enumerated axis.
	invalid := 12
	for i := range axisTable {
		a := &axisTable[i]
		if a.parse != nil {
			continue
		}
		invalid++
		vs := []string{"", a.base, "bogus"}
		for _, c := range a.choices {
			vs = append(vs, c.value)
		}
		values[a.key] = vs
	}
	rejected := 0
	for i := range axisTable {
		a := &axisTable[i]
		vs, ok := values[a.key]
		if !ok {
			t.Fatalf("axis %q has no test values", a.key)
		}
		for _, v := range vs {
			spec := Spec{Days: 10, DivergeDay: 3}
			switch p := a.values(&spec.Axes).(type) {
			case *[]string:
				*p = []string{v}
			case *[]float64:
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				*p = []float64{f}
			case *[]int:
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatal(err)
				}
				*p = []int{n}
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("%s=%q: spec invalid before the value check: %v", a.key, v, err)
			}
			_, err := spec.Expand()
			if msg := expandVersusRef(spec, err); msg != "" {
				t.Errorf("%s=%q: %s", a.key, v, msg)
			}
			if err != nil {
				rejected++
			}
		}
	}
	if rejected != invalid {
		t.Errorf("%d values rejected, want %d", rejected, invalid)
	}
}
