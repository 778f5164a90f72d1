// Benchmark harness: one benchmark per paper table and figure, plus the
// ablations called out in DESIGN.md. Each reproduction benchmark reports
// the regenerated quantity as custom metrics (suffix _paper carries the
// published value for eyeball comparison):
//
//	go test -bench=. -benchmem
//
// The full-timeline benchmarks share one cached 13-month, 5860-node run;
// BenchmarkFullTimeline measures that simulation itself.
package archertwin_test

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/core"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/des"
	"github.com/greenhpc/archertwin/internal/emissions"
	"github.com/greenhpc/archertwin/internal/facility"
	"github.com/greenhpc/archertwin/internal/grid"
	"github.com/greenhpc/archertwin/internal/journal"
	"github.com/greenhpc/archertwin/internal/node"
	"github.com/greenhpc/archertwin/internal/policy"
	"github.com/greenhpc/archertwin/internal/rng"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/scenario"
	"github.com/greenhpc/archertwin/internal/sched"
	"github.com/greenhpc/archertwin/internal/timeseries"
	"github.com/greenhpc/archertwin/internal/units"
	"github.com/greenhpc/archertwin/internal/workload"
)

var epoch = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)

// fullRun caches the full-scale timeline results shared by the figure
// benchmarks.
var (
	fullOnce sync.Once
	fullRes  *core.Results
	fullErr  error
)

func fullTimeline(b testing.TB) *core.Results {
	b.Helper()
	fullOnce.Do(func() {
		sim, err := core.NewSimulator(core.DefaultConfig())
		if err != nil {
			fullErr = err
			return
		}
		fullRes, fullErr = sim.Run()
	})
	if fullErr != nil {
		b.Fatal(fullErr)
	}
	return fullRes
}

func windowKW(b testing.TB, res *core.Results, label string) float64 {
	b.Helper()
	w, ok := res.WindowByLabel(label)
	if !ok {
		b.Fatalf("missing window %q", label)
	}
	return w.MeanPower.Kilowatts()
}

// BenchmarkTable1Inventory regenerates the paper's hardware summary.
func BenchmarkTable1Inventory(b *testing.B) {
	var cores int
	for i := 0; i < b.N; i++ {
		f, err := facility.New(facility.ARCHER2(), rng.New(1), epoch)
		if err != nil {
			b.Fatal(err)
		}
		cores = f.CoreCount()
	}
	b.ReportMetric(float64(cores), "cores")
	b.ReportMetric(750080, "cores_paper")
}

// BenchmarkTable2ComponentPower regenerates the per-component breakdown.
func BenchmarkTable2ComponentPower(b *testing.B) {
	f, err := facility.New(facility.ARCHER2(), rng.New(1), epoch)
	if err != nil {
		b.Fatal(err)
	}
	var loaded units.Power
	var share float64
	for i := 0; i < b.N; i++ {
		rows := f.Breakdown()
		_, loaded = facility.BreakdownTotals(rows)
		share = rows[0].PercentLoaded
	}
	b.ReportMetric(loaded.Kilowatts(), "loaded_kW")
	b.ReportMetric(3500, "loaded_kW_paper")
	b.ReportMetric(share, "compute_pct")
	b.ReportMetric(86, "compute_pct_paper")
}

// BenchmarkTable3Determinism regenerates the BIOS-mode benchmark ratios.
func BenchmarkTable3Determinism(b *testing.B) {
	spec := cpu.EPYC7742()
	var meanEnergy float64
	for i := 0; i < b.N; i++ {
		cat, err := apps.NewCatalog(spec)
		if err != nil {
			b.Fatal(err)
		}
		def := spec.DefaultSetting()
		sum := 0.0
		for _, app := range cat.Table3 {
			sum += app.EnergyRatio(spec, def, cpu.PowerDeterminism, def, cpu.PerformanceDeterminism)
		}
		meanEnergy = sum / float64(len(cat.Table3))
	}
	b.ReportMetric(meanEnergy, "mean_energy_ratio")
	b.ReportMetric((0.94+0.90+0.93)/3, "mean_energy_ratio_paper")
}

// BenchmarkTable4Frequency regenerates the frequency-cap benchmark ratios.
func BenchmarkTable4Frequency(b *testing.B) {
	spec := cpu.EPYC7742()
	var meanPerf, meanEnergy float64
	for i := 0; i < b.N; i++ {
		cat, err := apps.NewCatalog(spec)
		if err != nil {
			b.Fatal(err)
		}
		def, capped := spec.DefaultSetting(), spec.CappedSetting()
		m := cpu.PerformanceDeterminism
		var ps, es float64
		for _, app := range cat.Table4 {
			ps += app.PerfRatio(spec, def, m, capped, m)
			es += app.EnergyRatio(spec, def, m, capped, m)
		}
		meanPerf = ps / float64(len(cat.Table4))
		meanEnergy = es / float64(len(cat.Table4))
	}
	b.ReportMetric(meanPerf, "mean_perf_ratio")
	b.ReportMetric((0.93+0.91+0.83+0.74+0.80+0.92+0.95)/7, "mean_perf_ratio_paper")
	b.ReportMetric(meanEnergy, "mean_energy_ratio")
	b.ReportMetric((0.88+0.93+0.92+0.92+0.80+0.82+0.88)/7, "mean_energy_ratio_paper")
}

// BenchmarkFullTimeline measures the complete 13-month, 5860-node run that
// backs Figures 1-3.
func BenchmarkFullTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSimulator(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Power.Mean(), "mean_kW")
	}
}

// BenchmarkResultsFootprint measures the memo byte-accounting pass and
// reports the retained footprint of the full-timeline results — the cost
// one full-scale entry charges against the scenario memo's byte budget
// (scenario.Runner.MemoBudgetBytes). The footprint metric doubles as the
// memory-compactness trajectory for the telemetry storage layer.
func BenchmarkResultsFootprint(b *testing.B) {
	res := fullTimeline(b)
	var fp int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp = res.MemoryFootprint()
	}
	b.ReportMetric(float64(fp), "footprint_bytes")
}

// BenchmarkFigure1Baseline regenerates the Dec 2021 - Apr 2022 baseline.
func BenchmarkFigure1Baseline(b *testing.B) {
	res := fullTimeline(b)
	var kw float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := res.WindowByLabel("figure1-baseline")
		kw = res.Power.MeanBetween(w.Window.From, w.Window.To)
	}
	b.ReportMetric(kw, "kW")
	b.ReportMetric(3220, "kW_paper")
}

// BenchmarkFigure2BIOS regenerates the Performance Determinism step.
func BenchmarkFigure2BIOS(b *testing.B) {
	res := fullTimeline(b)
	var before, after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before = windowKW(b, res, "figure2-before")
		after = windowKW(b, res, "figure2-after")
	}
	b.ReportMetric(before, "before_kW")
	b.ReportMetric(after, "after_kW")
	b.ReportMetric((before-after)/before*100, "drop_pct")
	b.ReportMetric(6.5, "drop_pct_paper")
}

// BenchmarkFigure3Frequency regenerates the 2.0 GHz default step.
func BenchmarkFigure3Frequency(b *testing.B) {
	res := fullTimeline(b)
	var before, after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before = windowKW(b, res, "figure3-before")
		after = windowKW(b, res, "figure3-after")
	}
	b.ReportMetric(before, "before_kW")
	b.ReportMetric(after, "after_kW")
	b.ReportMetric((before-after)/before*100, "drop_pct")
	b.ReportMetric(15.9, "drop_pct_paper")
}

// BenchmarkEmissionsRegimes regenerates the SS2 regime analysis.
func BenchmarkEmissionsRegimes(b *testing.B) {
	params := emissions.ARCHER2Defaults()
	var crossover float64
	for i := 0; i < b.N; i++ {
		pts := params.Sweep(units.Megawatts(3.5), []float64{5, 20, 40, 65, 100, 150, 200, 250})
		if pts[0].Regime != emissions.Scope3Dominated ||
			pts[len(pts)-1].Regime != emissions.Scope2Dominated {
			b.Fatal("regime endpoints wrong")
		}
		crossover = params.CrossoverIntensity(units.Megawatts(3.5)).GramsPerKWh()
	}
	b.ReportMetric(crossover, "crossover_g_per_kWh")
	b.ReportMetric(65, "crossover_paper_band_mid")
}

// BenchmarkConclusionsSummary regenerates the paper's SS5 headline claims:
// the ~690 kW cumulative saving, the ~50% idle:loaded node ratio and the
// load-insensitive switch power.
func BenchmarkConclusionsSummary(b *testing.B) {
	res := fullTimeline(b)
	spec := cpu.EPYC7742()
	var saving, idleRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saving = windowKW(b, res, "figure1-baseline") - windowKW(b, res, "figure3-after")
		idle := node.IdlePower(spec).Watts()
		loaded := node.ExpectedPower(spec, spec.DefaultSetting(),
			facility.TypicalLoadedActivity, cpu.PowerDeterminism).Watts()
		idleRatio = idle / loaded
	}
	b.ReportMetric(saving, "saving_kW")
	b.ReportMetric(690, "saving_kW_paper")
	b.ReportMetric(idleRatio*100, "idle_pct_of_loaded")
	b.ReportMetric(50, "idle_pct_paper")
}

// ablationRun executes a scaled 21-day run and returns the steady-window
// mean power and utilisation.
func ablationRun(b *testing.B, mutate func(*core.Config)) (kW, util float64) {
	b.Helper()
	cfg := core.ScaledConfig(150, epoch, 21)
	cfg.Windows = []core.Window{{Label: "w", From: epoch.AddDate(0, 0, 7), To: epoch.AddDate(0, 0, 21)}}
	if mutate != nil {
		mutate(&cfg)
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		b.Fatal(err)
	}
	w, _ := res.WindowByLabel("w")
	return w.MeanPower.Kilowatts(), w.MeanUtil
}

// BenchmarkAblationOverrides quantifies the module-override policy: power
// given back (kW on 150 nodes) in exchange for protecting compute-bound
// applications from the frequency cap.
func BenchmarkAblationOverrides(b *testing.B) {
	capped := cpu.EPYC7742().CappedSetting()
	perfDet := cpu.PerformanceDeterminism
	timeline := policy.Timeline{Changes: []policy.Change{
		{At: epoch, Mode: &perfDet},
		{At: epoch.AddDate(0, 0, 1), Setting: &capped},
	}}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with, _ = ablationRun(b, func(c *core.Config) {
			c.Timeline = timeline
			c.Policy = policy.Config{OverrideThreshold: 0.10, OverridesEnabled: true}
		})
		without, _ = ablationRun(b, func(c *core.Config) {
			c.Timeline = timeline
			c.Policy = policy.Config{OverridesEnabled: false}
		})
	}
	b.ReportMetric(with, "with_overrides_kW")
	b.ReportMetric(without, "without_overrides_kW")
	b.ReportMetric(with-without, "override_cost_kW")
}

// BenchmarkAblationNoBackfill quantifies what EASY backfill buys: the
// utilisation (and hence output) lost under plain FCFS.
func BenchmarkAblationNoBackfill(b *testing.B) {
	var easy, fcfs float64
	for i := 0; i < b.N; i++ {
		_, easy = ablationRun(b, nil)
		_, fcfs = ablationRun(b, func(c *core.Config) { c.Sched.BackfillDepth = 0 })
	}
	b.ReportMetric(easy*100, "easy_util_pct")
	b.ReportMetric(fcfs*100, "fcfs_util_pct")
}

// BenchmarkAblationUtilisation quantifies the paper's SS5 point that high
// utilisation is an energy-efficiency requirement: an undersubscribed
// facility still burns most of its power (idle nodes draw ~50%).
func BenchmarkAblationUtilisation(b *testing.B) {
	var satKW, satUtil, lowKW, lowUtil float64
	for i := 0; i < b.N; i++ {
		satKW, satUtil = ablationRun(b, nil)
		lowKW, lowUtil = ablationRun(b, func(c *core.Config) { c.OverSubscription = 0.5 })
	}
	perNodeHourSat := satKW / (150 * satUtil)
	perNodeHourLow := lowKW / (150 * lowUtil)
	b.ReportMetric(satUtil*100, "saturated_util_pct")
	b.ReportMetric(lowUtil*100, "undersub_util_pct")
	b.ReportMetric(perNodeHourLow/perNodeHourSat, "energy_per_nodeh_penalty")
}

// BenchmarkAblationVoltageCurve quantifies the sensitivity of the Table 4
// reproduction to the assumed 2.0 GHz operating voltage (DESIGN.md SS5).
func BenchmarkAblationVoltageCurve(b *testing.B) {
	base := cpu.EPYC7742()
	flat := cpu.EPYC7742()
	flat.PStates = append([]cpu.PState(nil), flat.PStates...)
	flat.PStates[1].Voltage = 1.0 // no voltage reduction at 2.0 GHz
	var deltaDyn float64
	for i := 0; i < b.N; i++ {
		f20 := units.Gigahertz(2.0)
		deltaDyn = flat.DynFraction(f20) - base.DynFraction(f20)
	}
	b.ReportMetric(base.DynFraction(units.Gigahertz(2.0)), "dyn_fraction_base")
	b.ReportMetric(deltaDyn, "dyn_fraction_delta_flatV")
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkNodePower(b *testing.B) {
	spec := cpu.EPYC7742()
	n := node.New(spec, rng.New(1))
	n.StartWork(cpu.Activity{Core: 0.7, Uncore: 0.6}, epoch)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += n.Power().Watts()
	}
	_ = acc
}

func BenchmarkFacilityCabinetPower(b *testing.B) {
	f, err := facility.New(facility.ARCHER2(), rng.New(1), epoch)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		f.Node(i).StartWork(facility.TypicalLoadedActivity, epoch)
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += f.CabinetPower().Watts()
	}
	_ = acc
}

func BenchmarkDESEvents(b *testing.B) {
	eng := des.NewEngine(epoch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(time.Duration(i%1000)*time.Second, func(time.Time) {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

func BenchmarkRNGStream(b *testing.B) {
	r := rng.New(1)
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += r.Float64()
	}
	_ = acc
}

func BenchmarkTimeseriesAppendAndMean(b *testing.B) {
	// Pre-sized like every producer in the hot path; it also keeps the
	// gated B/op deterministic (an unsized series reports N-dependent
	// slice-growth amortisation, which flaps around capacity doublings).
	s := timeseries.New("x", "u", time.Minute, b.N)
	t := epoch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MustAppend(t, float64(i))
		t = t.Add(time.Minute)
	}
	_ = s.Mean()
}

func BenchmarkSchedulerChurn(b *testing.B) {
	fcfg := facility.ARCHER2()
	fcfg.Nodes = 256
	fac, err := facility.New(fcfg, rng.New(1), epoch)
	if err != nil {
		b.Fatal(err)
	}
	eng := des.NewEngine(epoch)
	prov, err := policy.NewProvider(fcfg.CPU, policy.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s := sched.New(eng, fac, prov, sched.DefaultConfig())
	app := &apps.App{Name: "bench", ActCore: 0.6, ActUncore: 0.6}
	stream := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(workload.JobSpec{
			ID: i, Class: "bench", App: app,
			Nodes:      1 + stream.Intn(32),
			RefRuntime: time.Duration(1+stream.Intn(6)) * time.Hour,
		})
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkBackfillSaturated measures one steady-state scheduling pass
// over a saturated 256-node cluster with a deep queue nothing in which
// fits: the admission loop bails at the head, and the EASY backfill scan
// walks BackfillDepth candidates against the shadow window every pass.
// This is the scheduler's hot loop under the exact load (full machine,
// long queue) where a regression hurts most; the gate also pins
// allocs/op at zero — the per-app prediction cache and retained scratch
// buffers are what keep it there.
func BenchmarkBackfillSaturated(b *testing.B) {
	fcfg := facility.ARCHER2()
	fcfg.Nodes = 256
	fac, err := facility.New(fcfg, rng.New(1), epoch)
	if err != nil {
		b.Fatal(err)
	}
	eng := des.NewEngine(epoch)
	prov, err := policy.NewProvider(fcfg.CPU, policy.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := sched.DefaultConfig()
	cfg.BackfillDepth = 32
	cfg.MaxQueue = 512
	s := sched.New(eng, fac, prov, cfg)
	app := &apps.App{Name: "bench", ActCore: 0.6, ActUncore: 0.6}
	// 250 single-node blockers (6 nodes stay free), then a 32-node head
	// that must wait for ~26 releases, then candidates that fit the free
	// nodes but run far past the head's shadow time with no spare width —
	// so every pass walks the full depth doing real prediction work and
	// starts nothing.
	for i := 0; i < 250; i++ {
		s.Submit(workload.JobSpec{ID: i, Class: "bench", App: app,
			Nodes: 1, RefRuntime: 2 * time.Hour})
	}
	s.Submit(workload.JobSpec{ID: 250, Class: "bench", App: app,
		Nodes: 32, RefRuntime: 2 * time.Hour})
	for i := 251; i < 314; i++ {
		s.Submit(workload.JobSpec{ID: i, Class: "bench", App: app,
			Nodes: 3 + i%4, RefRuntime: 100 * time.Hour})
	}
	if s.BusyNodes() != 250 || s.QueueDepth() != 64 {
		b.Fatalf("rig not saturated: %d busy, %d queued", s.BusyNodes(), s.QueueDepth())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Kick()
	}
}

// --- checkpoint/fork sweep benchmarks ---

// benchForkSpec is a late-divergence sweep: four frequency branches that
// share their first eight days of a ten-day run and diverge only for the
// final two. Cold execution replays 4 x 10 simulated days; the fork path
// runs the 8-day prefix once and 4 x 2-day tails — the late-divergence
// shape the checkpoint/fork machinery exists for.
func benchForkSpec() scenario.Spec {
	return scenario.Spec{
		Name:             "bench-fork",
		Nodes:            64,
		Days:             10,
		Seed:             7,
		OverSubscription: 0.8,
		DivergeDay:       8,
		Axes: scenario.Axes{
			MidFrequency: []string{"none", "capped", "1.5GHz", "2.0GHz"},
		},
	}
}

// benchSweep runs the fork spec on a fresh single-worker Runner, so ns/op
// measures total simulation work independent of the host's core count,
// and nothing is served from a previous iteration's memo.
func benchSweep(b *testing.B, noFork bool) {
	b.Helper()
	spec := benchForkSpec()
	for i := 0; i < b.N; i++ {
		r := scenario.Runner{Workers: 1, NoFork: noFork}
		if _, err := r.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForkedSweep measures the late-divergence sweep with branches
// forked from the shared prefix checkpoint.
func BenchmarkForkedSweep(b *testing.B) { benchSweep(b, false) }

// BenchmarkColdSweep measures the same sweep with every branch replayed
// cold from day zero (Runner.NoFork) — the baseline the fork path is
// gated against.
func BenchmarkColdSweep(b *testing.B) { benchSweep(b, true) }

// TestForkSpeedupHeadroom guards the point of the fork path: with four
// branches diverging at day 8 of 10, cold replay simulates 40 day-
// equivalents against the fork path's ~16, so forked execution must stay
// comfortably ahead — at least 1.5x — or the checkpoint machinery has
// regressed into overhead.
func TestForkSpeedupHeadroom(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark pair: skipped in -short mode")
	}
	cold := testing.Benchmark(BenchmarkColdSweep)
	forked := testing.Benchmark(BenchmarkForkedSweep)
	ratio := float64(cold.NsPerOp()) / float64(forked.NsPerOp())
	t.Logf("cold %v/op, forked %v/op, speedup %.2fx",
		time.Duration(cold.NsPerOp()), time.Duration(forked.NsPerOp()), ratio)
	if ratio < 1.5 {
		t.Errorf("forked sweep speedup %.2fx, want >= 1.5x", ratio)
	}
}

// BenchmarkWarmSweep measures a memo-hit sweep: the flagship frequency x
// grid-mix spec (scenario.DefaultSpec) on a single-worker Runner whose
// memo already holds both simulations, so every op draws the four grid
// traces and accounts the eight scenarios without simulating — the
// accounting path a served sweep repeated on a warm server pays.
func BenchmarkWarmSweep(b *testing.B) {
	spec := scenario.DefaultSpec()
	r := scenario.Runner{Workers: 1}
	if _, err := r.Run(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccountTraces measures the emissions walk alone: one 28-day,
// 15-minute power series priced against four 30-minute intensity traces
// on one cadence (DefaultSpec's grid means), the accounting a memo-hit
// sweep makes once per simulation.
func BenchmarkAccountTraces(b *testing.B) {
	const days = 28
	end := epoch.AddDate(0, 0, days)
	power := timeseries.New("cabinet_power", "kW", 15*time.Minute, days*96)
	stream := rng.New(5)
	for t := epoch; t.Before(end); t = t.Add(15 * time.Minute) {
		power.MustAppend(t, 3000+500*stream.Float64())
	}
	gb := grid.GB2022()
	models := []grid.IntensityModel{gb.Scaled(200), gb.Scaled(100), gb.Scaled(65), gb.Scaled(20)}
	traces, err := grid.Traces(models, epoch, end, 30*time.Minute, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	params := emissions.ARCHER2Defaults()
	out := make([]emissions.Window, len(traces))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := params.AccountTraces(power, traces, epoch, end, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(out[0].Scope2.Tonnes(), "scope2_t")
}

// --- Roofline v2 benchmarks ---

// BenchmarkTableLookup measures one measured-table multiplier lookup —
// the operation on the scheduler's job-start and reclock paths when
// perf_model=table, so it must stay allocation-free (the benchjson gate
// pins allocs/op=0).
func BenchmarkTableLookup(b *testing.B) {
	tables, err := roofline.ARCHER2Tables()
	if err != nil {
		b.Fatal(err)
	}
	tbl := tables["climate-ocean"]
	if tbl == nil {
		b.Fatal("no climate-ocean table")
	}
	ref := units.Gigahertz(2.8)
	freqs := []units.Frequency{
		units.Gigahertz(1.5), units.Gigahertz(1.8), units.Gigahertz(2.0),
		units.Gigahertz(2.25), units.Gigahertz(2.6),
	}
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += tbl.Multiplier(freqs[i%len(freqs)], ref, roofline.PerformanceDeterminism)
	}
	if sum <= 0 {
		b.Fatal("degenerate multiplier sum")
	}
}

// BenchmarkHeterogeneousSweep measures a sweep over the Roofline-v2
// axes: a hybrid CPU+AI fleet with table-based perf models against the
// homogeneous kernel baseline. It gates the per-partition scheduler
// paths (ranged free-node accounting, partition-pinned operating
// points) that a homogeneous run never exercises.
func BenchmarkHeterogeneousSweep(b *testing.B) {
	spec := scenario.Spec{
		Name:             "bench-hetero",
		Nodes:            64,
		Days:             6,
		Seed:             7,
		OverSubscription: 0.8,
		Mode:             scenario.ModeList,
		Axes: scenario.Axes{
			Fleet:     []string{"cpu", "hybrid"},
			PerfModel: []string{"kernel", "table"},
		},
	}
	for i := 0; i < b.N; i++ {
		r := scenario.Runner{Workers: 1}
		if _, err := r.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- future-work feature benchmarks (paper SS5) ---

// BenchmarkFutureWorkVariants regenerates the compiler/library-choice
// analysis grid: build variants x frequency settings for a CASTEP-like
// code, reporting the energy-to-solution spread the choice of build opens.
func BenchmarkFutureWorkVariants(b *testing.B) {
	spec := cpu.EPYC7742()
	cat, err := apps.NewCatalog(spec)
	if err != nil {
		b.Fatal(err)
	}
	app := cat.ByName("CASTEP Al Slab")
	settings := []cpu.FreqSetting{
		{Base: units.Gigahertz(1.5)}, spec.CappedSetting(), spec.DefaultSetting(),
	}
	var minE, maxE float64
	for i := 0; i < b.N; i++ {
		pts, err := apps.SweepVariants(spec, app, apps.CommonVariants(), settings, cpu.PerformanceDeterminism)
		if err != nil {
			b.Fatal(err)
		}
		minE, maxE = pts[0].EnergyVsBase, pts[0].EnergyVsBase
		for _, p := range pts {
			if p.EnergyVsBase < minE {
				minE = p.EnergyVsBase
			}
			if p.EnergyVsBase > maxE {
				maxE = p.EnergyVsBase
			}
		}
	}
	b.ReportMetric(minE, "best_energy_vs_base")
	b.ReportMetric(maxE, "worst_energy_vs_base")
}

// BenchmarkFutureWorkSurrogate regenerates the AI-replacement break-even
// analysis for a climate-model-like workload.
func BenchmarkFutureWorkSurrogate(b *testing.B) {
	spec := cpu.EPYC7742()
	model := &apps.App{
		Name:    "ocean-model",
		Kernel:  rooflineKernel(0.25),
		ActCore: 0.55, ActUncore: 1.0,
		RefNodes: 64, RefRuntime: 16 * time.Hour,
	}
	sur := apps.Surrogate{
		Name:            "emulator",
		TrainingEnergy:  apps.TrainingEnergyFromRuns(spec, model, spec.DefaultSetting(), cpu.PerformanceDeterminism, 200),
		SpeedupFactor:   50,
		NodeFactor:      0.25,
		CoveredFraction: 0.80,
	}
	var be int
	for i := 0; i < b.N; i++ {
		var err error
		be, err = apps.BreakEvenRuns(spec, model, sur, spec.DefaultSetting(), cpu.PerformanceDeterminism)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(be), "breakeven_runs")
}

// BenchmarkLifetimeReplacement regenerates the replace-vs-keep analysis on
// dirty and clean grid trajectories.
func BenchmarkLifetimeReplacement(b *testing.B) {
	params := emissions.ARCHER2Defaults()
	opt := emissions.ReplacementOption{
		Name: "successor", Embodied: params.Embodied,
		Lifetime: params.Lifetime, PowerRatio: 0.70,
	}
	dirty := emissions.Trajectory{Start: units.GramsPerKWh(300), AnnualDecline: 0.02, Floor: units.GramsPerKWh(50)}
	clean := emissions.Trajectory{Start: units.GramsPerKWh(25), AnnualDecline: 0.05, Floor: units.GramsPerKWh(10)}
	var advDirty, advClean float64
	for i := 0; i < b.N; i++ {
		rd, err := params.CompareReplacement(units.Megawatts(3.5), 6, dirty, opt)
		if err != nil {
			b.Fatal(err)
		}
		rc, err := params.CompareReplacement(units.Megawatts(3.5), 6, clean, opt)
		if err != nil {
			b.Fatal(err)
		}
		advDirty, advClean = rd.Advantage.Kilotonnes(), rc.Advantage.Kilotonnes()
	}
	b.ReportMetric(advDirty, "replace_adv_dirty_kt")
	b.ReportMetric(advClean, "replace_adv_clean_kt")
}

// BenchmarkGridYear measures the grid half of the accounting path:
// grid.Traces drawing one year of intensity at the 30-minute step for
// DefaultSpec's four grid means (200, 100, 65 and 20 gCO2/kWh) under one
// weather realisation, as a sweep over those means draws them. The seed is
// fixed, so the reported mean of the 200 g trace is the same every run.
func BenchmarkGridYear(b *testing.B) {
	start := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(1, 0, 0)
	var models []grid.IntensityModel
	for _, mean := range []float64{200, 100, 65, 20} {
		models = append(models, grid.GB2022().Scaled(mean))
	}
	var mean float64
	for i := 0; i < b.N; i++ {
		traces, err := grid.Traces(models, start, end, 30*time.Minute, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		mean = traces[0].Mean()
	}
	b.ReportMetric(mean, "mean_gCO2_per_kWh")
}

// rooflineKernel is a tiny helper keeping the bench file free of a direct
// roofline import alias clash.
func rooflineKernel(c float64) roofline.Kernel { return roofline.Kernel{ComputeFraction: c} }

// BenchmarkJournalAppend measures the durable journal's amortized
// append+commit cost with real fsyncs: records accumulate in the group-
// commit buffer and every 256th Commit pays one fsync for the whole
// batch — the write pattern a busy durable twinserver settles into. The
// target is amortized sub-10µs per record.
func BenchmarkJournalAppend(b *testing.B) {
	l, err := journal.Open(b.TempDir(), journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	rec := &journal.ScenarioDone{
		Sweep: "sweep-1",
		Result: scenario.Result{
			Scenario:  scenario.Scenario{Name: "freq=capped/grid=200"},
			MeanPower: 1893.4, MeanUtil: 0.87, Energy: 123.4,
			SimDigest: "0123456789abcdef0123456789abcdef",
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Index = i
		rec.Result.Scenario.Index = i
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
		if (i+1)%256 == 0 {
			if err := l.Commit(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Commit(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournalCompact measures one retention pass on the shape a
// busy durable twinserver settles into: one sealed default-size (4 MiB)
// segment whose newest 64 sweeps — the default retention — are still
// live, so Compact removes nothing. Compact decides from the segment's
// sweep-ID set and opens no file.
func BenchmarkJournalCompact(b *testing.B) {
	l, err := journal.Open(b.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	spec := scenario.Spec{Name: "bench", Nodes: 64, Days: 1, Seed: 7}
	var ids []string
	for prev := l.Size(); ; {
		id := "sweep-" + strconv.Itoa(len(ids))
		ids = append(ids, id)
		recs := []journal.Record{&journal.SweepSubmitted{ID: id, Key: "0123456789abcdef", Spec: spec, Scenarios: 4, Submitted: epoch}}
		for i := 0; i < 4; i++ {
			recs = append(recs, &journal.ScenarioDone{Sweep: id, Index: i, Result: scenario.Result{
				Scenario:  scenario.Scenario{Index: i, Name: "freq=capped/grid=200"},
				MeanPower: 1893.4, MeanUtil: 0.87, Energy: 123.4,
				SimDigest: "0123456789abcdef0123456789abcdef",
			}})
		}
		recs = append(recs, &journal.SweepTerminal{Sweep: id, State: journal.TerminalDone, Workers: 1, Finished: epoch})
		if err := l.Append(recs...); err != nil {
			b.Fatal(err)
		}
		size := l.Size()
		if size < prev {
			break // this sweep's records sealed the segment
		}
		prev = size
	}
	live := map[string]bool{}
	for _, id := range ids[len(ids)-64:] {
		live[id] = true
	}
	keep := func(id string) bool { return live[id] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		removed, err := l.Compact(keep)
		if err != nil {
			b.Fatal(err)
		}
		if removed != 0 {
			b.Fatalf("compact removed %d segments holding live sweeps", removed)
		}
	}
	b.ReportMetric(float64(len(ids)), "sealed_sweeps")
}
