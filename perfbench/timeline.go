package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/greenhpc/archertwin/internal/core"
	"github.com/greenhpc/archertwin/internal/rng"
)

// setupReps is how many times each workload sets up; setup_s is their
// median.
const setupReps = 3

// goldenSeedDigest is core.DefaultConfig()'s Results.Digest at its
// default seed, pinned in the repository's golden_test.go.
const goldenSeedDigest = "f44760aae1702a3dd0820d6d5c6d052a87a4dedf1e6c98e01575e3435a523496"

// paperWindows holds the paper's published Figure 1-3 window means (kW).
var paperWindows = map[string]float64{
	"figure1-baseline": 3220,
	"figure2-before":   3220,
	"figure2-after":    3010,
	"figure3-before":   3010,
	"figure3-after":    2530,
}

// timelineMinOps is the fewest ops an untraced paper-timeline run
// times, whatever -seconds says: the median of five.
const timelineMinOps = 5

// runTimeline is the paper-timeline workload: each op builds and runs
// the full 13-month, 5,860-node default configuration, as cmd/archer2sim
// does. Op 0 runs at the workload seed and op i at a seed derived from
// it, so a run's cost averages over several seeds. The simulation core
// does nearly all the work; no served layer runs.
func runTimeline(o options) (*runStats, error) {
	st := &runStats{layers: map[string]float64{}, notes: map[string]any{}}
	config := func(k int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = o.seed
		if k > 0 {
			cfg.Seed = rng.DeriveSeed(o.seed, fmt.Sprintf("timeline/%d", k))
		}
		return cfg
	}

	st.cal.sample()
	// Set-up is building the twin: calibration, fleet, scheduler, meters.
	// A build takes milliseconds, so it repeats more often than the
	// served workloads' set-up to steady its median.
	for i := 0; i < 5*setupReps; i++ {
		runtime.GC() // each build starts from a collected heap
		t0 := time.Now()
		if _, err := core.NewSimulator(config(0)); err != nil {
			return nil, err
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.setupAt = append(st.setupAt, t0)
	}

	var (
		tr            *tracer
		traced, plain []float64
		sims          []simTrace
		pairDigest    string
	)
	if o.trace {
		tr = newTracer()
	}
	start := time.Now()
	for i := 0; ; i++ {
		if o.trace && i >= 2 {
			break
		}
		if !o.trace && i >= timelineMinOps && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
		// A traced run times ops in pairs at one seed, untraced then
		// traced, so tracing's overhead and its bit-identity show.
		k, traceOp := i, false
		if o.trace {
			k, traceOp = i/2, i%2 == 1
		}
		cfg := config(k)
		a0 := heapAllocs()
		t0 := time.Now()
		var (
			res *core.Results
			err error
		)
		if traceOp {
			tr.setOp(i)
			var s simTrace
			res, s, err = traceSim(tr, 0, cfg)
			sims = append(sims, s)
			tr.setOp(-1)
		} else {
			res, err = core.RunConfig(cfg)
		}
		lat := sinceMS(t0)
		st.alloc += heapAllocs() - a0
		st.cal.sample()
		st.attempted++
		st.lat = append(st.lat, lat)
		st.opAt = append(st.opAt, t0)
		if err != nil {
			st.failed++
			fmt.Fprintf(stdout, "op %d failed: %v\n", i, err)
			continue
		}
		if traceOp {
			traced = append(traced, lat)
		} else {
			plain = append(plain, lat)
		}

		// Correctness: the default seed reproduces the golden digest
		// pinned in golden_test.go, a traced op matches its untraced twin
		// bit for bit, and every seed keeps the paper's Figure 1-3 window
		// means within 2%.
		bad := false
		d := res.Digest()
		if cfg.Seed == core.DefaultConfig().Seed && d != goldenSeedDigest {
			fmt.Fprintf(stdout, "check op %d: digest %s, golden %s\n", i, d, goldenSeedDigest)
			bad = true
		}
		if o.trace && traceOp && d != pairDigest {
			fmt.Fprintf(stdout, "check op %d: traced digest %s, untraced %s\n", i, d, pairDigest)
			bad = true
		}
		pairDigest = d
		for label, paper := range paperWindows {
			w, ok := res.WindowByLabel(label)
			sim := w.MeanPower.Kilowatts()
			if dev := math.Abs(sim-paper) / paper; !ok || dev > 0.02 {
				fmt.Fprintf(stdout, "check op %d: %s simulated %.0f kW vs paper %.0f kW\n", i, label, sim, paper)
				bad = true
			}
		}
		if bad {
			st.mismatches++
		}
	}
	st.notes["op_ms"] = st.lat // few enough to list
	st.failed += st.mismatches

	if o.trace {
		for k, v := range sumSims(sims) {
			st.layers[k] = v
		}
		st.layers["trace.overhead_pct"] = overheadPct(traced, plain)
		finishTrace(o, tr, st)
	}
	return st, nil
}

// simTrace is the core-layer measurement of one simulation, taken from
// outside through the simulator's public accessors.
type simTrace struct {
	buildMS   float64
	runMS     float64
	events    uint64
	started   int
	depthSum  float64
	depthN    int
	cabinetUS float64
	cabinetN  int
	samples   int
	digestMS  float64
	resultsKB float64
}

// traceSim builds and runs cfg in chunks (RunTo, which
// is bit-identical to an uninterrupted Run), recording spans and the
// scheduler and facility state at every chunk edge.
func traceSim(tr *tracer, parent int, cfg core.Config) (*core.Results, simTrace, error) {
	var st simTrace
	t0 := time.Now()
	sim, err := core.NewSimulator(cfg)
	t1 := time.Now()
	tr.add("core.build", parent, t0, t1)
	st.buildMS = ms(t1.Sub(t0))
	if err != nil {
		return nil, st, err
	}
	for _, edge := range chunkEdges(cfg.Start, cfg.End) {
		c0 := time.Now()
		if err := sim.RunTo(edge); err != nil {
			return nil, st, err
		}
		c1 := time.Now()
		tr.add("core.run", parent, c0, c1)
		st.runMS += ms(c1.Sub(c0))
		st.depthSum += float64(sim.Scheduler().QueueDepth())
		st.depthN++
		p0 := time.Now()
		sim.Facility().CabinetPower()
		p1 := time.Now()
		tr.add("facility.cabinet_power", parent, p0, p1)
		st.cabinetUS += float64(p1.Sub(p0)) / float64(time.Microsecond)
		st.cabinetN++
	}
	c0 := time.Now()
	res, err := sim.Run()
	c1 := time.Now()
	tr.add("core.run", parent, c0, c1)
	st.runMS += ms(c1.Sub(c0))
	if err != nil {
		return nil, st, err
	}
	st.events = sim.Engine().Fired()
	st.started = res.Sched.StartedJobs
	st.samples = res.Power.Len()
	d0 := time.Now()
	res.Digest()
	d1 := time.Now()
	tr.add("core.digest", parent, d0, d1)
	st.digestMS = ms(d1.Sub(d0))
	// The footprint the memo prices an entry at. Compact is
	// digest-invariant, so the caller may still digest res.
	res.Compact()
	st.resultsKB = float64(res.MemoryFootprint()) / 1024
	return res, st, nil
}

// chunkEdges lists the first instant of every calendar month strictly
// inside (from, to); a run shorter than that is chunked by week instead.
func chunkEdges(from, to time.Time) []time.Time {
	var out []time.Time
	t := time.Date(from.Year(), from.Month(), 1, 0, 0, 0, 0, from.Location()).AddDate(0, 1, 0)
	for ; t.Before(to); t = t.AddDate(0, 1, 0) {
		out = append(out, t)
	}
	if len(out) == 0 {
		for t := from.AddDate(0, 0, 7); t.Before(to); t = t.AddDate(0, 0, 7) {
			out = append(out, t)
		}
	}
	return out
}

// sumSims averages core-layer measurements over simulations.
func sumSims(sims []simTrace) map[string]float64 {
	out := map[string]float64{}
	if len(sims) == 0 {
		return out
	}
	var events uint64
	var run, depth, cab float64
	var depthN, cabN int
	for _, s := range sims {
		out["core.build_ms"] += s.buildMS
		out["sched.jobs_started"] += float64(s.started)
		out["telemetry.samples"] += float64(s.samples)
		out["core.digest_ms"] += s.digestMS
		out["core.results_kb"] += s.resultsKB
		events += s.events
		run += s.runMS
		depth += s.depthSum
		depthN += s.depthN
		cab += s.cabinetUS
		cabN += s.cabinetN
	}
	n := float64(len(sims))
	for k := range out {
		out[k] /= n
	}
	out["core.events"] = float64(events) / n
	if events > 0 {
		out["core.ns_per_event"] = run * 1e6 / float64(events)
	}
	if depthN > 0 {
		out["sched.queue_depth_mean"] = depth / float64(depthN)
	}
	if cabN > 0 {
		out["facility.cabinet_power_us"] = cab / float64(cabN)
	}
	return out
}

// overheadPct compares traced ops' median latency with untraced ops'.
func overheadPct(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(plain) - 1)
}

// finishTrace prints the self-time table and writes the spans out.
func finishTrace(o options, tr *tracer, st *runStats) {
	rows := tr.selfTimes()
	fmt.Fprintln(stdout, "per-layer self time (traced ops only):")
	writeTable(stdout, rows)
	path := fmt.Sprintf("%s/spans-%s-seed%d.json", o.workDir, o.workload, o.seed)
	if err := tr.dump(path); err != nil {
		fmt.Fprintf(stdout, "spans not written: %v\n", err)
		return
	}
	st.notes["spans"] = path
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative bytes allocated on the heap; cheap enough
// to read around every op (no stop-the-world).
func heapAllocs() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}
