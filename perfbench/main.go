// Command perfbench is archertwin's end-to-end and per-layer benchmark.
//
// It runs one workload per invocation, checks that every result the
// workload produced is correct, and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones, timed with tracing off; with
// -trace 1 they are the per-layer ones, timed by the benchmark's own
// code around calls into each layer's public functions. End-to-end
// timings are scaled to a nominal host speed (see calibrate.go).
//
// Workloads (each takes its inputs from -seed):
//
//	paper-timeline      one core.DefaultConfig() 13-month, 5,860-node run per op
//	serve-cold          POST /v1/sweeps?wait=1 of a never-seen DefaultSpec seed
//	serve-warm-durable  the same server journaled; specs from a pre-simulated pool
//	fabric-warm         a coordinator with two loopback workers, memos primed
//
// Load is one closed-loop client on one connection, in one process with
// GOMAXPROCS at its default (the CPU count). Run it from the repository
// root with perfbench/run.sh, which builds this module first:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Bounds of the end-to-end metrics, as fixed in BENCHMARK.json: the share
// of the parent's median by which a metric may worsen. The stationarity
// guard compares each run's first and second halves against the same
// bounds.
var bounds = map[string]float64{
	"setup_s":         0.25,
	"ops_per_s":       0.25,
	"latency_p50_ms":  0.2,
	"latency_p99_ms":  0.25,
	"alloc_mb_per_op": 0.1,
	"peak_rss_mb":     0.15,
}

// endToEnd lists the end-to-end metrics and their units, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics and their units. Every workload
// prints all of them; a layer a workload never reaches reads 0.
var perLayer = []metricDef{
	{"core.build_ms", "ms"},
	{"core.events", "count"},
	{"core.ns_per_event", "ns"},
	{"sched.jobs_started", "count"},
	{"sched.queue_depth_mean", "count"},
	{"telemetry.samples", "count"},
	{"facility.cabinet_power_us", "us"},
	{"core.digest_ms", "ms"},
	{"core.results_kb", "KB"},
	{"scenario.run_ms", "ms"},
	{"scenario.memo_hits", "count"},
	{"scenario.memo_misses", "count"},
	{"scenario.memo_hit_ratio", "ratio"},
	{"scenario.memo_evictions", "count"},
	{"scenario.account_ms", "ms"},
	{"scenario.assemble_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"api.http_ms", "ms"},
	{"api.encode_ms", "ms"},
	{"api.response_kb", "KB"},
	{"journal.records_per_op", "count"},
	{"journal.kb_per_op", "KB"},
	{"journal.sealed_mb_mean", "MB"},
	{"journal.segments_removed", "count"},
	{"fabric.run_ms", "ms"},
	{"fabric.shards_per_op", "count"},
	{"fabric.shard_ms", "ms"},
	{"fabric.shard_kb", "KB"},
	{"fabric.retries", "count"},
	{"fabric.merge_ms", "ms"},
	{"worker.exec_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

// stdout receives everything but errors; tests silence it.
var stdout io.Writer = os.Stdout

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// workDir holds the journal and the span dump; it must lie inside the
	// checkout the benchmark runs from.
	workDir string
}

// runStats is what a workload reports back.
type runStats struct {
	setup []float64 // seconds, one per set-up repetition
	lat   []float64 // milliseconds per timed op, in order
	// setupAt and opAt hold when each set-up repetition and op started,
	// to scale it to nominal host speed.
	setupAt, opAt []time.Time
	// half is the index of the first op of the run's second half; the
	// durable workload sets it on a compaction-cycle boundary.
	half      int
	alloc     uint64 // bytes allocated over the timed loop
	attempted int
	failed    int
	// mismatches counts ops whose outputs failed a correctness check.
	mismatches int
	layers     map[string]float64
	notes      map[string]any
	// cal samples the host's speed through the run (see calibrate.go).
	cal calibrator
}

var workloads = map[string]func(options) (*runStats, error){
	"paper-timeline":     runTimeline,
	"serve-cold":         runServeCold,
	"serve-warm-durable": runServeWarmDurable,
	"fabric-warm":        runFabricWarm,
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "paper-timeline | serve-cold | serve-warm-durable | fabric-warm")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "minimum measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	o.workDir = ".bench_build"
	o.trace = *traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q, or bad -seconds or -trace\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	st, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(stdout, o, st)
}

// printResult writes the provenance, the stationarity guard and the
// final JSON line.
func printResult(w io.Writer, o options, st *runStats) {
	n := len(st.lat)
	prov := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"ops":        n,
		"setup_reps": len(st.setup),
		"p50":        percentileInfo(n, 50),
		"p99":        percentileInfo(n, 99),
		"fail_ratio": failRatio(st),
	}
	for k, v := range st.notes {
		prov[k] = v
	}
	metrics := map[string]any{}
	if !o.trace {
		raw := endToEndValues(st.setup, st.lat)
		prov["raw"] = map[string]float64{"setup_s": raw["setup_s"], "ops_per_s": raw["ops_per_s"],
			"latency_p50_ms": raw["latency_p50_ms"], "latency_p99_ms": raw["latency_p99_ms"]}
		prov["cal_ms"] = median(st.cal.samples)
		prov["cal_samples"] = len(st.cal.samples)
	}
	provJSON, _ := json.Marshal(prov) // plain values: cannot fail
	fmt.Fprintf(w, "provenance %s\n", provJSON)

	if o.trace {
		for _, m := range perLayer {
			metrics[m.name] = metric(st.layers[m.name], m.unit)
		}
	} else {
		setup, lat := st.nominal()
		vals := endToEndValues(setup, lat)
		vals["alloc_mb_per_op"] = float64(st.alloc) / float64(len(st.lat)) / (1 << 20)
		for _, m := range endToEnd {
			metrics[m.name] = metric(vals[m.name], m.unit)
		}
		guard(w, st.half, setup, lat)
	}
	out, _ := json.Marshal(map[string]any{ // plain values: cannot fail
		"correct":   st.mismatches == 0,
		"attempted": st.attempted,
		"failed":    st.failed,
		"metrics":   metrics,
	})
	fmt.Fprintf(w, "%s\n", out)
}

func metric(v float64, unit string) map[string]any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return map[string]any{"value": v, "unit": unit}
}

func failRatio(st *runStats) float64 {
	if st.attempted == 0 {
		return 0
	}
	return float64(st.failed) / float64(st.attempted)
}

// nominal scales every set-up and op time to nominal host speed.
func (st *runStats) nominal() (setup, lat []float64) {
	setup = make([]float64, len(st.setup))
	for i, s := range st.setup {
		at := st.setupAt[i]
		setup[i] = s * st.cal.scale(at, at.Add(time.Duration(s*float64(time.Second))))
	}
	lat = make([]float64, len(st.lat))
	for i, l := range st.lat {
		at := st.opAt[i]
		lat[i] = l * st.cal.scale(at, at.Add(time.Duration(l*float64(time.Millisecond))))
	}
	return setup, lat
}

// endToEndValues derives the timing and memory metrics from set-up
// times and op latencies (the whole run, or one half of it for the
// guard).
func endToEndValues(setup, lat []float64) map[string]float64 {
	var sum float64
	for _, l := range lat {
		sum += l
	}
	vals := map[string]float64{
		"setup_s":        median(setup),
		"latency_p50_ms": percentile(lat, 50),
		"latency_p99_ms": percentile(lat, 99),
		"peak_rss_mb":    peakRSSMB(),
	}
	if sum > 0 {
		vals["ops_per_s"] = float64(len(lat)) / (sum / 1000)
	}
	return vals
}

// guard is the stationarity check: the medians of the run's first and
// second halves must agree within each metric's bound, or the run is
// flagged. It catches warm-up, registry retirement and a run that cut
// the journal's compaction cycle unevenly.
func guard(w io.Writer, half int, setup, lat []float64) {
	if half <= 0 || half >= len(lat) {
		half = len(lat) / 2
	}
	if half == 0 {
		fmt.Fprintln(w, "guard skipped: fewer than two ops")
		return
	}
	a := endToEndValues(setup, lat[:half])
	b := endToEndValues(setup, lat[half:])
	for _, name := range []string{"ops_per_s", "latency_p50_ms", "latency_p99_ms"} {
		diff := math.Abs(b[name]-a[name]) / a[name]
		verdict := "ok"
		switch {
		case name == "latency_p99_ms" && percentileInfo(half, 99)["beyond"] < 10:
			// Too few samples beyond each half's p99 to judge it.
			verdict = "info"
		case diff > bounds[name]:
			verdict = "FLAG"
		}
		fmt.Fprintf(w, "guard %-15s first=%.4f second=%.4f diff=%.1f%% bound=%.0f%% %s\n",
			name, a[name], b[name], 100*diff, 100*bounds[name], verdict)
	}
}

// percentile is the nearest-rank percentile of xs (not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentileInfo records the sample count behind a percentile and how
// many samples lie beyond it.
func percentileInfo(n int, p float64) map[string]int {
	if n == 0 {
		return map[string]int{"samples": 0, "beyond": 0}
	}
	return map[string]int{"samples": n, "beyond": n - rank(n, p)}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fsType names the filesystem holding path, for provenance.
func fsType(path string) string {
	var sf syscall.Statfs_t
	if err := syscall.Statfs(path, &sf); err != nil {
		return "unknown"
	}
	switch sf.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", sf.Type)
}

func sinceMS(t time.Time) float64 { return ms(time.Since(t)) }
