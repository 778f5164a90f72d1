package main

import (
	"io"
	"testing"
)

// countMetrics are the per-layer metrics that count work rather than
// time it: two traced runs with one seed must report them identically.
var countMetrics = []string{
	"core.events",
	"sched.jobs_started",
	"sched.queue_depth_mean",
	"telemetry.samples",
	"scenario.memo_hits",
	"scenario.memo_misses",
	"scenario.memo_hit_ratio",
	"scenario.memo_evictions",
	"journal.records_per_op",
	"journal.segments_removed",
	"fabric.shards_per_op",
	"fabric.retries",
}

// TestTracedCountsRepeat runs each workload traced twice with one seed
// and requires identical per-layer counts, correct outputs and no
// failed attempt.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	stdout = io.Discard
	for _, name := range []string{"paper-timeline", "serve-cold", "serve-warm-durable", "fabric-warm"} {
		o := options{workload: name, seed: 7, seconds: 1, trace: true}
		t.Run(name, func(t *testing.T) {
			var runs [2]*runStats
			for i := range runs {
				o.workDir = t.TempDir()
				st, err := workloads[o.workload](o)
				if err != nil {
					t.Fatal(err)
				}
				if st.mismatches != 0 || st.failed != 0 {
					t.Fatalf("run %d: %d mismatches, %d failed of %d attempts", i, st.mismatches, st.failed, st.attempted)
				}
				runs[i] = st
			}
			for _, name := range countMetrics {
				a, b := runs[0].layers[name], runs[1].layers[name]
				if a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
		})
	}
}

// TestPercentileSamples pins the nearest-rank tail rule the benchmark
// reports: a p99 over 1000 samples has ten beyond it, over 999 nine.
func TestPercentileSamples(t *testing.T) {
	if got := percentileInfo(1000, 99)["beyond"]; got != 10 {
		t.Errorf("1000 samples: %d beyond p99, want 10", got)
	}
	if got := percentileInfo(999, 99)["beyond"]; got != 9 {
		t.Errorf("999 samples: %d beyond p99, want 9", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}
