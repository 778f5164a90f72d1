// Command sweep runs a declarative scenario sweep on the digital twin:
// it expands a sweep spec (CPU frequency caps x grid carbon-intensity
// mixes x scheduler policies x workload build variants x facility sizes
// x carbon temporal policies) into concrete simulations, executes them in
// parallel across a worker pool, and prints baseline-relative comparison
// tables of mean power, energy, emissions and delivered node-hours.
//
// Usage:
//
//	sweep [-spec spec.json] [-workers N] [-seed N] [-carbon policies]
//	      [-priority mixes] [-backfill policies] [-preempt modes]
//	      [-perf-model models] [-fleet fleets] [-surrogate presets]
//	      [-list] [-quiet] [-server URL]
//
// Without -spec it runs the flagship 8-scenario frequency x grid-mix
// sweep. Results are byte-identical for every -workers value; the worker
// count only changes wall-clock time.
//
// With -server the sweep executes on a running twinserver (or fabric
// coordinator) through the v1 API (see docs/api.md) instead of in
// process: the spec is submitted with ?wait=1 and the returned results
// render through the same local table code, so output is identical to an
// in-process run of the same spec.
//
// -carbon adds (or replaces) a carbon_policy axis as a comma-separated
// list, e.g. -carbon fcfs,delay-flexible,carbon-budget; when the axis is
// swept, a carbon-policy table reports the intensity the load actually
// experienced and the carbon avoided against the baseline policy. See
// docs/sweeps.md for the full spec schema and the carbon tunables.
//
// An example spec (all fields optional; unknown fields are rejected):
//
//	{
//	  "name": "cap vs scheduler",
//	  "nodes": 200, "days": 28, "seed": 42, "mode": "grid",
//	  "axes": {
//	    "frequency": ["stock", "capped"],
//	    "grid_mean": [200, 65],
//	    "scheduler": ["backfill", "fcfs"]
//	  }
//	}
//
// When any scenario fails, every failing scenario's error is printed (one
// line each) and the command exits non-zero; scenarios are never silently
// dropped from the table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	specPath := flag.String("spec", "", "JSON sweep spec (default: built-in frequency x grid-mix sweep)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 0, "override the spec's base seed")
	carbon := flag.String("carbon", "", "comma-separated carbon_policy axis values (e.g. fcfs,delay-flexible,carbon-budget); overrides the spec's axis")
	priority := flag.String("priority", "", "comma-separated priority_mix axis values (e.g. none,dual,tiered); overrides the spec's axis")
	backfill := flag.String("backfill", "", "comma-separated backfill_policy axis values (e.g. easy,conservative); overrides the spec's axis")
	preempt := flag.String("preempt", "", "comma-separated preemption axis values (e.g. off,requeue,cancel); overrides the spec's axis")
	perfModel := flag.String("perf-model", "", "comma-separated perf_model axis values (e.g. kernel,table); overrides the spec's axis")
	fleet := flag.String("fleet", "", "comma-separated fleet axis values (e.g. cpu,hybrid); overrides the spec's axis")
	surrogate := flag.String("surrogate", "", "comma-separated surrogate axis values (e.g. none,10x,50x); overrides the spec's axis")
	list := flag.Bool("list", false, "print the expanded scenario list and exit without running")
	quiet := flag.Bool("quiet", false, "suppress the regime/carbon tables and timing note")
	server := flag.String("server", "", "run the sweep on this twinserver base URL (e.g. http://127.0.0.1:8990) instead of in process")
	flag.Parse()

	spec := scenario.DefaultSpec()
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			log.Fatal(err)
		}
		spec, err = scenario.ParseSpec(data)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *carbon != "" {
		spec.Axes.CarbonPolicy = strings.Split(*carbon, ",")
	}
	if *priority != "" {
		spec.Axes.PriorityMix = strings.Split(*priority, ",")
	}
	if *backfill != "" {
		spec.Axes.BackfillPolicy = strings.Split(*backfill, ",")
	}
	if *preempt != "" {
		spec.Axes.Preemption = strings.Split(*preempt, ",")
	}
	if *perfModel != "" {
		spec.Axes.PerfModel = strings.Split(*perfModel, ",")
	}
	if *fleet != "" {
		spec.Axes.Fleet = strings.Split(*fleet, ",")
	}
	if *surrogate != "" {
		spec.Axes.Surrogate = strings.Split(*surrogate, ",")
	}

	if *list {
		scenarios, err := spec.Expand()
		if err != nil {
			log.Fatal(err)
		}
		for _, sc := range scenarios {
			fmt.Printf("%3d  %s\n", sc.Index, sc.Name)
		}
		return
	}

	// Interrupt (Ctrl-C) cancels the sweep cleanly mid-simulation instead
	// of abandoning worker goroutines.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	var (
		res *scenario.SweepResults
		cs  scenario.CacheStats
	)
	if *server != "" {
		var err error
		res, cs, err = runRemote(ctx, *server, spec)
		if err != nil {
			fail(err)
		}
	} else {
		runner := &scenario.Runner{Workers: *workers}
		var err error
		res, err = runner.Run(ctx, spec)
		if err != nil {
			fail(err)
		}
		cs = runner.CacheStats()
	}
	fmt.Println(res.Table().String())
	if !*quiet {
		fmt.Println(res.RegimeTable().String())
		if res.CarbonSwept() {
			fmt.Println(res.CarbonTable().String())
		}
		fmt.Printf("%d scenarios (%d simulations) in %.1fs (workers=%d, memo cache: %d hits, %d misses, %.1f MiB of %s)\n",
			len(res.Results), res.Simulations, time.Since(start).Seconds(), res.Workers,
			cs.Hits, cs.Misses, float64(cs.Bytes)/(1<<20), budgetLabel(cs.BudgetBytes))
	}
}

// runRemote executes the sweep on a twinserver through the v1 API and
// rebuilds a SweepResults from the returned payload — tables then render
// locally through the exact code an in-process run uses. The second
// return is the server's memo-cache snapshot, standing in for the local
// runner's in the timing note.
func runRemote(ctx context.Context, server string, spec scenario.Spec) (*scenario.SweepResults, scenario.CacheStats, error) {
	client := api.NewClient(server)
	p, err := client.SubmitSweepWait(ctx, spec)
	if err != nil {
		return nil, scenario.CacheStats{}, err
	}
	res := &scenario.SweepResults{
		Spec:        p.Spec,
		Results:     p.Results,
		Simulations: p.Simulations,
		Workers:     p.Workers,
	}
	st, err := client.Stats(ctx)
	if err != nil {
		// The sweep itself succeeded; a stats hiccup only costs the
		// footer detail.
		return res, scenario.CacheStats{}, nil
	}
	return res, st.Cache, nil
}

// fail prints every per-scenario error on its own line and exits
// non-zero. The runner joins one *scenario.ScenarioError per failing
// scenario in index order.
func fail(err error) {
	var joined interface{ Unwrap() []error }
	if errors.As(err, &joined) {
		for _, e := range joined.Unwrap() {
			log.Print(e)
		}
		log.Fatalf("%d scenarios failed", len(joined.Unwrap()))
	}
	log.Fatal(err)
}

// budgetLabel renders a memo byte budget, where 0 means unbounded
// (scenario.CacheStats.BudgetBytes semantics).
func budgetLabel(budget int64) string {
	if budget <= 0 {
		return "unbounded budget"
	}
	return fmt.Sprintf("%.0f MiB budget", float64(budget)/(1<<20))
}
