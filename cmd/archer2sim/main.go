// Command archer2sim replays the paper's Dec 2021 - Dec 2022 operational
// timeline on the full-scale digital twin and reports the cabinet power
// figures (paper Figures 1-3), the conclusions summary, and optionally the
// raw power series as CSV.
//
// Usage:
//
//	archer2sim [-figure 0|1|2|3] [-summary] [-seed N] [-csv out.csv] [-quiet]
//
// With no flags it prints all three figures and the summary.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/greenhpc/archertwin/internal/core"
	"github.com/greenhpc/archertwin/internal/report"
)

// paperFigures holds the published window means (kW) for comparison.
var paperFigures = map[string]float64{
	"figure1-baseline": 3220,
	"figure2-before":   3220,
	"figure2-after":    3010,
	"figure3-before":   3010,
	"figure3-after":    2530,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("archer2sim: ")
	figure := flag.Int("figure", 0, "print only figure 1, 2 or 3 (0 = all)")
	summary := flag.Bool("summary", false, "print only the conclusions summary")
	seed := flag.Uint64("seed", 42, "simulation seed")
	csvPath := flag.String("csv", "", "write the cabinet power series to this CSV file")
	jobsCSV := flag.String("jobs-csv", "", "write a sacct-style per-job energy log to this CSV file")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	if *jobsCSV != "" {
		cfg.JobLog = true
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "simulating %s -> %s on %d nodes (seed %d)...\n",
			cfg.Start.Format("2006-01-02"), cfg.End.Format("2006-01-02"),
			cfg.Facility.Nodes, cfg.Seed)
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.Power.WriteCSV(f, true); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %d samples to %s\n", res.Power.Len(), *csvPath)
		}
	}

	if *jobsCSV != "" {
		f, err := os.Create(*jobsCSV)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.JobLog.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %d job records to %s\n", res.JobLog.Len(), *jobsCSV)
		}
	}

	switch {
	case *summary:
		printSummary(res)
	case *figure == 0:
		printFigure(res, 1)
		printFigure(res, 2)
		printFigure(res, 3)
		printSummary(res)
	default:
		printFigure(res, *figure)
	}
}

func windowMean(res *core.Results, label string) float64 {
	w, ok := res.WindowByLabel(label)
	if !ok {
		log.Fatalf("window %q missing from results", label)
	}
	return w.MeanPower.Kilowatts()
}

func printFigure(res *core.Results, n int) {
	switch n {
	case 1:
		w, _ := res.WindowByLabel("figure1-baseline")
		fig := report.Figure{
			Title:  "Figure 1: ARCHER2 compute cabinet power, Dec 2021 - Apr 2022 (simulated)",
			Series: res.Power.Slice(w.Window.From, w.Window.To),
		}
		fig.AddNote("mean %s (paper: 3220 kW); utilisation %.1f%%",
			report.KW(w.MeanPower.Kilowatts()), w.MeanUtil*100)
		fmt.Println(fig.String())
	case 2:
		before := windowMean(res, "figure2-before")
		after := windowMean(res, "figure2-after")
		wb, _ := res.WindowByLabel("figure2-before")
		wa, _ := res.WindowByLabel("figure2-after")
		fig := report.Figure{
			Title:  "Figure 2: BIOS change to Performance Determinism, Apr - Jun 2022 (simulated)",
			Series: res.Power.Slice(wb.Window.From, wa.Window.To),
		}
		fig.AddNote("before %s -> after %s (%s); paper: 3220 -> 3010 kW (-6.5%%)",
			report.KW(before), report.KW(after), report.Pct(after/before-1))
		fmt.Println(fig.String())
	case 3:
		before := windowMean(res, "figure3-before")
		after := windowMean(res, "figure3-after")
		wb, _ := res.WindowByLabel("figure3-before")
		wa, _ := res.WindowByLabel("figure3-after")
		fig := report.Figure{
			Title:  "Figure 3: default CPU frequency 2.25+boost -> 2.0 GHz, Oct - Dec 2022 (simulated)",
			Series: res.Power.Slice(wb.Window.From, wa.Window.To),
		}
		fig.AddNote("before %s -> after %s (%s); paper: 3010 -> 2530 kW (-16%%)",
			report.KW(before), report.KW(after), report.Pct(after/before-1))
		fmt.Println(fig.String())
	default:
		log.Fatalf("no figure %d (use 1, 2 or 3)", n)
	}
}

func printSummary(res *core.Results) {
	cmp := report.NewComparison("Summary: paper vs simulated window means")
	for _, label := range []string{
		"figure1-baseline", "figure2-before", "figure2-after",
		"figure3-before", "figure3-after",
	} {
		cmp.Add(label, paperFigures[label], windowMean(res, label), report.KW)
	}
	baseline := windowMean(res, "figure1-baseline")
	final := windowMean(res, "figure3-after")
	cmp.Add("cumulative saving", 690, baseline-final, report.KW)
	fmt.Println(cmp.String())

	t := report.NewTable("Service statistics over the simulated year", "item", "value")
	t.AddRow("jobs submitted / completed / dropped",
		fmt.Sprintf("%d / %d / %d", res.Sched.Submitted, res.Sched.Completed, res.Sched.Dropped))
	t.AddRow("mean queue wait", res.Sched.MeanWait().Round(time.Second).String())
	t.AddRow("delivered node-hours", fmt.Sprintf("%.4g", res.TotalUsage.NodeHours))
	t.AddRow("compute energy", res.TotalUsage.Energy.String())
	t.AddRow("fleet-mix activity scale", fmt.Sprintf("%.4f", res.MixScale))
	fmt.Println(t.String())
}
