// Command jobsreport analyses a sacct-style per-job energy CSV exported by
// `archer2sim -jobs-csv`, producing the per-research-area energy-intensity
// breakdown in the style of the HPC-JEEP report the paper builds on.
//
// Usage:
//
//	archer2sim -summary -quiet -jobs-csv jobs.csv
//	jobsreport -in jobs.csv [-top 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"github.com/greenhpc/archertwin/internal/report"
	"github.com/greenhpc/archertwin/internal/telemetry"
	"github.com/greenhpc/archertwin/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jobsreport: ")
	in := flag.String("in", "", "input job CSV (required)")
	top := flag.Int("top", 10, "number of top energy consumers to list")
	flag.Parse()
	if *in == "" {
		log.Fatal("-in is required (export one with: archer2sim -jobs-csv jobs.csv)")
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	records, err := telemetry.ReadJobRecords(f)
	if err != nil {
		log.Fatal(err)
	}
	if len(records) == 0 {
		log.Fatal("no records")
	}

	// Per-class aggregation.
	type agg struct {
		jobs      int
		nodeHours float64
		energy    units.Energy
	}
	byClass := map[string]*agg{}
	var total agg
	for _, r := range records {
		a := byClass[r.Class]
		if a == nil {
			a = &agg{}
			byClass[r.Class] = a
		}
		a.jobs++
		a.nodeHours += r.NodeHours()
		a.energy += r.Energy
		total.jobs++
		total.nodeHours += r.NodeHours()
		total.energy += r.Energy
	}
	names := make([]string, 0, len(byClass))
	for n := range byClass {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return byClass[names[i]].energy > byClass[names[j]].energy
	})

	t := report.NewTable(
		fmt.Sprintf("Energy use by research area (%d jobs)", total.jobs),
		"class", "jobs", "node-hours", "energy", "kWh/nodeh", "share of energy")
	for _, n := range names {
		a := byClass[n]
		intensity := 0.0
		if a.nodeHours > 0 {
			intensity = a.energy.KilowattHours() / a.nodeHours
		}
		t.AddRow(n, fmt.Sprint(a.jobs),
			fmt.Sprintf("%.3g", a.nodeHours),
			a.energy.String(),
			fmt.Sprintf("%.3f", intensity),
			fmt.Sprintf("%.1f%%", a.energy.Joules()/total.energy.Joules()*100))
	}
	t.AddRow("TOTAL", fmt.Sprint(total.jobs),
		fmt.Sprintf("%.3g", total.nodeHours), total.energy.String(),
		fmt.Sprintf("%.3f", total.energy.KilowattHours()/total.nodeHours), "100%")
	fmt.Println(t.String())

	if *top > 0 {
		// Top consumers by energy, ties in record order.
		topN := telemetry.TopConsumers(records, *top)
		tt := report.NewTable(fmt.Sprintf("Top %d energy consumers", len(topN)),
			"jobid", "class", "nodes", "runtime", "setting", "energy")
		for _, r := range topN {
			tt.AddRow(fmt.Sprint(r.ID), r.Class, fmt.Sprint(r.Nodes),
				r.End.Sub(r.Start).Round(1e9).String(), r.Setting, r.Energy.String())
		}
		fmt.Println(tt.String())
	}
}
