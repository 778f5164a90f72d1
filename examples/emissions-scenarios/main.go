// Emissions scenarios: combines a simulated facility year with grid
// carbon-intensity scenarios to answer the paper's SS2 question — when
// does the frequency cap actually reduce total emissions, and when does it
// make them worse?
//
// The frequency cap cuts energy ~16% but also cuts delivered node-hours
// ~10%, so the machine must run longer (or buy a second machine sooner)
// for the same science. On a scope-3-dominated (very clean) grid the cap
// is counterproductive; on today's GB grid it wins clearly.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/greenhpc/archertwin/internal/core"
	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/emissions"
	"github.com/greenhpc/archertwin/internal/policy"
	"github.com/greenhpc/archertwin/internal/report"
	"github.com/greenhpc/archertwin/internal/units"
)

// operatingPoint summarises one month-long scaled run.
type operatingPoint struct {
	name      string
	power     units.Power // mean cabinet power
	nodeHours float64     // delivered node-hours
	energy    units.Energy
}

func runPoint(name string, capped bool) operatingPoint {
	start := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg := core.ScaledConfig(200, start, 28)
	cfg.Windows = []core.Window{{Label: "w", From: start.AddDate(0, 0, 4), To: start.AddDate(0, 0, 28)}}
	perfDet := cpu.PerformanceDeterminism
	changes := []policy.Change{{At: start, Mode: &perfDet}}
	if capped {
		cs := cfg.Facility.CPU.CappedSetting()
		changes = append(changes, policy.Change{At: start.AddDate(0, 0, 1), Setting: &cs})
	}
	cfg.Timeline = policy.Timeline{Changes: changes}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	w, _ := res.WindowByLabel("w")
	return operatingPoint{
		name:      name,
		power:     w.MeanPower,
		nodeHours: res.TotalUsage.NodeHours,
		energy:    res.TotalUsage.Energy,
	}
}

func main() {
	log.SetFlags(0)
	stock := runPoint("2.25 GHz + boost", false)
	capped := runPoint("2.0 GHz capped", true)

	// Scale the 200-node emissions profile accordingly: embodied share of
	// a 200-node slice of the 12 kt machine.
	params := emissions.Params{
		Embodied: units.Kilotonnes(12).Scale(200.0 / 5860.0),
		Lifetime: 6 * 365 * 24 * time.Hour,
	}

	grids := []struct {
		name string
		ci   units.CarbonIntensity
	}{
		{"2022 GB grid", units.GramsPerKWh(200)},
		{"2030 low-carbon grid", units.GramsPerKWh(65)},
		{"wind/nuclear future grid", units.GramsPerKWh(20)},
	}

	year := 365 * 24 * time.Hour
	for _, g := range grids {
		t := report.NewTable(
			fmt.Sprintf("Scenario: %s (%v)", g.name, g.ci),
			"operating point", "mean power", "scope 2 /yr", "scope 3 /yr", "total /yr",
			"nodeh per tCO2e", "regime")
		for _, pt := range []operatingPoint{stock, capped} {
			w := params.Account(pt.power, year, g.ci)
			// Node-hours scale from the 4-week run to a year.
			annualNodeh := pt.nodeHours * (year.Hours() / (28 * 24))
			eff := emissions.ComputeEfficiency(annualNodeh, w.Total)
			t.AddRow(pt.name, pt.power.String(),
				fmt.Sprintf("%.0f t", w.Scope2.Tonnes()),
				fmt.Sprintf("%.0f t", w.Scope3.Tonnes()),
				fmt.Sprintf("%.0f t", w.Total.Tonnes()),
				fmt.Sprintf("%.0f", eff.NodeHoursPerTonne),
				emissions.RegimeOf(w).String())
		}
		fmt.Println(t.String())
	}

	fmt.Println("Reading: on a high-carbon grid the cap raises node-hours per tonne")
	fmt.Println("(emissions efficiency improves); as the grid decarbonises the advantage")
	fmt.Println("shrinks and eventually inverts - exactly the paper's SS2 decision rule.")
}
