package apps

import (
	"math"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/cpu"
	"github.com/greenhpc/archertwin/internal/roofline"
	"github.com/greenhpc/archertwin/internal/units"
)

func surrogateApp() *App {
	return &App{
		Name:       "climate-model",
		Kernel:     roofline.Kernel{ComputeFraction: 0.3},
		ActCore:    0.6,
		ActUncore:  0.9,
		RefNodes:   32,
		RefRuntime: 12 * time.Hour,
	}
}

func goodSurrogate(spec *cpu.Spec, app *App) Surrogate {
	return Surrogate{
		Name:            "learned-emulator",
		TrainingEnergy:  TrainingEnergyFromRuns(spec, app, spec.DefaultSetting(), cpu.PowerDeterminism, 200),
		SpeedupFactor:   50,
		NodeFactor:      0.25,
		CoveredFraction: 0.8,
	}
}

func TestSurrogateValidate(t *testing.T) {
	s := spec()
	app := surrogateApp()
	if err := goodSurrogate(s, app).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Surrogate{
		{Name: "", SpeedupFactor: 2, NodeFactor: 1, CoveredFraction: 1},
		{Name: "x", SpeedupFactor: 1, NodeFactor: 1, CoveredFraction: 1},
		{Name: "x", SpeedupFactor: 2, NodeFactor: 0, CoveredFraction: 1},
		{Name: "x", SpeedupFactor: 2, NodeFactor: 2, CoveredFraction: 1},
		{Name: "x", SpeedupFactor: 2, NodeFactor: 1, CoveredFraction: 0},
		{Name: "x", TrainingEnergy: units.Joules(-1), SpeedupFactor: 2, NodeFactor: 1, CoveredFraction: 1},
	}
	for i, sg := range bad {
		if err := sg.Validate(); err == nil {
			t.Errorf("bad surrogate %d accepted", i)
		}
	}
}

func TestRunEnergyScalesWithNodes(t *testing.T) {
	s := spec()
	app := surrogateApp()
	e32 := RunEnergy(s, app, s.DefaultSetting(), cpu.PowerDeterminism)
	app1 := *app
	app1.RefNodes = 1
	e1 := RunEnergy(s, &app1, s.DefaultSetting(), cpu.PowerDeterminism)
	if math.Abs(e32.Joules()/e1.Joules()-32) > 1e-9 {
		t.Fatalf("energy ratio = %v, want 32", e32.Joules()/e1.Joules())
	}
	// Zero RefNodes treated as 1.
	app0 := *app
	app0.RefNodes = 0
	if RunEnergy(s, &app0, s.DefaultSetting(), cpu.PowerDeterminism) != e1 {
		t.Fatal("zero-node run energy wrong")
	}
}

func TestSurrogateRunEnergyReduces(t *testing.T) {
	s := spec()
	app := surrogateApp()
	sg := goodSurrogate(s, app)
	conv := RunEnergy(s, app, s.DefaultSetting(), cpu.PowerDeterminism)
	sur, err := SurrogateRunEnergy(s, app, sg, s.DefaultSetting(), cpu.PowerDeterminism)
	if err != nil {
		t.Fatal(err)
	}
	// 20% uncovered + 80% * (0.25/50): ~20.4% of the conventional energy.
	want := conv.Joules() * (0.2 + 0.8*0.25/50)
	if math.Abs(sur.Joules()-want) > 1e-6*want {
		t.Fatalf("surrogate energy = %v, want %v", sur.Joules(), want)
	}
}

func TestBreakEvenRuns(t *testing.T) {
	s := spec()
	app := surrogateApp()
	sg := goodSurrogate(s, app)
	n, err := BreakEvenRuns(s, app, sg, s.DefaultSetting(), cpu.PowerDeterminism)
	if err != nil {
		t.Fatal(err)
	}
	// Training = 200 conventional runs; each run saves ~79.6% -> break-even
	// around 200/0.796 ~ 252 runs.
	if n < 240 || n > 265 {
		t.Fatalf("break-even = %d runs, want ~252", n)
	}
	// A marginal surrogate (valid parameters always save *something*) has a
	// correspondingly enormous break-even.
	marginal := sg
	marginal.SpeedupFactor = 1.01
	marginal.NodeFactor = 1.0
	marginal.CoveredFraction = 0.01
	nm, err := BreakEvenRuns(s, app, marginal, s.DefaultSetting(), cpu.PowerDeterminism)
	if err != nil {
		t.Fatal(err)
	}
	if nm < 100*n {
		t.Fatalf("marginal break-even = %d, expected orders of magnitude above %d", nm, n)
	}
	// Invalid parameters error.
	bad := sg
	bad.SpeedupFactor = 0.5
	if _, err := BreakEvenRuns(s, app, bad, s.DefaultSetting(), cpu.PowerDeterminism); err == nil {
		t.Fatal("invalid surrogate accepted")
	}
}
