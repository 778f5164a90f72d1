// Package workload generates the synthetic ARCHER2 job stream: Poisson
// arrivals of jobs drawn from the research-area fleet classes, with
// per-class lognormal node-count and runtime distributions, at a rate
// calibrated so the facility runs saturated (>90% utilisation) exactly as
// the paper reports for every measurement window.
package workload

import (
	"fmt"
	"math"
	"time"

	"github.com/greenhpc/archertwin/internal/apps"
	"github.com/greenhpc/archertwin/internal/rng"
)

// JobSpec is one generated job before scheduling.
type JobSpec struct {
	ID    int
	Class string
	App   *apps.App
	// Nodes requested.
	Nodes int
	// RefRuntime is the runtime at the reference operating point (boost +
	// Power Determinism); the scheduler stretches it for the operating
	// point actually in force.
	RefRuntime time.Duration
	// Priority is the job's scheduling priority class (higher runs
	// first); zero is the default class. The scheduler orders its pending
	// queue by priority (optionally aged — see sched.Config.AgingHours)
	// and may preempt lower-priority running work for it.
	Priority int
	// Partition is the facility partition index the job targets (0 = the
	// primary CPU partition). Assigned by a pure hash of the job ID, like
	// Priority, so a heterogeneous run's job stream stays byte-identical
	// to the homogeneous one apart from the routing itself.
	Partition int
}

// PriorityClass is one level of a priority mix: jobs are assigned Level
// with probability Share (shares are normalised over the mix).
type PriorityClass struct {
	Level int
	Share float64
}

// PartitionShare routes a share of the job stream to facility partition
// Index. Shares are normalised over the mix, exactly as for priorities.
type PartitionShare struct {
	Index int
	Share float64
	// MaxJobNodes, when positive, caps the node count of jobs routed to
	// this partition (a small accelerator partition cannot absorb jobs
	// sized for the full CPU machine). The cap applies after the shape
	// draw, consuming nothing extra from the arrival stream.
	MaxJobNodes int
}

// Config parameterises a generator.
type Config struct {
	// Classes define the per-class job-shape distributions.
	Classes []apps.FleetClass
	// Mix supplies the (calibrated) App model for each class, in the same
	// order as Classes.
	Mix []apps.WeightedApp
	// MaxJobNodes caps the node count of a single job.
	MaxJobNodes int
	// MinRuntime / MaxRuntime clamp job runtimes.
	MinRuntime, MaxRuntime time.Duration
	// ArrivalRatePerHour is the Poisson job arrival rate.
	ArrivalRatePerHour float64
	// Priorities, when non-empty, assigns each job a scheduling priority
	// drawn from these classes. The draw is a pure hash of the job ID
	// under PrioritySeed — it consumes nothing from the generator's
	// arrival stream, so enabling priorities leaves every job's shape,
	// class and submit time bit-identical to a run without them.
	Priorities []PriorityClass
	// PrioritySeed seeds the per-job priority hash.
	PrioritySeed uint64
	// Partitions, when non-empty, routes each job to a facility partition
	// drawn from these shares. Like Priorities, the draw is a pure hash
	// of the job ID under PartitionSeed — it consumes nothing from the
	// arrival stream, so a heterogeneous run generates the same jobs as
	// a homogeneous one.
	Partitions []PartitionShare
	// PartitionSeed seeds the per-job partition hash.
	PartitionSeed uint64
}

// DefaultConfig returns the ARCHER2-like configuration over the given
// calibrated mix. The arrival rate is left zero; use CalibrateArrivalRate.
func DefaultConfig(mix []apps.WeightedApp) (Config, error) {
	classes := apps.FleetClasses()
	if len(mix) != len(classes) {
		return Config{}, fmt.Errorf("workload: mix size %d != classes %d", len(mix), len(classes))
	}
	return Config{
		Classes:     classes,
		Mix:         mix,
		MaxJobNodes: 1024,
		MinRuntime:  15 * time.Minute,
		MaxRuntime:  48 * time.Hour,
	}, nil
}

// Generator draws jobs deterministically from a split RNG stream.
type Generator struct {
	cfg    Config
	pick   *rng.Categorical
	stream *rng.Stream
	nextID int
	// logMedians holds each class's lognormal locations, the logs of its
	// node-count and runtime medians, taken once at construction.
	logMedians []logMedians
}

// logMedians is one class's pair of lognormal locations.
type logMedians struct {
	nodes, hours float64
}

// NewGenerator validates cfg and builds a generator using r (retained).
func NewGenerator(cfg Config, r *rng.Stream) (*Generator, error) {
	if len(cfg.Classes) == 0 || len(cfg.Classes) != len(cfg.Mix) {
		return nil, fmt.Errorf("workload: classes/mix mismatch (%d vs %d)", len(cfg.Classes), len(cfg.Mix))
	}
	if cfg.MaxJobNodes <= 0 {
		return nil, fmt.Errorf("workload: MaxJobNodes must be positive")
	}
	if cfg.MinRuntime <= 0 || cfg.MaxRuntime < cfg.MinRuntime {
		return nil, fmt.Errorf("workload: invalid runtime clamps [%v, %v]", cfg.MinRuntime, cfg.MaxRuntime)
	}
	if len(cfg.Priorities) > 0 {
		total := 0.0
		for _, pc := range cfg.Priorities {
			if pc.Share < 0 {
				return nil, fmt.Errorf("workload: negative priority share %v", pc.Share)
			}
			total += pc.Share
		}
		if total <= 0 {
			return nil, fmt.Errorf("workload: priority shares sum to zero")
		}
	}
	if len(cfg.Partitions) > 0 {
		total := 0.0
		for _, ps := range cfg.Partitions {
			if ps.Share < 0 {
				return nil, fmt.Errorf("workload: negative partition share %v", ps.Share)
			}
			if ps.Index < 0 {
				return nil, fmt.Errorf("workload: negative partition index %d", ps.Index)
			}
			total += ps.Share
		}
		if total <= 0 {
			return nil, fmt.Errorf("workload: partition shares sum to zero")
		}
	}
	weights := make([]float64, len(cfg.Classes))
	logs := make([]logMedians, len(cfg.Classes))
	for i, c := range cfg.Classes {
		weights[i] = c.Share
		logs[i] = logMedians{nodes: math.Log(c.NodesMedian), hours: math.Log(c.RuntimeMedian.Hours())}
	}
	return &Generator{cfg: cfg, pick: rng.NewCategorical(weights), stream: r, logMedians: logs}, nil
}

// Config returns the generator configuration.
func (g *Generator) Config() Config { return g.cfg }

// drawShape samples (nodes, runtime) for class i.
func (g *Generator) drawShape(i int, r *rng.Stream) (int, time.Duration) {
	cl := g.cfg.Classes[i]
	nodes := int(math.Round(r.LogNormal(g.logMedians[i].nodes, cl.NodesSigma)))
	if nodes < 1 {
		nodes = 1
	}
	if nodes > g.cfg.MaxJobNodes {
		nodes = g.cfg.MaxJobNodes
	}
	hours := r.LogNormal(g.logMedians[i].hours, cl.RuntimeSigma)
	rt := time.Duration(hours * float64(time.Hour))
	if rt < g.cfg.MinRuntime {
		rt = g.cfg.MinRuntime
	}
	if rt > g.cfg.MaxRuntime {
		rt = g.cfg.MaxRuntime
	}
	return nodes, rt
}

// Next generates the next job: the spec and the exponential interarrival
// gap to the following submission. The scheduler stamps the submission
// time (the simulation clock owns time).
func (g *Generator) Next() (JobSpec, time.Duration) {
	if g.cfg.ArrivalRatePerHour <= 0 {
		panic("workload: arrival rate not set; call CalibrateArrivalRate")
	}
	i := g.pick.Draw(g.stream)
	nodes, rt := g.drawShape(i, g.stream)
	g.nextID++
	spec := JobSpec{
		ID:         g.nextID,
		Class:      g.cfg.Classes[i].Name,
		App:        g.cfg.Mix[i].App,
		Nodes:      nodes,
		RefRuntime: rt,
		Priority:   g.priorityFor(g.nextID),
	}
	if len(g.cfg.Partitions) > 0 {
		ps := g.partitionFor(g.nextID)
		spec.Partition = ps.Index
		if ps.MaxJobNodes > 0 && spec.Nodes > ps.MaxJobNodes {
			spec.Nodes = ps.MaxJobNodes
		}
	}
	gapHours := g.stream.Exp(g.cfg.ArrivalRatePerHour)
	return spec, time.Duration(gapHours * float64(time.Hour))
}

// partitionFor routes a job to a partition share by hashing its ID, the
// same pure-function-of-(seed, id) idiom as priorityFor: no arrival-
// stream draws, so routing changes never perturb job shapes.
func (g *Generator) partitionFor(id int) PartitionShare {
	total := 0.0
	for _, ps := range g.cfg.Partitions {
		total += ps.Share
	}
	h := rng.DeriveSeed(g.cfg.PartitionSeed, fmt.Sprintf("partition/%d", id))
	u := float64(h>>11) / (1 << 53) * total
	cum := 0.0
	for _, ps := range g.cfg.Partitions {
		cum += ps.Share
		if u < cum {
			return ps
		}
	}
	return g.cfg.Partitions[len(g.cfg.Partitions)-1]
}

// priorityFor assigns a job's priority level by hashing its ID against
// the priority mix. The hash never touches the generator's arrival
// stream, so the assignment is a pure function of (seed, id) and two
// runs differing only in Priorities produce identical job streams.
func (g *Generator) priorityFor(id int) int {
	if len(g.cfg.Priorities) == 0 {
		return 0
	}
	total := 0.0
	for _, pc := range g.cfg.Priorities {
		total += pc.Share
	}
	h := rng.DeriveSeed(g.cfg.PrioritySeed, fmt.Sprintf("priority/%d", id))
	u := float64(h>>11) / (1 << 53) * total
	cum := 0.0
	for _, pc := range g.cfg.Priorities {
		cum += pc.Share
		if u < cum {
			return pc.Level
		}
	}
	return g.cfg.Priorities[len(g.cfg.Priorities)-1].Level
}

// MeanJobNodeHours estimates the expected node-hours per job by drawing n
// samples from a dedicated stream (leaving the generator's own stream
// untouched).
func (g *Generator) MeanJobNodeHours(n int) float64 {
	est := g.stream.Split("calibration-estimate")
	total := 0.0
	for k := 0; k < n; k++ {
		i := g.pick.Draw(est)
		nodes, rt := g.drawShape(i, est)
		total += float64(nodes) * rt.Hours()
	}
	return total / float64(n)
}

// CalibrateArrivalRate sets the Poisson arrival rate so that offered load
// equals `overSubscription` times the capacity of `nodes` compute nodes
// (overSubscription slightly above 1 keeps the queue saturated, which is
// how ARCHER2 sustains >90% utilisation).
func (g *Generator) CalibrateArrivalRate(nodes int, overSubscription float64) error {
	if nodes <= 0 || overSubscription <= 0 {
		return fmt.Errorf("workload: invalid calibration (nodes=%d, over=%v)", nodes, overSubscription)
	}
	mean := g.MeanJobNodeHours(20000)
	if mean <= 0 {
		return fmt.Errorf("workload: degenerate job size distribution")
	}
	g.cfg.ArrivalRatePerHour = float64(nodes) * overSubscription / mean
	return nil
}

// SetArrivalRate installs an already calibrated arrival rate, skipping
// the Monte-Carlo estimate. The rate is a pure function of the workload
// configuration and derived seed, so a checkpoint fork reuses the
// parent's value instead of re-estimating it on every branch.
func (g *Generator) SetArrivalRate(ratePerHour float64) error {
	if ratePerHour <= 0 {
		return fmt.Errorf("workload: invalid arrival rate %v", ratePerHour)
	}
	g.cfg.ArrivalRatePerHour = ratePerHour
	return nil
}
