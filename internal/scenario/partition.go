package scenario

// This file is the one sweep loop and the spec views it stands on: how
// an expanded grid partitions into shard-affinity groups (Partition),
// how a sweep resolves its scenarios through an executor (RunSweep) and
// how per-scenario results merge back into one SweepResults (Assemble).
// Partition and Assemble are pure functions of the canonical spec, so a
// coordinator and its workers agree on scenario identity without ever
// shipping expanded scenarios over the wire — only indices travel. A
// sweep is expanded once, where it enters, and its Partition travels on.

import (
	"context"
	"errors"
	"fmt"
)

// Partition is a sweep's one expansion: its canonical spec, its
// scenarios, and how they shard across replicas.
type Partition struct {
	// Keys holds, per expanded scenario, the canonical key of the
	// simulation prefix it shares (Scenario simKey): the consistent-hash
	// affinity key. Scenarios with equal keys share a simulation — or a
	// checkpoint/fork family — so a partitioner must keep them on one
	// replica to preserve the sharing; hashing the key does exactly that,
	// and also lands repeat traffic for the same configuration on the
	// replica whose memo is already warm.
	Keys []string
	// RunKeys holds, per expanded scenario, the key of its distinct
	// simulation *results* (simKey plus any mid-sweep divergence):
	// scenarios sharing a run key are one unit of work.
	RunKeys []string
	// GroupOrder lists each distinct affinity key once, in
	// first-appearance (expansion) order, so iteration over the groups
	// can be deterministic.
	GroupOrder []string
	// Simulations is the number of distinct simulations the whole sweep
	// needs (distinct run keys) — the denominator a coordinator reports
	// progress against, matching a single-process run's Simulations.
	Simulations int

	spec      *Spec      // the canonical spec, shared by every copy
	scenarios []Scenario // its expansion
}

// Partition expands and validates the spec and returns its sharding
// structure.
func (s Spec) Partition() (Partition, error) {
	canonical := s.withDefaults()
	scenarios, err := canonical.expand()
	if err != nil {
		return Partition{}, err
	}
	p := Partition{
		spec:      &canonical,
		Keys:      make([]string, len(scenarios)),
		RunKeys:   make([]string, len(scenarios)),
		scenarios: scenarios,
	}
	keys, runKeys := map[string]bool{}, map[string]bool{}
	for i := range scenarios {
		run := scenarios[i].runKey()
		key := scenarios[i].simKeyOf(run)
		p.Keys[i], p.RunKeys[i] = key, run
		if !keys[key] {
			keys[key] = true
			p.GroupOrder = append(p.GroupOrder, key)
		}
		runKeys[run] = true
	}
	p.Simulations = len(runKeys)
	return p, nil
}

// Spec returns the canonical (defaulted) spec the partition expands.
func (p Partition) Spec() Spec { return *p.spec }

// CheckSelection reports whether indices select scenarios of the
// partition as a shard must: at least one, ascending, unique and inside
// the expansion.
func (p Partition) CheckSelection(indices []int) error {
	if len(indices) == 0 {
		return errors.New("scenario: empty scenario selection")
	}
	for i, idx := range indices {
		if idx < 0 || idx >= len(p.Keys) || i > 0 && idx <= indices[i-1] {
			return fmt.Errorf("scenario: selection indices must be ascending, unique and below %d", len(p.Keys))
		}
	}
	return nil
}

// Assemble merges per-scenario results — typically gathered from shard
// replicas — into one SweepResults, recomputing the cross-scenario
// aggregation (avoided carbon against each scenario's baseline-policy
// counterpart) that no single shard could see. results must hold
// exactly one entry per expanded scenario, in expansion order, as
// produced by Runner.RunScenarios; workers records the replica count
// for reporting.
//
// Determinism contract: for results gathered from RunScenarios slices
// at any shard count, the assembled SweepResults — per-scenario values,
// simulation digests, and every rendered table — is byte-identical to a
// single-process Runner.Run of the same spec.
func Assemble(spec Spec, results []Result, workers int) (*SweepResults, error) {
	part, err := spec.Partition()
	if err != nil {
		return nil, err
	}
	return part.Assemble(results, workers)
}

// Assemble is the package-level Assemble over the partition's spec.
func (p Partition) Assemble(results []Result, workers int) (*SweepResults, error) {
	if len(results) != len(p.scenarios) {
		return nil, fmt.Errorf("scenario: assembling %d results against %d expanded scenarios",
			len(results), len(p.scenarios))
	}
	for i, sc := range p.scenarios {
		if got := results[i].Scenario.Index; got != i {
			return nil, fmt.Errorf("scenario: result %d carries scenario index %d", i, got)
		}
		if results[i].SimDigest == "" {
			return nil, fmt.Errorf("scenario: result %d (%s) lacks a simulation digest", i, sc.Name)
		}
		// Cross-scenario fields are recomputed below; clear whatever a
		// partial view may have left.
		results[i].AvoidedCarbon = 0
		results[i].HasBaseline = false
	}
	fillAvoidedCarbon(p.spec, p.scenarios, results)
	return &SweepResults{Spec: *p.spec, Results: results, Simulations: p.Simulations, Workers: workers}, nil
}

// LandFunc receives resolved scenarios: their expansion indices,
// ascending, whose results were just written to slots[index].
type LandFunc func(indices []int, slots []Result) error

// Executor resolves the scenarios of part at the given ascending
// expansion indices into slots (its caller's, one per expanded scenario),
// landing every simulation's whole set of them as it resolves:
// Runner.Execute lands one simulation per call, the fabric coordinator
// one shard per call. Landings never overlap; after a land error the
// executor lands nothing more, stops and returns that error unwrapped.
// It returns its width: the pool size, or how many fabric workers
// contributed.
type Executor func(ctx context.Context, part Partition, indices []int, slots []Result, land LandFunc) (width int, err error)

// RunSweep is the one sweep loop that in-process, durable and fabric
// sweeps share, over the partition their entry point computed. It seeds
// the result slots from have (known results by expansion index), hands
// every unresolved index and the slots to exec in one call, and passes
// each landing to land (when non-nil) before reporting progress as
// distinct landed run keys over Partition.Simulations. It then assembles
// the sweep, with the executor's width capped at the simulation count as
// Workers.
func RunSweep(ctx context.Context, part Partition, have map[int]Result, exec Executor,
	progress func(done, total int), land LandFunc) (*SweepResults, error) {
	runKeys, sims := part.RunKeys, part.Simulations // what the closures keep of part
	slots := make([]Result, len(runKeys))           // a filled slot carries its SimDigest
	for i, res := range have {
		if i >= 0 && i < len(slots) && res.Scenario.Index == i && res.SimDigest != "" {
			slots[i] = res
		}
	}
	missing := make([]int, 0, len(slots))
	resolved := map[string]bool{} // run keys with landed scenarios
	for i := range slots {
		if slots[i].SimDigest != "" {
			resolved[runKeys[i]] = true
		} else {
			missing = append(missing, i)
		}
	}
	report := func() {
		if progress != nil {
			progress(len(resolved), sims)
		}
	}
	report()
	width, err := exec(ctx, part, missing, slots, func(indices []int, slots []Result) error {
		if land != nil {
			if err := land(indices, slots); err != nil {
				return err
			}
		}
		for _, i := range indices {
			resolved[runKeys[i]] = true
		}
		report()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if width > part.Simulations {
		width = part.Simulations
	}
	// assemble refuses a slot left unfilled: it lacks a digest.
	return part.Assemble(slots, width)
}
