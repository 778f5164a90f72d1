package scenario

import (
	"context"
	"reflect"
	"testing"
)

// partitionSpec sweeps three axes — including the carbon axis, whose
// avoided-carbon aggregation is exactly the cross-scenario state a shard
// cannot see — so Partition/RunScenarios/Assemble are exercised on the
// shapes the fabric ships.
func partitionSpec() Spec {
	return Spec{
		Name:       "partition",
		Nodes:      32,
		Days:       2,
		WarmupDays: 1,
		Seed:       7,
		Axes: Axes{
			Frequency:    []string{"stock", "capped"},
			GridMean:     []float64{200, 65},
			CarbonPolicy: []string{"fcfs", "delay-flexible"},
		},
	}
}

// TestPartitionStructure: every scenario has one affinity key and one
// run key, GroupOrder lists each affinity key once in expansion order,
// and the simulation count matches what a real run reports.
func TestPartitionStructure(t *testing.T) {
	spec := partitionSpec()
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Keys) != len(scenarios) || len(part.RunKeys) != len(scenarios) {
		t.Fatalf("Partition sizes %d/%d, want %d", len(part.Keys), len(part.RunKeys), len(scenarios))
	}
	// GroupOrder lists each affinity key once, in first-appearance order.
	var order []string
	seen := map[string]bool{}
	for _, key := range part.Keys {
		if !seen[key] {
			seen[key] = true
			order = append(order, key)
		}
	}
	if !reflect.DeepEqual(part.GroupOrder, order) {
		t.Errorf("GroupOrder = %q, want the distinct Keys in first-appearance order %q", part.GroupOrder, order)
	}
	// The grid axis shares simulations: distinct run keys must undercount
	// scenarios, and match the executed-sweep report exactly.
	res, err := (&Runner{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if part.Simulations != res.Simulations {
		t.Errorf("Partition.Simulations = %d, executed run reports %d", part.Simulations, res.Simulations)
	}
	if part.Simulations >= len(scenarios) {
		t.Errorf("Simulations = %d not below %d scenarios — grid-axis sharing lost", part.Simulations, len(scenarios))
	}
}

// TestRunScenariosSubsetMatchesFullRun: any subset run yields results
// (values, digests) identical to the same indices of a full run — the
// seed derivation cannot depend on which other scenarios ran alongside.
func TestRunScenariosSubsetMatchesFullRun(t *testing.T) {
	ctx := context.Background()
	spec := partitionSpec()
	full, err := (&Runner{Workers: 2}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, indices := range [][]int{{0}, {1, 3}, {2, 5, 7}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		subset, _, err := (&Runner{Workers: 2}).RunScenarios(ctx, spec, indices, nil)
		if err != nil {
			t.Fatalf("RunScenarios(%v): %v", indices, err)
		}
		for j, idx := range indices {
			got, want := subset[j], full.Results[idx]
			// The full run fills cross-scenario aggregation a subset cannot
			// see; blank it on both sides before comparing.
			want.AvoidedCarbon, want.HasBaseline = 0, false
			got.AvoidedCarbon, got.HasBaseline = 0, false
			if !reflect.DeepEqual(got, want) {
				t.Errorf("indices %v: scenario %d differs between subset and full run:\nsubset: %+v\nfull:   %+v",
					indices, idx, got, want)
			}
		}
	}
}

// TestRunScenariosValidation: malformed index lists are rejected before
// any simulation runs.
func TestRunScenariosValidation(t *testing.T) {
	ctx := context.Background()
	r := &Runner{Workers: 1}
	for name, indices := range map[string][]int{
		"empty":      {},
		"negative":   {-1},
		"descending": {3, 1},
		"duplicate":  {2, 2},
		"overflow":   {99},
	} {
		if _, _, err := r.RunScenarios(ctx, partitionSpec(), indices, nil); err == nil {
			t.Errorf("%s (%v): want error", name, indices)
		}
	}
}

// TestAssembleReconstructsFullRun: slicing a sweep into per-group shards,
// running each independently, and assembling the merged results
// reproduces the single-process SweepResults exactly — including the
// recomputed avoided-carbon aggregation and the rendered tables.
func TestAssembleReconstructsFullRun(t *testing.T) {
	ctx := context.Background()
	spec := partitionSpec()
	full, err := (&Runner{Workers: 2}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}

	// Two "shards": alternating affinity groups, each on its own Runner
	// (its own memo, as on separate worker processes).
	merged := make([]Result, len(part.Keys))
	for shard := 0; shard < 2; shard++ {
		inShard := map[string]bool{}
		for g, key := range part.GroupOrder {
			inShard[key] = g%2 == shard
		}
		var indices []int
		for i, key := range part.Keys {
			if inShard[key] {
				indices = append(indices, i)
			}
		}
		results, _, err := (&Runner{Workers: 2}).RunScenarios(ctx, spec, indices, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j, idx := range indices {
			merged[idx] = results[j]
		}
	}

	got, err := Assemble(spec, merged, full.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, full.Results) {
		t.Error("assembled results differ from the single-process run")
	}
	if got.Simulations != full.Simulations {
		t.Errorf("assembled Simulations = %d, full run = %d", got.Simulations, full.Simulations)
	}
	if got.Table().String() != full.Table().String() {
		t.Error("assembled delta table renders differently")
	}
	if got.RegimeTable().String() != full.RegimeTable().String() {
		t.Error("assembled regime table renders differently")
	}
	if got.CarbonTable().String() != full.CarbonTable().String() {
		t.Error("assembled carbon table renders differently")
	}
}

// TestAssembleValidation: mismatched lengths, wrong indices and missing
// digests are rejected.
func TestAssembleValidation(t *testing.T) {
	spec := partitionSpec()
	scenarios, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(spec, make([]Result, 2), 1); err == nil {
		t.Error("short result slice must be rejected")
	}
	bad := make([]Result, len(scenarios))
	for i := range bad {
		bad[i].Scenario.Index = i
		bad[i].SimDigest = "x"
	}
	bad[3].Scenario.Index = 4
	if _, err := Assemble(spec, bad, 1); err == nil {
		t.Error("misindexed result must be rejected")
	}
	bad[3].Scenario.Index = 3
	bad[5].SimDigest = ""
	if _, err := Assemble(spec, bad, 1); err == nil {
		t.Error("digestless result must be rejected")
	}
}
