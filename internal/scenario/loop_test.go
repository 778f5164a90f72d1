package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// renderAll is everything a consumer of a sweep sees: the per-scenario
// simulation digests and the three rendered tables.
func renderAll(res *SweepResults) string {
	out := fmt.Sprint(res.Simulations, res.Workers)
	for _, r := range res.Results {
		out += "|" + r.SimDigest
	}
	return out + "\n" + res.Table().String() + res.RegimeTable().String() + res.CarbonTable().String()
}

// TestRunSweepContract pins the one sweep loop's contract: for every
// subset of a spec's simulations seeded as already-known results, the
// loop executes exactly the missing simulations, lands each of them
// exactly once, and assembles a sweep byte-identical to a plain Run.
func TestRunSweepContract(t *testing.T) {
	ctx := context.Background()
	spec := partitionSpec()
	ref, err := (&Runner{Workers: 2}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(ref)
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	var runKeys []string
	seen := map[string]bool{}
	for _, key := range part.RunKeys {
		if !seen[key] {
			seen[key] = true
			runKeys = append(runKeys, key)
		}
	}
	if len(runKeys) < 4 {
		t.Fatalf("spec has %d simulations; the subsets would prove little", len(runKeys))
	}

	r := &Runner{Workers: 2, MemoCap: -1} // no memo: every missing simulation executes
	for mask := 0; mask < 1<<len(runKeys); mask++ {
		known := map[string]bool{}
		for b, key := range runKeys {
			known[key] = mask&(1<<b) != 0
		}
		have := map[int]Result{}
		for i, key := range part.RunKeys {
			if known[key] {
				have[i] = ref.Results[i]
			}
		}
		landed := map[string]int{}
		before := r.CacheStats().Misses
		var lastDone, lastTotal int
		got, err := RunSweep(ctx, part, have, r.Execute,
			func(done, total int) { lastDone, lastTotal = done, total },
			func(indices []int, slots []Result) error {
				landed[part.RunKeys[indices[0]]]++
				for _, i := range indices {
					if _, ok := have[i]; ok {
						t.Errorf("mask %b: scenario %d landed although seeded", mask, i)
					}
					if part.RunKeys[i] != part.RunKeys[indices[0]] || slots[i].Scenario.Index != i {
						t.Errorf("mask %b: land mixes simulations or misaligns results at %d", mask, i)
					}
				}
				return nil
			})
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		missing := 0
		for _, key := range runKeys {
			if !known[key] {
				missing++
				if landed[key] != 1 {
					t.Errorf("mask %b: simulation %q landed %d times, want 1", mask, key, landed[key])
				}
			}
		}
		if len(landed) != missing {
			t.Errorf("mask %b: %d simulations landed, want %d", mask, len(landed), missing)
		}
		if d := r.CacheStats().Misses - before; d != missing {
			t.Errorf("mask %b: executed %d simulations, want %d", mask, d, missing)
		}
		if lastDone != part.Simulations || lastTotal != part.Simulations {
			t.Errorf("mask %b: final progress %d/%d, want %d/%d", mask, lastDone, lastTotal, part.Simulations, part.Simulations)
		}
		if s := renderAll(got); s != want {
			t.Errorf("mask %b: assembled sweep differs from Run:\n%s\nvs\n%s", mask, s, want)
		}
		if !reflect.DeepEqual(got.Results, ref.Results) {
			t.Errorf("mask %b: results differ from Run", mask)
		}
	}
}

// TestRunSweepLandError: an error from land fails the sweep with that
// very error, and no land runs after it — whether the simulations come
// from the memo (landed at once) or from the pool.
func TestRunSweepLandError(t *testing.T) {
	ctx := context.Background()
	spec := partitionSpec()
	boom := errors.New("journal full")
	warm := &Runner{Workers: 2}
	if _, err := warm.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Runner{"memo": warm, "pool": {Workers: 2}} {
		calls := 0
		_, err := RunSweep(ctx, part, nil, r.Execute, nil, func([]int, []Result) error {
			if calls++; calls > 1 {
				t.Errorf("%s: land called again after it failed", name)
			}
			return boom
		})
		if err != boom {
			t.Errorf("%s: sweep returned %v, want the land error itself", name, err)
		}
		if calls != 1 {
			t.Errorf("%s: land called %d times, want 1", name, calls)
		}
	}
}

// TestWarmLandingsInGroupOrder: a memo-warm sweep lands its simulations
// on the calling goroutine in group order (each run key's first
// appearance in expansion order), however wide the pool, so whatever a
// land writes comes out in one order.
func TestWarmLandingsInGroupOrder(t *testing.T) {
	ctx := context.Background()
	spec := partitionSpec()
	r := &Runner{Workers: 4}
	if _, err := r.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	var want [][]int
	group := map[string]int{}
	for i, key := range part.RunKeys {
		g, ok := group[key]
		if !ok {
			g = len(want)
			group[key] = g
			want = append(want, nil)
		}
		want[g] = append(want[g], i)
	}
	for run := 0; run < 20; run++ {
		var got [][]int
		if _, err := RunSweep(ctx, part, nil, r.Execute, nil, func(indices []int, _ []Result) error {
			got = append(got, append([]int(nil), indices...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: landings %v, want group order %v", run, got, want)
		}
	}
}
