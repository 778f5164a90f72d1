package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/jsonwire"
	"github.com/greenhpc/archertwin/internal/report"
	"github.com/greenhpc/archertwin/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden wire file")

// sampleTime is a fixed instant so the golden bytes never depend on the
// clock.
var sampleTime = time.Date(2026, 8, 1, 12, 30, 0, 0, time.UTC)

// wireSamples builds one populated instance of every v1 wire type. Field
// values are arbitrary but fixed; what the golden file pins is the JSON
// *shape* — every field name, nesting and omission rule of the contract,
// including the domain types (scenario.Spec, scenario.Result, report
// tables) that travel inside the envelopes. Renaming or retagging any of
// them breaks this test, which is the point: v1 shapes may only change
// with a new version prefix.
func wireSamples() map[string]any {
	started := sampleTime.Add(time.Second)
	finished := sampleTime.Add(2 * time.Second)
	spec := scenario.Spec{
		Name:       "wire-sample",
		Nodes:      32,
		Days:       2,
		WarmupDays: 1,
		Seed:       7,
		Axes: scenario.Axes{
			Frequency: []string{"stock", "capped"},
			GridMean:  []float64{200, 65},
		},
	}
	result := scenario.Result{
		Scenario:  scenario.Scenario{Index: 1, Name: "freq=capped"},
		MeanPower: 1500,
		MeanUtil:  0.9,
		SimDigest: "abcdef0123456789",
	}
	status := SweepStatus{
		ID:        "sweep-1",
		Name:      "wire-sample",
		SpecKey:   "0123456789abcdef",
		State:     StateRunning,
		Submitted: sampleTime,
		Started:   &started,
		Progress:  SweepProgress{Scenarios: 4, Simulations: 2, Done: 1},
	}
	terminal := status
	terminal.State = StateFailed
	terminal.Finished = &finished
	terminal.Error = "scenario 1 (freq=capped): boom"

	delta := report.NewDeltaTable("Sweep: wire-sample", "scenario", report.DeltaColumn{Header: "power", Format: report.KW})
	delta.SetBaseline("baseline", 1600)
	delta.Add("freq=capped", 1500)
	regime := report.NewTable("Regimes", "scenario", "regime")
	regime.AddRow("baseline", "green-hours")

	return map[string]any{
		"health": Health{OK: true},
		"error_envelope": ErrorEnvelope{
			Error:  &Error{Code: ErrSweepNotDone, Message: "sweep sweep-1 is running"},
			Status: &status,
		},
		"error_overloaded": ErrorEnvelope{
			Error: &Error{Code: ErrOverloaded, Message: "executor saturated; retry after 3s"},
		},
		"sweep_status": terminal,
		"sweep_list":   SweepList{Sweeps: []SweepStatus{status}, Total: 3},
		"results_payload": ResultsPayload{
			ID:          "sweep-1",
			Spec:        spec,
			Workers:     2,
			Simulations: 2,
			Results:     []scenario.Result{result},
			DeltaTable:  delta,
			RegimeTable: regime,
		},
		"service_stats": ServiceStats{
			Cache:         scenario.CacheStats{Hits: 3, Misses: 1, Size: 1, Capacity: 256, Bytes: 4096, BudgetBytes: 1 << 30},
			Sweeps:        map[SweepState]int{StateDone: 2},
			Executing:     1,
			MaxConcurrent: 2,
			ShardsServed:  5,
		},
		"shard_request": ShardRequest{
			SweepKey:  "0123456789abcdef",
			Shard:     0,
			Of:        2,
			Spec:      spec,
			Scenarios: []int{0, 1},
		},
		"shard_response": ShardResponse{Shard: 0, Results: []scenario.Result{result}, Simulations: 1},
		"join_request":   JoinRequest{URL: "http://10.0.0.7:8990"},
		"worker_list": WorkerList{Workers: []WorkerInfo{
			{URL: "http://10.0.0.7:8990", LastSeen: sampleTime, Shards: 5},
		}},
	}
}

// TestWireGolden pins the v1 wire shapes byte-for-byte against
// testdata/wire_v1.json. Regenerate deliberately with
// `go test ./internal/api -run TestWireGolden -update` after a
// compatible additive change; an incompatible change needs a v2.
func TestWireGolden(t *testing.T) {
	got, err := json.MarshalIndent(wireSamples(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "wire_v1.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("v1 wire shapes drifted from %s.\nIf the change is additive and deliberate, regenerate with -update and update docs/api.md; otherwise it needs a new version prefix.\ngot:\n%s", path, got)
	}

	// The results and shard bodies are served through their own codec:
	// its bytes must be the golden's, compacted.
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatal(err)
	}
	payload := wireSamples()["results_payload"].(ResultsPayload)
	shard := wireSamples()["shard_response"].(ShardResponse)
	for name, v := range map[string]jsonwire.Appender{
		"results_payload": &payload,
		"shard_response":  &shard,
	} {
		var compact bytes.Buffer
		if err := json.Compact(&compact, golden[name]); err != nil {
			t.Fatal(err)
		}
		codec, err := v.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(codec, compact.Bytes()) {
			t.Errorf("%s: codec bytes differ from the golden:\n got %s\nwant %s", name, codec, compact.Bytes())
		}
	}
}

// TestSpecKeyStable pins the spec-key algorithm: the key is a pure
// function of the canonical spec, identical for a spec and its
// spelled-out canonical form, and 16 hex characters. Journals on disk
// store spec keys, so the flagship spec's key is pinned by value.
func TestSpecKeyStable(t *testing.T) {
	short := scenario.Spec{Name: "k", Nodes: 32, Days: 2, WarmupDays: 1, Seed: 7}
	if got, want := SpecKey(short), SpecKey(short.Canonical()); got != want {
		t.Errorf("SpecKey(spec) = %s but SpecKey(spec.Canonical()) = %s", got, want)
	}
	if len(SpecKey(short)) != 16 {
		t.Errorf("SpecKey length = %d, want 16", len(SpecKey(short)))
	}
	if got, want := SpecKey(scenario.DefaultSpec()), "b3b6536ad01ce2b2"; got != want {
		t.Errorf("SpecKey(DefaultSpec()) = %s, want %s", got, want)
	}
}
