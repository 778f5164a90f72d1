package scenario

import (
	"github.com/greenhpc/archertwin/internal/emissions"
	"github.com/greenhpc/archertwin/internal/jsonwire"
)

// Result's JSON is its Go field names in declaration order, as
// encoding/json writes a struct without tags; TestCodecCoversEveryField
// fails when a field is missing from these tables.

var scenarioFields = []jsonwire.Field[Scenario]{
	jsonwire.Int("Index", func(s *Scenario) *int { return &s.Index }),
	jsonwire.String("Name", func(s *Scenario) *string { return &s.Name }),
	jsonwire.String("Frequency", func(s *Scenario) *string { return &s.Frequency }),
	jsonwire.Float("GridMean", func(s *Scenario) *float64 { return &s.GridMean }),
	jsonwire.String("Scheduler", func(s *Scenario) *string { return &s.Scheduler }),
	jsonwire.String("Workload", func(s *Scenario) *string { return &s.Workload }),
	jsonwire.Int("Nodes", func(s *Scenario) *int { return &s.Nodes }),
	jsonwire.String("CarbonPolicy", func(s *Scenario) *string { return &s.CarbonPolicy }),
	jsonwire.String("MidFrequency", func(s *Scenario) *string { return &s.MidFrequency }),
	jsonwire.String("PriorityMix", func(s *Scenario) *string { return &s.PriorityMix }),
	jsonwire.String("BackfillPolicy", func(s *Scenario) *string { return &s.BackfillPolicy }),
	jsonwire.String("Preemption", func(s *Scenario) *string { return &s.Preemption }),
	jsonwire.String("PerfModel", func(s *Scenario) *string { return &s.PerfModel }),
	jsonwire.String("Fleet", func(s *Scenario) *string { return &s.Fleet }),
	jsonwire.String("Surrogate", func(s *Scenario) *string { return &s.Surrogate }),
}

var windowFields = []jsonwire.Field[emissions.Window]{
	jsonwire.Int("Duration", func(w *emissions.Window) *int64 { return (*int64)(&w.Duration) }),
	jsonwire.Float("Energy", func(w *emissions.Window) *float64 { return (*float64)(&w.Energy) }),
	jsonwire.Float("CI", func(w *emissions.Window) *float64 { return (*float64)(&w.CI) }),
	jsonwire.Float("Scope2", func(w *emissions.Window) *float64 { return (*float64)(&w.Scope2) }),
	jsonwire.Float("Scope3", func(w *emissions.Window) *float64 { return (*float64)(&w.Scope3) }),
	jsonwire.Float("Total", func(w *emissions.Window) *float64 { return (*float64)(&w.Total) }),
}

var resultFields = []jsonwire.Field[Result]{
	jsonwire.Struct("Scenario", func(r *Result) *Scenario { return &r.Scenario }, scenarioFields),
	jsonwire.Float("MeanPower", func(r *Result) *float64 { return (*float64)(&r.MeanPower) }),
	jsonwire.Float("MeanUtil", func(r *Result) *float64 { return &r.MeanUtil }),
	jsonwire.Float("Energy", func(r *Result) *float64 { return (*float64)(&r.Energy) }),
	jsonwire.Float("NodeHours", func(r *Result) *float64 { return &r.NodeHours }),
	jsonwire.Float("MeanCI", func(r *Result) *float64 { return (*float64)(&r.MeanCI) }),
	jsonwire.Struct("Emissions", func(r *Result) *emissions.Window { return &r.Emissions }, windowFields),
	jsonwire.Int("Regime", func(r *Result) *int { return (*int)(&r.Regime) }),
	jsonwire.Float("AvoidedCarbon", func(r *Result) *float64 { return (*float64)(&r.AvoidedCarbon) }),
	jsonwire.Bool("HasBaseline", func(r *Result) *bool { return &r.HasBaseline }),
	jsonwire.Int("Holds", func(r *Result) *int { return &r.Holds }),
	jsonwire.Int("HoldDelay", func(r *Result) *int64 { return (*int64)(&r.HoldDelay) }),
	jsonwire.Int("Completed", func(r *Result) *int { return &r.Completed }),
	jsonwire.Int("MeanWait", func(r *Result) *int64 { return (*int64)(&r.MeanWait) }),
	jsonwire.String("SimDigest", func(r *Result) *string { return &r.SimDigest }),
}

// AppendJSON appends the result's JSON to dst.
func (r *Result) AppendJSON(b []byte) ([]byte, error) {
	return jsonwire.AppendObject(b, resultFields, r)
}

// DecodeJSON decodes the next value of rd into the result.
func (r *Result) DecodeJSON(rd *jsonwire.Reader) error {
	return jsonwire.DecodeObject(rd, resultFields, r)
}

// MarshalJSON implements json.Marshaler with the reflection-free codec.
func (r Result) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler with the same codec.
func (r *Result) UnmarshalJSON(data []byte) error { return jsonwire.Decode(data, r) }
