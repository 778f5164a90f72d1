package core

import (
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/grid"
)

// A fully-instrumented run: footprint must account every capture, and
// Compact must shed the digest-excluded ones without perturbing the
// digest or the measurement series.
func TestMemoryFootprintAndCompact(t *testing.T) {
	start := time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)
	cfg := ScaledConfig(64, start, 3)
	cfg.Windows = []Window{{Label: "w", From: start.AddDate(0, 0, 1), To: start.AddDate(0, 0, 3)}}
	cfg.JobLog = true
	cfg.Carbon = &CarbonConfig{Model: grid.GB2022(), TraceSeed: 7}
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}

	full := res.MemoryFootprint()
	if full <= 0 {
		t.Fatalf("footprint = %d", full)
	}
	// Every capture must contribute: nil it out, footprint must drop.
	for name, strip := range map[string]func(*Results){
		"JobLog":      func(r *Results) { r.JobLog = nil },
		"CarbonTrace": func(r *Results) { r.CarbonTrace = nil },
	} {
		copied := *res
		strip(&copied)
		if got := copied.MemoryFootprint(); got >= full {
			t.Errorf("dropping %s did not shrink the footprint: %d -> %d", name, full, got)
		}
	}

	digestBefore := res.Digest()
	powerLen, utilLen := res.Power.Len(), res.Util.Len()
	res.Compact()
	if res.JobLog != nil || res.CarbonTrace != nil {
		t.Fatal("Compact left capture intermediates behind")
	}
	if got := res.MemoryFootprint(); got >= full {
		t.Errorf("Compact did not shrink the footprint: %d -> %d", full, got)
	}
	if res.Power.Len() != powerLen || res.Util.Len() != utilLen {
		t.Fatal("Compact lost measurement samples")
	}
	if got := res.Digest(); got != digestBefore {
		t.Errorf("Compact changed the digest: %s -> %s", digestBefore, got)
	}
}

// Footprints must be deterministic: two identical runs price identically
// (the memo charges entries against the byte budget by this figure).
func TestMemoryFootprintDeterministic(t *testing.T) {
	start := time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)
	run := func() int64 {
		res, err := RunConfig(ScaledConfig(48, start, 2))
		if err != nil {
			t.Fatal(err)
		}
		res.Compact()
		return res.MemoryFootprint()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("footprints differ across identical runs: %d vs %d", a, b)
	}
}
