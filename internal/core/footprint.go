package core

import (
	"unsafe"

	"github.com/greenhpc/archertwin/internal/policy"
	"github.com/greenhpc/archertwin/internal/telemetry"
)

// mapEntryOverhead is the accounted per-entry bookkeeping cost of a Go
// map beyond key and value payload (bucket slot, hash metadata). The
// runtime does not expose the true figure; 48 bytes is a documented,
// deterministic stand-in of the right order for small maps.
const mapEntryOverhead = 48

// MemoryFootprint returns the retained heap bytes of the result set,
// recursively over everything it pins: the telemetry series (at backing
// capacity, since over-reservation is real memory), the window results,
// the usage accounting, and the opt-in captures (job log, carbon trace).
// The accounting contract:
//
//   - slices count capacity x element size (not length);
//   - strings count their byte length once per reference;
//   - maps count key + value payload plus mapEntryOverhead per entry;
//   - interior pointers shared by construction (application specs, the
//     CPU spec) are owned by the catalog, not the results, and are not
//     counted.
//
// The figure is deterministic for a given run — it is the cost the
// scenario memo charges an entry against Runner.MemoBudgetBytes, so two
// identical simulations must price identically.
func (r *Results) MemoryFootprint() int64 {
	total := int64(unsafe.Sizeof(*r))
	if r.Power != nil {
		total += r.Power.MemoryFootprint()
	}
	if r.Util != nil {
		total += r.Util.MemoryFootprint()
	}
	if r.CarbonTrace != nil {
		total += r.CarbonTrace.MemoryFootprint()
	}
	total += int64(cap(r.Windows)) * int64(unsafe.Sizeof(WindowResult{}))
	for _, w := range r.Windows {
		total += int64(len(w.Window.Label))
	}
	for name := range r.Usage {
		total += mapEntryOverhead + int64(len(name)) +
			int64(unsafe.Sizeof(telemetry.ClassUsage{}))
	}
	if r.JobLog != nil {
		total += r.JobLog.MemoryFootprint()
	}
	// Config's own heap tails: measurement windows and the policy timeline.
	total += int64(cap(r.Config.Windows)) * int64(unsafe.Sizeof(Window{}))
	total += int64(cap(r.Config.Timeline.Changes)) * int64(unsafe.Sizeof(policy.Change{}))
	return total
}

// Compact drops the resolution-redundant intermediates a digested result
// set no longer needs and trims over-reserved series capacity, shrinking
// what a long-term holder (the scenario memo) pins:
//
//   - Power and Util keep every sample but release spare backing capacity;
//   - the opt-in captures (JobLog, CarbonTrace) are dropped — they are
//     excluded from Results.Digest by contract, and every derived quantity
//     the scenario layer serves (window means, scheduler stats, usage,
//     emissions integration over Power) survives.
//
// Compact must only be called once the owner is done with those captures;
// the Runner calls it at memo admission, after the digest is computed.
// The digest of a compacted result set is identical to the original.
func (r *Results) Compact() {
	if r.Power != nil {
		r.Power.Clip()
	}
	if r.Util != nil {
		r.Util.Clip()
	}
	r.JobLog = nil
	r.CarbonTrace = nil
}
