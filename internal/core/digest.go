package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"github.com/greenhpc/archertwin/internal/timeseries"
)

// Digest returns a hex SHA-256 fingerprint of everything a timeline run
// measured: the power and utilisation series (timestamps and exact float
// bits), the per-window means, the scheduler statistics and the usage
// accounting. Two runs produce the same digest if and only if they are
// observationally byte-identical, which is what the determinism contract
// promises — the golden tests pin digests across engine refactors, and CI
// can compare digests across worker counts or machines.
//
// Fields that are opt-in captures rather than measurements (JobLog,
// CarbonTrace) are excluded: the digest fingerprints the simulation, not
// the telemetry configuration.
func (r *Results) Digest() string {
	h := sha256.New()
	buf := make([]byte, 8)
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	i64 := func(v int64) { u64(uint64(v)) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	series := func(v *timeseries.Series) {
		if v == nil {
			u64(0)
			return
		}
		n := v.Len()
		u64(uint64(n))
		for i := 0; i < n; i++ {
			smp := v.At(i)
			i64(smp.T.UnixNano())
			f64(smp.V)
		}
	}

	series(r.Power)
	series(r.Util)

	u64(uint64(len(r.Windows)))
	for _, w := range r.Windows {
		str(w.Window.Label)
		i64(w.Window.From.UnixNano())
		i64(w.Window.To.UnixNano())
		f64(w.MeanPower.Watts())
		f64(w.MeanUtil)
		u64(uint64(w.SampleCount))
	}

	s := r.Sched
	u64(uint64(s.Submitted))
	u64(uint64(s.StartedJobs))
	u64(uint64(s.Completed))
	// Three zero words, here and after Overrides and MixScale, fill the
	// slots of counters the twin no longer keeps: the golden digests pin
	// this layout.
	u64(0)
	u64(uint64(s.Dropped))
	f64(s.NodeHoursUsed)
	i64(int64(s.TotalWait))
	f64(s.TotalEnergy.Joules())
	u64(uint64(s.Holds))
	i64(int64(s.HoldDelay))

	classes := make([]string, 0, len(r.Usage))
	for name := range r.Usage {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	u64(uint64(len(classes)))
	for _, name := range classes {
		cu := r.Usage[name]
		str(name)
		u64(uint64(cu.Jobs))
		f64(cu.NodeHours)
		f64(cu.Energy.Joules())
	}
	u64(uint64(r.TotalUsage.Jobs))
	f64(r.TotalUsage.NodeHours)
	f64(r.TotalUsage.Energy.Joules())

	u64(uint64(r.Overrides))
	u64(0)
	f64(r.MixScale)
	u64(0)

	return fmt.Sprintf("%x", h.Sum(nil))
}
