package workload

// GeneratorSnapshot is a generator's mutable state at a checkpoint: the
// arrival-stream RNG position and the next job ID. The class picker is a
// pure function of the configuration and is rebuilt identically by the
// fork's own construction. The calibrated arrival rate is one too, but
// recomputing it costs a 20,000-draw Monte-Carlo estimate per fork, so
// the snapshot carries the parent's value (Rate) for the fork to install
// directly — bit-identical by construction, since the parent derived it
// from the same configuration and derived seed.
type GeneratorSnapshot struct {
	Rng    [4]uint64
	NextID int
	Rate   float64
}

// Snapshot captures the generator's mutable state.
func (g *Generator) Snapshot() GeneratorSnapshot {
	return GeneratorSnapshot{Rng: g.stream.State(), NextID: g.nextID, Rate: g.cfg.ArrivalRatePerHour}
}

// Restore overwrites the generator's mutable state from a snapshot.
func (g *Generator) Restore(s GeneratorSnapshot) {
	g.stream.SetState(s.Rng)
	g.nextID = s.NextID
	if s.Rate > 0 {
		g.cfg.ArrivalRatePerHour = s.Rate
	}
}
