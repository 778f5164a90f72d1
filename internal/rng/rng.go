// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distributions the facility simulation draws from.
//
// Reproducibility is a hard requirement for the digital twin: a simulation
// seeded with the same value must produce byte-identical output so that the
// paper-reproduction benchmarks are stable. The generator is xoshiro256**
// seeded via SplitMix64; streams are split hierarchically by label so that
// adding a new consumer of randomness does not perturb existing consumers.
package rng

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic random stream. The zero value is not valid; use
// New or Stream.Split.
type Stream struct {
	s [4]uint64
}

// New creates a stream from a 64-bit seed.
func New(seed uint64) *Stream {
	st := &Stream{}
	sm := seed
	for i := range st.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		st.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; the SplitMix expansion of
	// any seed cannot produce that, but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 1
	}
	return st
}

// Split derives an independent child stream identified by label. Splitting
// does not advance the parent stream, so the set of labels used elsewhere
// never affects this stream's own sequence.
func (r *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	// Mix the parent state (not the parent's position) with the label hash.
	return New(r.s[0] ^ rotl(r.s[2], 17) ^ h.Sum64())
}

// SplitIndexed derives an independent child stream identified by a label and
// an index, for per-entity streams (e.g. one per job).
func (r *Stream) SplitIndexed(label string, i int) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	var buf [8]byte
	v := uint64(i)
	for b := 0; b < 8; b++ {
		buf[b] = byte(v >> (8 * b))
	}
	_, _ = h.Write(buf[:])
	return New(r.s[0] ^ rotl(r.s[2], 17) ^ h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// DeriveSeed deterministically derives an independent child seed from a
// base seed and a label — the seed-level analogue of Stream.Split, for
// when a subsystem needs its own root seed rather than a shared stream
// (e.g. one fully independent simulator per sweep scenario). Distinct
// labels yield decorrelated seeds; the result depends only on (base,
// label), never on call order or concurrency.
func DeriveSeed(base uint64, label string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for b := 0; b < 8; b++ {
		buf[b] = byte(base >> (8 * b))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	// One SplitMix64 finalisation decorrelates related labels.
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// State returns the stream's internal xoshiro256** state, for
// checkpointing. A stream restored from it with SetState produces the
// identical draw sequence from that point on, which is what lets a forked
// simulation replay bit-for-bit.
func (r *Stream) State() [4]uint64 { return r.s }

// SetState restores a state previously captured with State.
func (r *Stream) SetState(s [4]uint64) { r.s = s }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Marsaglia polar method, one value per call).
func (r *Stream) Normal(mean, stddev float64) float64 {
	u, f := r.Polar()
	return mean + stddev*u*f
}

// Polar draws one accepted Marsaglia polar pair and returns its u and the
// factor f = sqrt(-2 ln s / s): Normal(mean, stddev) is exactly
// mean + stddev*u*f. A generator that needs one draw at several scales
// (grid.Traces) takes the pair once and keeps that expression per scale.
func (r *Stream) Polar() (u, f float64) {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u, math.Sqrt(-2 * math.Log(s) / s)
		}
	}
}

// TruncNormal returns a normal value clamped to [lo, hi] by resampling (up
// to a bound) then clamping, preserving determinism.
func (r *Stream) TruncNormal(mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 16; i++ {
		x := r.Normal(mean, stddev)
		if x >= lo && x <= hi {
			return x
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// LogNormal returns a log-normally distributed value where the underlying
// normal has mean mu and standard deviation sigma.
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// Guard u == 0 (Log(0) = -Inf).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(u) / rate
}

// Categorical draws an index with probability proportional to weights[i].
// It panics if weights is empty or sums to a non-positive value.
type Categorical struct {
	cum []float64
}

// NewCategorical builds a categorical sampler from non-negative weights.
func NewCategorical(weights []float64) *Categorical {
	if len(weights) == 0 {
		panic("rng: empty categorical")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: negative or NaN categorical weight")
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[len(cum)-1] = 1 // guard against rounding
	return &Categorical{cum: cum}
}

// Draw samples an index from the distribution using stream r.
func (c *Categorical) Draw(r *Stream) int {
	u := r.Float64()
	// Binary search over the cumulative weights.
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
