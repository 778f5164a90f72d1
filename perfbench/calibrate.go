package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on can change speed by up to 2× over
// minutes (other tenants share its cores), which moves every timing of a
// run together. A calibration loop, owned by the benchmark and the same
// on every commit, is timed throughout the run, and every timing is
// reported scaled by calNominal over the loop's median time around it:
// in milliseconds of a host running the loop at its nominal speed. As
// each op and set-up is scaled by the samples taken near it, a speed
// change mid-run is followed. Raw timings go to provenance.

// calNominal is a calibration round's time, in milliseconds, on the
// 2-vCPU host the benchmark was tuned on, in a typical period.
const calNominal = 10.0

// calEvery is how often, at most, a loop stops to calibrate.
const calEvery = 500 * time.Millisecond

// calWindow is how far from a timed interval a sample may lie and still
// scale it: wide enough to hold about twenty samples, which steadies
// their median, and narrow next to the minutes a speed change lasts.
const calWindow = 5 * time.Second

// calLoop is a fixed, allocation-free mix of integer and floating-point
// arithmetic, branches and random reads and writes over buf, whose size
// (larger than a core's L2 cache) mixes in memory latency, as the twin
// does. It returns how long it took.
func calLoop(buf []uint32) time.Duration {
	t0 := time.Now()
	x := uint32(2463534242)
	var acc float64
	mask := uint32(len(buf) - 1)
	for i := 0; i < 400000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & mask
		v := buf[j] + x>>9
		if v&1 == 0 {
			acc += float64(v) * 1e-9
		} else {
			acc -= float64(v>>3) * 1e-9
		}
		buf[(j*7+1)&mask] = v + uint32(acc)
	}
	return time.Since(t0)
}

// calBufs hold one working set per processor: the loop runs on every
// processor at once, since the served workloads use them all.
var calBufs = func() [][]uint32 {
	bufs := make([][]uint32, runtime.GOMAXPROCS(0))
	for i := range bufs {
		bufs[i] = make([]uint32, 1<<20)
	}
	return bufs
}()

// calRound runs the loop on every processor at once and returns the
// mean time in milliseconds.
func calRound() float64 {
	times := make([]float64, len(calBufs))
	var wg sync.WaitGroup
	for i := range calBufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			times[i] = ms(calLoop(calBufs[i]))
		}(i)
	}
	wg.Wait()
	return mean(times)
}

// calibrator samples the host's speed during a run.
type calibrator struct {
	samples []float64   // ms per calibration loop
	at      []time.Time // when each sample was taken
}

// sample times three rounds and keeps the median.
func (c *calibrator) sample() {
	var d [3]float64
	for i := range d {
		d[i] = calRound()
	}
	sort.Float64s(d[:])
	c.samples = append(c.samples, d[1])
	c.at = append(c.at, time.Now())
}

// maybe samples when calEvery has passed since the last sample.
func (c *calibrator) maybe() {
	if n := len(c.at); n == 0 || time.Since(c.at[n-1]) >= calEvery {
		c.sample()
	}
}

// scale converts a timing taken over [from, to] to nominal host speed,
// from the samples taken within calWindow of that interval (the nearest
// sample when none is).
func (c *calibrator) scale(from, to time.Time) float64 {
	if len(c.samples) == 0 {
		return 1
	}
	lo := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(from.Add(-calWindow)) })
	hi := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(to.Add(calWindow)) })
	if lo >= hi {
		// No sample in the window: take the nearest one.
		lo, hi = lo-1, lo
		if hi < len(c.at) && (lo < 0 || c.at[hi].Sub(to) < from.Sub(c.at[lo])) {
			lo = hi
		}
		hi = lo + 1
	}
	return calNominal / median(c.samples[lo:hi])
}
