package sched

import "math/bits"

// nodeSet is an indexed set of free node IDs over a fixed ID range,
// backed by a bitmap. It replaces the sorted []int free list, whose
// every insert and delete was an O(n) memmove (and whose alloc-from-front
// slicing leaked capacity and forced reallocation on every return):
// membership changes are O(1) bit operations, and taking the n lowest
// IDs — the allocation order the old sorted slice gave, preserved so
// placements stay byte-identical — is a word-wise scan from a cached
// low-water mark.
type nodeSet struct {
	bits  []uint64
	count int
	// low is a hint: no word below index low is non-zero.
	low int
}

// newNodeSet returns a set sized for IDs [0, n) containing all of them.
func newNodeSet(n int) *nodeSet {
	s := &nodeSet{bits: make([]uint64, (n+63)/64), count: n}
	for i := 0; i < n; i++ {
		s.bits[i>>6] |= 1 << (i & 63)
	}
	return s
}

// Count returns the number of IDs in the set.
func (s *nodeSet) Count() int { return s.count }

// Contains reports membership.
func (s *nodeSet) Contains(id int) bool {
	return s.bits[id>>6]&(1<<(id&63)) != 0
}

// Add inserts id (no-op if present).
func (s *nodeSet) Add(id int) {
	w := id >> 6
	m := uint64(1) << (id & 63)
	if s.bits[w]&m != 0 {
		return
	}
	s.bits[w] |= m
	s.count++
	if w < s.low {
		s.low = w
	}
}

// CountRange returns the number of IDs in [lo, hi) — a popcount sweep
// over the bitmap, used for on-demand per-partition free accounting.
// Deriving partition counts from the bitmap (rather than maintaining
// incremental counters at every mutation point) keeps snapshot/restore
// trivially correct: Restore rebuilds the bitmap, and the counts follow.
func (s *nodeSet) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	if wLo == wHi {
		mask := (^uint64(0) << (lo & 63)) & (^uint64(0) >> (63 - (hi-1)&63))
		return bits.OnesCount64(s.bits[wLo] & mask)
	}
	n := bits.OnesCount64(s.bits[wLo] & (^uint64(0) << (lo & 63)))
	for w := wLo + 1; w < wHi; w++ {
		n += bits.OnesCount64(s.bits[w])
	}
	n += bits.OnesCount64(s.bits[wHi] & (^uint64(0) >> (63 - (hi-1)&63)))
	return n
}

// TakeLowestRange removes the n lowest IDs in [lo, hi) and appends them
// to dst in ascending order — TakeLowest restricted to one partition's
// node range. The caller must ensure n <= CountRange(lo, hi).
func (s *nodeSet) TakeLowestRange(n, lo, hi int, dst []int) []int {
	s.count -= n
	for w := lo >> 6; n > 0; w++ {
		word := s.bits[w]
		base := w << 6
		// Mask off bits outside [lo, hi) for the boundary words.
		avail := word
		if base < lo {
			avail &= ^uint64(0) << (lo & 63)
		}
		if base+63 >= hi {
			avail &= ^uint64(0) >> (63 - (hi-1)&63)
		}
		for avail != 0 && n > 0 {
			b := bits.TrailingZeros64(avail)
			dst = append(dst, base+b)
			word &^= 1 << b
			avail &^= 1 << b
			n--
		}
		s.bits[w] = word
	}
	return dst
}

// TakeLowest removes the n lowest IDs from the set and appends them to
// dst in ascending order — exactly the IDs the old sorted free list's
// free[:n] prefix held. The caller must ensure n <= Count().
func (s *nodeSet) TakeLowest(n int, dst []int) []int {
	s.count -= n
	for w := s.low; n > 0; w++ {
		word := s.bits[w]
		if word == 0 {
			if w == s.low {
				s.low = w + 1
			}
			continue
		}
		base := w << 6
		for word != 0 && n > 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, base+b)
			word &^= 1 << b
			n--
		}
		s.bits[w] = word
	}
	return dst
}
