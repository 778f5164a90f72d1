package scenario

import (
	"container/list"
	"unsafe"

	"github.com/greenhpc/archertwin/internal/core"
)

// memoEntry is one cached simulation: the shared results plus their
// digest, computed once at admission so repeat sweeps and the service
// layer can prove result identity without re-hashing the series on every
// hit, the trace-reading part of every scenario Result already accounted
// from it, and the entry's byte cost (core.Results.MemoryFootprint at
// admission plus tracedCost per account) charged against the cache's
// byte budget. accounts is keyed by grid mean (the entry's key fixes the
// trace seed and window, and gridModel the model), and is read and grown
// only under the Runner's mu.
type memoEntry struct {
	key      string
	res      *core.Results
	digest   string
	accounts map[float64]traced
	cost     int64
}

// tracedCost is the byte price of one stored account: its grid-mean key
// and value.
const tracedCost = int64(unsafe.Sizeof(float64(0)) + unsafe.Sizeof(traced{}))

// hold stores accounts the entry does not have yet (means[j] for
// accts[j]) and returns the bytes they add to its cost.
func (e *memoEntry) hold(means []float64, accts []traced) (added int64) {
	if e.accounts == nil {
		e.accounts = make(map[float64]traced, len(means))
	}
	for j, m := range means {
		if _, ok := e.accounts[m]; !ok {
			e.accounts[m] = accts[j]
			added += tracedCost
		}
	}
	e.cost += added
	return added
}

// accounted returns the accounts for means, in order, or nil unless the
// entry holds every one.
func (e *memoEntry) accounted(means []float64) []traced {
	out := make([]traced, len(means))
	for j, m := range means {
		a, ok := e.accounts[m]
		if !ok {
			return nil
		}
		out[j] = a
	}
	return out
}

// memoLRU is the Runner's bounded memo store: a map for O(1) lookup over
// a recency list, most recently used at the front. A lookup refreshes the
// entry's recency; an admission evicts coldest-first until both bounds
// hold again, so a long-lived Runner sweeping ever-new configurations
// keeps the hottest working set warm under bounded memory — in contrast
// to the earliest cache, which simply stopped admitting once full and
// pinned its first 256 entries forever.
//
// Two bounds compose: cap limits the entry count (0 disables the cache),
// budget limits the summed entry costs in bytes (0 = no byte bound). The
// byte bound is what keeps a long-lived service honest: entries price by
// what they actually pin (a 13-month full-machine result costs ~1000x a
// 1-day mini sweep), so an entry-count cap alone would let a handful of
// big results quietly hold gigabytes forever.
type memoLRU struct {
	cap       int
	budget    int64
	ll        *list.List // of *memoEntry; front = most recently used
	byKey     map[string]*list.Element
	bytes     int64
	evictions int
}

func newMemoLRU(cap int, budget int64) *memoLRU {
	return &memoLRU{cap: cap, budget: budget, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the entry for key, refreshing its recency on a hit.
func (l *memoLRU) get(key string) (*memoEntry, bool) {
	el, ok := l.byKey[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*memoEntry), true
}

// put admits an entry as the most recently used, then evicts
// least-recently-used entries until the count and byte bounds both hold.
// A put for an existing key replaces the entry (re-pricing it) and
// refreshes its recency. An entry costing more than the whole budget is
// evicted by its own admission: the cache never holds more than budget
// bytes, even transiently across put calls.
func (l *memoLRU) put(e *memoEntry) {
	if l.cap <= 0 {
		return
	}
	if el, ok := l.byKey[e.key]; ok {
		l.bytes += e.cost - el.Value.(*memoEntry).cost
		el.Value = e
		l.ll.MoveToFront(el)
	} else {
		l.byKey[e.key] = l.ll.PushFront(e)
		l.bytes += e.cost
	}
	l.evict()
}

// account stores accounts in an entry found by get and charges their
// bytes, then evicts until both bounds hold again. An entry evicted or
// replaced since it was found is left alone.
func (l *memoLRU) account(e *memoEntry, means []float64, accts []traced) {
	if el, ok := l.byKey[e.key]; !ok || el.Value != e {
		return
	}
	l.bytes += e.hold(means, accts)
	l.evict()
}

// evict drops least-recently-used entries until the count and byte
// bounds both hold.
func (l *memoLRU) evict() {
	for l.ll.Len() > 0 && (l.ll.Len() > l.cap || (l.budget > 0 && l.bytes > l.budget)) {
		coldest := l.ll.Back()
		l.ll.Remove(coldest)
		ce := coldest.Value.(*memoEntry)
		delete(l.byKey, ce.key)
		l.bytes -= ce.cost
		l.evictions++
	}
}

// len returns the number of cached entries.
func (l *memoLRU) len() int { return l.ll.Len() }
