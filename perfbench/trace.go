package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own code around a call into that layer. Spans of one
// operation share Op; Parent names the span that caused this one
// (0 for the operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Attr names the server a span ran on, where that links spans
	// across an HTTP hop.
	Attr  string    `json:"attr,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed loop pays one nil
// check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
	op    int  // operation the next spans belong to (closed loop: one at a time)
	on    bool // spans are recorded only inside a traced operation
	next  int
}

func newTracer() *tracer { return &tracer{} }

// setOp marks the start of traced operation op; later spans belong to
// it. A negative op ends tracing until the next traced operation.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op, t.on = op, op >= 0
	t.mu.Unlock()
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	return t.addAttr(name, parent, start, end, "")
}

// addAttr is add with the span's server attribute.
func (t *tracer) addAttr(name string, parent int, start, end time.Time, attr string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: t.op, Name: name, Attr: attr, Start: start, End: end})
	return t.next
}

// reparent moves op's spans named in names from parent from to parent to.
func (t *tracer) reparent(op, from, to int, names ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Op != op || s.Parent != from {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				s.Parent = to
			}
		}
	}
}

// linkByAttr parents op's child-named spans under the parent-named span
// of the same op that ran against the same server.
func (t *tracer) linkByAttr(op int, child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byAttr := map[string]int{}
	for _, s := range t.spans {
		if s.Op == op && s.Name == parent {
			byAttr[s.Attr] = s.ID
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Op == op && s.Name == child {
			if id, ok := byAttr[s.Attr]; ok {
				s.Parent = id
			}
		}
	}
}

// mergeMS is the mean time a fabric.run span spent after its last shard
// returned: the coordinator's merge.
func (t *tracer) mergeMS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lastShard := map[int]time.Time{}
	for _, s := range t.spans {
		if s.Name == "fabric.shard" && s.End.After(lastShard[s.Parent]) {
			lastShard[s.Parent] = s.End
		}
	}
	var total time.Duration
	n := 0
	for _, s := range t.spans {
		if last, ok := lastShard[s.ID]; ok && s.Name == "fabric.run" {
			total += s.End.Sub(last)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// begin opens a span whose end is filled in by the returned function;
// the span ID is reserved up front so children can name it as parent.
func (t *tracer) begin(name string, parent int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	if !t.on {
		t.mu.Unlock()
		return 0, func() {}
	}
	t.next++
	id = t.next
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: start})
	t.mu.Unlock()
	return id, func() {
		now := time.Now()
		t.mu.Lock()
		t.spans[idx].End = now
		t.mu.Unlock()
	}
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its children cover (children may run
// concurrently, so coverage is the union of their intervals).
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range t.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerTime{Name: s.Name}
			rows[s.Name] = row
		}
		d := s.End.Sub(s.Start)
		row.Count++
		row.Total += d
		row.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curStart, curEnd time.Time
	open := false
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = s, e, true
		case s.After(curEnd):
			total += curEnd.Sub(curStart)
			curStart, curEnd = s, e
		case e.After(curEnd):
			curEnd = e
		}
	}
	if open {
		total += curEnd.Sub(curStart)
	}
	return total
}

// writeTable prints the per-layer self-time table.
func writeTable(w io.Writer, rows []layerTime) {
	var all time.Duration
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "%-22s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.Self) / float64(all)
		}
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f %6.1f%%\n", r.Name, r.Count,
			ms(r.Total), ms(r.Self), share)
	}
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
