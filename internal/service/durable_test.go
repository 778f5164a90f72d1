package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/api"
	"github.com/greenhpc/archertwin/internal/journal"
	"github.com/greenhpc/archertwin/internal/scenario"
)

// crashSpec is the durability acceptance sweep: two axes, four
// scenarios, two distinct simulations (the grid axis shares them), so a
// crash can land between any two of its ~6 journal records.
func crashSpec() scenario.Spec {
	return scenario.Spec{
		Name:  "crash",
		Nodes: 32,
		Days:  1,
		Seed:  11,
		Axes: scenario.Axes{
			Frequency: []string{"stock", "capped"},
			GridMean:  []float64{200, 65},
		},
	}
}

// digestsOf extracts the per-scenario simulation digests in expansion
// order — the byte-identity witness.
func digestsOf(res *scenario.SweepResults) []string {
	out := make([]string, len(res.Results))
	for i, r := range res.Results {
		out[i] = r.SimDigest
	}
	return out
}

// tablesJSON renders the comparison tables to JSON: recovered sweeps
// must reproduce them byte for byte.
func tablesJSON(t *testing.T, res *scenario.SweepResults) string {
	t.Helper()
	payload := struct {
		Delta  any `json:"delta"`
		Regime any `json:"regime"`
	}{res.Table(), res.RegimeTable()}
	data, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// resultsBody returns the body svc's handler serves for GET
// /v1/sweeps/{id}/results.
func resultsBody(t *testing.T, svc *Service, id string) []byte {
	t.Helper()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results of %s = %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// liveChildren is a parent context that counts the contexts
// context.WithCancel registers under it and has not yet released. A
// parent that is not one of the context package's own cancel contexts
// gets its children through its AfterFunc method, and a child's cancel
// stops that registration.
type liveChildren struct {
	context.Context
	n atomic.Int64
}

// Value hides the wrapped cancel context, so children register here.
func (c *liveChildren) Value(any) any { return nil }

func (c *liveChildren) AfterFunc(f func()) func() bool {
	c.n.Add(1)
	stop := context.AfterFunc(c.Context, f)
	return func() bool {
		stopped := stop()
		if stopped {
			c.n.Add(-1)
		}
		return stopped
	}
}

func waitDone(t *testing.T, sw *Sweep) {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("sweep %s did not finish", sw.ID)
	}
}

// TestDurableCompleteAndRecoverFinished: a completed sweep survives a
// restart — it re-registers from the journal with byte-identical
// results, zero re-simulation, and keeps serving dedup joins.
func TestDurableCompleteAndRecoverFinished(t *testing.T) {
	ctx := context.Background()
	spec := crashSpec()
	dir := t.TempDir()

	jl1, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	runner1 := &scenario.Runner{Workers: 1}
	svc1, err := New(Config{Runner: runner1, Journal: jl1})
	if err != nil {
		t.Fatal(err)
	}
	sw, joined, err := svc1.Submit(ctx, spec, false)
	if err != nil || joined {
		t.Fatalf("Submit = (joined=%v, %v), want fresh sweep", joined, err)
	}
	waitDone(t, sw)
	res1, err := sw.Results()
	if err != nil {
		t.Fatal(err)
	}
	body1 := resultsBody(t, svc1, sw.ID)
	svc1.Shutdown()
	if err := jl1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh journal handle, fresh runner (cold memo).
	jl2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	runner2 := &scenario.Runner{Workers: 1}
	svc2, err := New(Config{Runner: runner2, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	base := &liveChildren{Context: svc2.base}
	svc2.base = base
	stats, err := svc2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sweeps != 1 || stats.Finished != 1 || stats.Resumed != 0 {
		t.Errorf("stats = %+v, want 1 sweep recovered finished", stats)
	}
	// A sweep recovered terminal never runs, so it holds no run context.
	if n := base.n.Load(); n != 0 {
		t.Errorf("recovery left %d live run contexts, want 0", n)
	}
	if stats.ReusedResults != len(res1.Results) {
		t.Errorf("ReusedResults = %d, want %d", stats.ReusedResults, len(res1.Results))
	}

	sw2, ok := svc2.Get(sw.ID)
	if !ok {
		t.Fatalf("recovered service lost sweep %s", sw.ID)
	}
	if st := sw2.Status(); st.State != api.StateDone {
		t.Fatalf("recovered state = %s, want done", st.State)
	}
	res2, err := sw2.Results()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestsOf(res2), digestsOf(res1); !equalStrings(got, want) {
		t.Errorf("recovered digests %v != original %v", got, want)
	}
	if got, want := tablesJSON(t, res2), tablesJSON(t, res1); got != want {
		t.Errorf("recovered tables differ:\n%s\nvs\n%s", got, want)
	}
	if res2.Workers != res1.Workers {
		t.Errorf("recovered workers = %d, want %d", res2.Workers, res1.Workers)
	}
	if misses := runner2.CacheStats().Misses; misses != 0 {
		t.Errorf("recovery re-simulated: %d memo misses, want 0", misses)
	}
	// The recovered server sends the live one's results body, byte for
	// byte, on one line.
	if body2 := resultsBody(t, svc2, sw.ID); !bytes.Equal(body2, body1) {
		t.Errorf("recovered results body differs from the live one:\n%s\nvs\n%s", body2, body1)
	}
	if n := bytes.Count(body1, []byte("\n")); n != 1 {
		t.Errorf("results body spans %d lines, want 1 (compact JSON)", n)
	}
	// The recovered sweep keeps serving singleflight joins.
	joinedSw, joined, err := svc2.Submit(ctx, spec, false)
	if err != nil || !joined || joinedSw.ID != sw.ID {
		t.Errorf("resubmission = (%v, joined=%v, %v), want join onto %s", joinedSw, joined, err, sw.ID)
	}
}

// TestDurableResumeFromPartialJournal: a journal holding a submission
// plus one group's results resumes with only the missing simulation
// re-executed, and the assembled sweep matches an uninterrupted run.
func TestDurableResumeFromPartialJournal(t *testing.T) {
	ctx := context.Background()
	spec := crashSpec().Canonical()
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	refRunner := &scenario.Runner{Workers: 1}
	ref, err := refRunner.RunProgress(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Craft the mid-crash journal: submission committed, first partition
	// group journaled, the rest lost.
	dir := t.TempDir()
	jl, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var group0 []int
	for i, key := range part.Keys {
		if key == part.GroupOrder[0] {
			group0 = append(group0, i)
		}
	}
	recs := []journal.Record{&journal.SweepSubmitted{
		ID: "sweep-7", Key: api.SpecKey(spec), Spec: spec,
		Scenarios: len(part.Keys), Submitted: time.Now().UTC(),
	}}
	for _, idx := range group0 {
		recs = append(recs, &journal.ScenarioDone{Sweep: "sweep-7", Index: idx, Result: ref.Results[idx]})
	}
	if err := jl.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	runner2 := &scenario.Runner{Workers: 1}
	svc2, err := New(Config{Runner: runner2, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	stats, err := svc2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 1 || stats.ReusedResults != len(group0) {
		t.Errorf("stats = %+v, want 1 resumed reusing %d results", stats, len(group0))
	}
	sw, ok := svc2.Get("sweep-7")
	if !ok {
		t.Fatal("resumed sweep not registered")
	}
	waitDone(t, sw)
	res, err := sw.Results()
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if got, want := digestsOf(res), digestsOf(ref); !equalStrings(got, want) {
		t.Errorf("resumed digests %v != reference %v", got, want)
	}
	if got, want := tablesJSON(t, res), tablesJSON(t, ref); got != want {
		t.Errorf("resumed tables differ from reference")
	}
	// Exactly the missing simulations re-executed: group0's simulation
	// came from the journal.
	wantMisses := part.Simulations - 1
	if misses := runner2.CacheStats().Misses; misses != wantMisses {
		t.Errorf("memo misses = %d, want %d (journaled results must not re-simulate)", misses, wantMisses)
	}
	// The restored ID counter continues past the journaled sweep.
	other := crashSpec()
	other.Seed = 99
	fresh, _, err := svc2.Submit(ctx, other, false)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "sweep-8" {
		t.Errorf("next ID after recovering sweep-7 = %s, want sweep-8", fresh.ID)
	}
	waitDone(t, fresh)
}

// TestDurableDrainInterruptsAndResumes: a sweep still queued when the
// drain deadline passes is journaled as interrupted — not canceled — and
// the next recovery resumes it to done.
func TestDurableDrainInterruptsAndResumes(t *testing.T) {
	ctx := context.Background()
	spec := crashSpec()
	dir := t.TempDir()

	jl1, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := New(Config{Runner: &scenario.Runner{Workers: 1}, Journal: jl1, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only executor slot so the sweep is pinned pending —
	// deterministically in flight when the drain deadline passes.
	svc1.sem <- struct{}{}
	sw, _, err := svc1.Submit(ctx, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if interrupted := svc1.Drain(expired); interrupted != 1 {
		t.Fatalf("Drain interrupted %d sweeps, want 1", interrupted)
	}
	waitDone(t, sw)
	if st := sw.state(); st != api.StateCanceled {
		t.Fatalf("drained sweep state = %s, want canceled", st)
	}
	// Draining a shut-down service refuses new submissions.
	if _, _, err := svc1.Submit(ctx, spec, false); !errors.Is(err, ErrShutdown) {
		t.Errorf("Submit after Drain = %v, want ErrShutdown", err)
	}
	jl1.Close()

	// The terminal record must say interrupted, so recovery resumes
	// instead of honouring a cancellation.
	jl2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	var terminals []string
	if err := jl2.Replay(func(rec journal.Record) error {
		if term, ok := rec.(*journal.SweepTerminal); ok {
			terminals = append(terminals, term.State)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(terminals) != 1 || terminals[0] != journal.TerminalInterrupted {
		t.Fatalf("journaled terminals = %v, want [interrupted]", terminals)
	}

	svc2, err := New(Config{Runner: &scenario.Runner{Workers: 1}, Journal: jl2, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	stats, err := svc2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != 1 {
		t.Fatalf("stats = %+v, want the interrupted sweep resumed", stats)
	}
	sw2, ok := svc2.Get(sw.ID)
	if !ok {
		t.Fatal("interrupted sweep not re-registered")
	}
	waitDone(t, sw2)
	if st := sw2.state(); st != api.StateDone {
		res, rerr := sw2.Results()
		t.Fatalf("resumed sweep state = %s (res=%v err=%v), want done", st, res, rerr)
	}
}

// TestDurableDrainKeepsEveryInterruptedSweep: interrupted sweeps stay
// registered past MaxFinished, so compaction keeps their records even
// when each sweep has segments of its own, and the next recovery resumes
// every one of them.
func TestDurableDrainKeepsEveryInterruptedSweep(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// Tiny segments so compaction has sealed segments to drop.
	jl1, err := journal.Open(dir, journal.Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := New(Config{Runner: &scenario.Runner{Workers: 1}, Journal: jl1, MaxFinished: 1, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the only executor slot so every sweep is still queued when
	// the drain deadline passes.
	svc1.sem <- struct{}{}
	var queued []*Sweep
	for seed := uint64(1); seed <= 3; seed++ {
		spec := crashSpec()
		spec.Seed = seed
		sw, _, err := svc1.Submit(ctx, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, sw)
	}
	expired, cancel := context.WithCancel(ctx)
	cancel()
	if interrupted := svc1.Drain(expired); interrupted != len(queued) {
		t.Fatalf("Drain interrupted %d sweeps, want %d", interrupted, len(queued))
	}
	for _, sw := range queued {
		waitDone(t, sw)
	}
	if n := len(svc1.List()); n != len(queued) {
		t.Errorf("registry holds %d sweeps after the drain, want all %d interrupted ones", n, len(queued))
	}
	jl1.Close()

	jl2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	// The default MaxFinished: resumed sweeps finish in any order.
	svc2, err := New(Config{Runner: &scenario.Runner{Workers: 1}, Journal: jl2, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	stats, err := svc2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != len(queued) {
		t.Fatalf("stats = %+v, want all %d interrupted sweeps resumed", stats, len(queued))
	}
	for _, sw := range queued {
		sw2, ok := svc2.Get(sw.ID)
		if !ok {
			t.Fatalf("interrupted sweep %s not re-registered", sw.ID)
		}
		waitDone(t, sw2)
		if st := sw2.state(); st != api.StateDone {
			t.Errorf("resumed sweep %s state = %s, want done", sw.ID, st)
		}
	}
}

// TestSubmitShedsWhenSaturated: past MaxPending queued sweeps, new
// distinct submissions shed with 429 + Retry-After while dedup joins
// keep working; the queue drains and submissions flow again.
func TestSubmitShedsWhenSaturated(t *testing.T) {
	ctx := context.Background()
	block := make(chan struct{})
	run := func(ctx context.Context, spec scenario.Spec, progress func(done, total int)) (*scenario.SweepResults, error) {
		select {
		case <-block:
			return &scenario.SweepResults{Spec: spec}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	svc, srv := newTestServer(t, Config{Run: run, MaxConcurrent: 1, MaxPending: 1})
	defer close(block)

	specN := func(seed uint64) scenario.Spec {
		s := smallSpec()
		s.Seed = seed
		return s
	}
	// First sweep takes the slot, second queues.
	if _, _, err := svc.Submit(ctx, specN(1), false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Executing != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first sweep never took the executor slot")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := svc.Submit(ctx, specN(2), false); err != nil {
		t.Fatal(err)
	}
	// Third distinct sweep is shed.
	_, _, err := svc.Submit(ctx, specN(3), false)
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("saturated Submit = %v, want *OverloadError", err)
	}
	if oe.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", oe.RetryAfter)
	}
	// A dedup join of the queued sweep is exempt from shedding.
	if _, joined, err := svc.Submit(ctx, specN(2), false); err != nil || !joined {
		t.Errorf("dedup join under saturation = (joined=%v, %v), want join", joined, err)
	}
	// Over HTTP the shed answers 429 with a Retry-After header.
	resp := postSweep(t, srv.URL+"/v1/sweeps", specN(4))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed HTTP status = %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer seconds >= 1", resp.Header.Get("Retry-After"))
	}
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil || env.Error.Code != api.ErrOverloaded {
		t.Errorf("shed envelope = (%+v, %v), want code overloaded", env, err)
	}
}

// TestDurableRetentionCompaction: finally-terminal sweeps the registry
// retires past MaxFinished lose their journal records (segment-
// granularly), while registered sweeps survive replay and recovery.
func TestDurableRetentionCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// Tiny segments so each sweep's records seal quickly and dead
	// segments actually unlink.
	jl, err := journal.Open(dir, journal.Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Runner: &scenario.Runner{Workers: 1}, Journal: jl, MaxFinished: 1, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		spec := crashSpec()
		spec.Seed = seed
		sw, _, err := svc.Submit(ctx, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sw)
		if st := sw.state(); st != api.StateDone {
			t.Fatalf("sweep seed %d state = %s", seed, st)
		}
	}
	svc.Shutdown()
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	bySweep := map[string]int{}
	if err := jl2.Replay(func(rec journal.Record) error {
		bySweep[rec.SweepID()]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bySweep["sweep-1"] != 0 {
		t.Errorf("sweep-1 still has %d journal records past retention", bySweep["sweep-1"])
	}
	if bySweep["sweep-3"] == 0 {
		t.Error("retained sweep-3 lost its journal records")
	}
	// Recovery of the compacted journal restores only retained sweeps.
	svc2, err := New(Config{Runner: &scenario.Runner{Workers: 1}, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Shutdown()
	stats, err := svc2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := svc2.Get("sweep-1"); ok {
		t.Error("compacted-away sweep-1 reappeared after recovery")
	}
	if _, ok := svc2.Get("sweep-3"); !ok {
		t.Errorf("retained sweep-3 missing after recovery (stats %+v)", stats)
	}
}

// TestRecoverRejectedSpecFails: a journaled sweep whose spec no longer
// validates registers as failed with the validation error, as running it
// would, whether it was unfinished or done.
func TestRecoverRejectedSpecFails(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	jl, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := scenario.Spec{Nodes: 32, Days: -3}
	_, want := bad.Partition()
	if want == nil {
		t.Fatal("the spec partitions; it must not")
	}
	now := time.Now().UTC()
	if err := jl.Append(
		&journal.SweepSubmitted{ID: "sweep-1", Key: "k1", Spec: bad, Scenarios: 1, Submitted: now},
		&journal.SweepSubmitted{ID: "sweep-2", Key: "k2", Spec: bad, Scenarios: 1, Submitted: now},
		&journal.SweepTerminal{Sweep: "sweep-2", State: journal.TerminalDone, Workers: 1, Finished: now},
	); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	jl2, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	svc, err := New(Config{Runner: &scenario.Runner{Workers: 1}, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	if _, err := svc.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"sweep-1", "sweep-2"} {
		sw, ok := svc.Get(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		waitDone(t, sw)
		if st := sw.Status(); st.State != api.StateFailed || st.Error != want.Error() {
			t.Errorf("%s: state %s (%q), want failed with %q", id, st.State, st.Error, want.Error())
		}
	}
}

// TestWarmSweepsJournalInOneOrder: memo-warm sweeps land on the calling
// goroutine in group order, so repeated warm sweeps of one spec on a
// four-wide pool all write their ScenarioDone records in that one index
// order.
func TestWarmSweepsJournalInOneOrder(t *testing.T) {
	ctx := context.Background()
	spec := crashSpec()
	spec.Axes.Frequency = []string{"stock", "capped", "1.5GHz", "2.0GHz"}
	runner := &scenario.Runner{Workers: 4}
	if _, err := runner.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	jl, err := journal.Open(t.TempDir(), journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	svc, err := New(Config{Runner: runner, Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown()
	var ids []string
	for i := 0; i < 10; i++ {
		// A fresh name misses the registry's dedup; every simulation hits
		// the memo.
		spec.Name = "warm-" + strconv.Itoa(i)
		sw, _, err := svc.Submit(ctx, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sw)
		if _, err := sw.Results(); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sw.ID)
	}
	order := map[string][]int{}
	if err := jl.Replay(func(rec journal.Record) error {
		if r, ok := rec.(*journal.ScenarioDone); ok {
			order[r.Sweep] = append(order[r.Sweep], r.Index)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Group order: each run key's scenarios, ascending, in order of its
	// first appearance.
	part, err := spec.Partition()
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, key := range part.RunKeys {
		if i == slices.Index(part.RunKeys, key) {
			for j := i; j < len(part.RunKeys); j++ {
				if part.RunKeys[j] == key {
					want = append(want, j)
				}
			}
		}
	}
	for _, id := range ids {
		if !reflect.DeepEqual(order[id], want) {
			t.Errorf("sweep %s journaled indices %v, want group order %v", id, order[id], want)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
