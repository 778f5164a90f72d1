package journal

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/greenhpc/archertwin/internal/emissions"
	"github.com/greenhpc/archertwin/internal/scenario"
	"github.com/greenhpc/archertwin/internal/units"
)

var testTime = time.Date(2026, 8, 1, 12, 30, 0, 0, time.UTC)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// testRecords builds a small representative record sequence for sweep
// id.
func testRecords(id string) []Record {
	spec := scenario.Spec{Name: "j", Nodes: 32, Days: 1, Seed: 7}
	return []Record{
		&SweepSubmitted{ID: id, Key: "0123456789abcdef", Spec: spec, Scenarios: 2, Submitted: testTime},
		&ScenarioDone{Sweep: id, Index: 0, Result: scenario.Result{
			Scenario: scenario.Scenario{Index: 0, Name: "baseline"}, MeanPower: 1500, SimDigest: "d0"}},
		&ScenarioDone{Sweep: id, Index: 1, Result: scenario.Result{
			Scenario: scenario.Scenario{Index: 1, Name: "capped"}, MeanPower: 1400, SimDigest: "d1"}},
		&SweepTerminal{Sweep: id, State: TerminalDone, Workers: 1, Finished: testTime},
	}
}

// replayAll collects every record in the log.
func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendCommitReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords("sweep-1")
	if err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay before close: got %d records, want %d (or contents differ)", len(got), len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened log sees the identical sequence.
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay after reopen differs: got %+v", got)
	}
}

// TestFrameCodecStable pins the on-disk frame bytes of a fixed record:
// the journal format is a durability contract — existing journals must
// replay after an upgrade — so any change here is a breaking format
// change needing a new segment magic.
func TestFrameCodecStable(t *testing.T) {
	rec := &SweepTerminal{Sweep: "sweep-1", State: TerminalDone, Workers: 2, Finished: testTime}
	frame, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	want := "54000000f00db037" + // length, CRC-32C (little-endian)
		"03" + // type byte: SweepTerminal
		hexJSON
	if got := hex.EncodeToString(frame); got != want {
		t.Errorf("frame bytes drifted:\n got %s\nwant %s", got, want)
	}

	// A ScenarioDone frame, every field set, escapes and an 'e'-form
	// float included. The hex was written by encoding/json, before the
	// record had its own codec; decoding it gives the record back.
	done := &ScenarioDone{Sweep: "sweep-1", Index: 3, Result: scenario.Result{
		Scenario:  scenario.Scenario{Index: 3, Name: "freq=capped grid=<65>", Frequency: "capped", GridMean: 65, Nodes: 32},
		MeanPower: 1523.25, MeanUtil: 0.875, Energy: 3.5e-7, NodeHours: 1e21, MeanCI: 65,
		Emissions: emissions.Window{Duration: 36 * time.Hour, Energy: 54837, CI: 61.5, Scope2: 3372.5, Scope3: 1200, Total: 4572.5},
		Regime:    emissions.Balanced, AvoidedCarbon: -12.5, HasBaseline: true, Holds: 4, HoldDelay: 90 * time.Minute,
		Completed: 120, MeanWait: 7 * time.Minute, SimDigest: "abcdef0123456789"}}
	if frame, err = appendFrame(nil, done); err != nil {
		t.Fatal(err)
	}
	want = "9a0200009e89ef7b027b2273776565705f6964223a2273776565702d31222c22696e646578223a332c22726573756c74" +
		"223a7b225363656e6172696f223a7b22496e646578223a332c224e616d65223a22667265713d63617070656420677269" +
		"643d5c753030336336355c7530303365222c224672657175656e6379223a22636170706564222c22477269644d65616e" +
		"223a36352c225363686564756c6572223a22222c22576f726b6c6f6164223a22222c224e6f646573223a33322c224361" +
		"72626f6e506f6c696379223a22222c224d69644672657175656e6379223a22222c225072696f726974794d6978223a22" +
		"222c224261636b66696c6c506f6c696379223a22222c22507265656d7074696f6e223a22222c22506572664d6f64656c" +
		"223a22222c22466c656574223a22222c22537572726f67617465223a22227d2c224d65616e506f776572223a31353233" +
		"2e32352c224d65616e5574696c223a302e3837352c22456e65726779223a332e35652d372c224e6f6465486f75727322" +
		"3a31652b32312c224d65616e4349223a36352c22456d697373696f6e73223a7b224475726174696f6e223a3132393630" +
		"303030303030303030302c22456e65726779223a35343833372c224349223a36312e352c2253636f706532223a333337" +
		"322e352c2253636f706533223a313230302c22546f74616c223a343537322e357d2c22526567696d65223a312c224176" +
		"6f69646564436172626f6e223a2d31322e352c22486173426173656c696e65223a747275652c22486f6c6473223a342c" +
		"22486f6c6444656c6179223a353430303030303030303030302c22436f6d706c65746564223a3132302c224d65616e57" +
		"616974223a3432303030303030303030302c2253696d446967657374223a226162636465663031323334353637383922" +
		"7d7d"
	if got := hex.EncodeToString(frame); got != want {
		t.Errorf("ScenarioDone frame bytes drifted:\n got %s\nwant %s", got, want)
	}
	if back, err := decodeRecord(frame[frameHeader:]); err != nil || !reflect.DeepEqual(back, done) {
		t.Errorf("decoding the ScenarioDone frame: %+v, %v", back, err)
	}
}

// TestAppendRetainsNoRecord pins Append's contract: it encodes each
// record before it returns and keeps none, so a caller may reuse one
// record for a whole batch, as the durable service does.
func TestAppendRetainsNoRecord(t *testing.T) {
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := &ScenarioDone{Sweep: "sweep-1"}
	var want []Record
	for i := 0; i < 3; i++ {
		rec.Index = i
		rec.Result = scenario.Result{Scenario: scenario.Scenario{Index: i, Name: fmt.Sprint("s", i)}, MeanPower: units.Power(1000 + i)}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, &ScenarioDone{Sweep: rec.Sweep, Index: rec.Index, Result: rec.Result})
	}
	rec.Index, rec.Result = 99, scenario.Result{SimDigest: "changed after the appends"}
	if err := l.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Errorf("replay after reusing one record: got %+v, want %+v", got, want)
	}
}

// TestAppendAllocs pins the append path's allocations: a record is
// encoded straight onto the pending buffer, so appending one
// ScenarioDone to a warm log costs at most one allocation.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random, so json's encoder allocates more")
	}
	l, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := testRecords("sweep-1")[1]
	// Warm up: the segment's ID set holds the sweep, and the pending
	// buffer keeps room for every measured append after the flush.
	for i := 0; i < 200; i++ {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("Append of one ScenarioDone = %v allocs, want <= 1", allocs)
	}
}

// TestCommitAllocs pins the commit path's allocations on a free sync
// slot: the slot is taken without a deadline timer, so committing a
// NoSync log after an Append, and compacting with nothing to remove,
// allocate nothing.
func TestCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random, so json's encoder allocates more")
	}
	l, err := Open(t.TempDir(), Options{NoSync: true, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := testRecords("sweep-1")[1]
	// Warm up as TestAppendAllocs does, sealing a few segments for
	// Compact to keep.
	for i := 0; i < 200; i++ {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun would run Commit twice per Append, and the second has
	// nothing to sync, so each commit is measured as it does.
	ctx := context.Background()
	var before, after runtime.MemStats
	var commits uint64
	for i := 0; i < 100; i++ {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		err := l.Commit(ctx)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		commits += after.Mallocs - before.Mallocs
	}
	if commits != 0 {
		t.Errorf("Commit after an Append = %d allocs over 100 commits, want 0", commits)
	}
	keep := func(string) bool { return true }
	if got := testing.AllocsPerRun(100, func() {
		if n, err := l.Compact(keep); err != nil || n != 0 {
			t.Fatalf("Compact = %d, %v; want nothing removed", n, err)
		}
	}); got != 0 {
		t.Errorf("Compact with nothing to remove = %v allocs, want 0", got)
	}
}

// hexJSON is the hex of the fixed SweepTerminal JSON payload above.
var hexJSON = hex.EncodeToString([]byte(
	`{"sweep_id":"sweep-1","state":"done","workers":2,"finished":"2026-08-01T12:30:00Z"}`))

// TestTornTailEveryOffset truncates the journal at every byte offset of
// the final record and asserts open-time recovery drops exactly the
// partial record, keeps the prefix, and appends resume cleanly — the
// torn-write satellite of the durability contract.
func TestTornTailEveryOffset(t *testing.T) {
	master := t.TempDir()
	l, err := Open(master, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords("sweep-1")
	prefix, final := recs[:len(recs)-1], recs[len(recs)-1]
	if err := l.Append(prefix...); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	prefixLen := l.Size()
	if err := l.Append(final); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(master, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) <= prefixLen {
		t.Fatalf("final record added no bytes (%d <= %d)", len(data), prefixLen)
	}

	extra := &SweepTerminal{Sweep: "sweep-1", State: TerminalInterrupted, Finished: testTime}
	for cut := prefixLen; cut < int64(len(data)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		got := replayAll(t, l)
		if !reflect.DeepEqual(got, prefix) {
			t.Fatalf("cut=%d: replay kept %d records, want the %d-record prefix", cut, len(got), len(prefix))
		}
		// The next append lands where the torn record was dropped.
		if err := l.Append(extra); err != nil {
			t.Fatalf("cut=%d: append after torn recovery: %v", cut, err)
		}
		if err := l.Commit(context.Background()); err != nil {
			t.Fatalf("cut=%d: commit: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		want := append(append([]Record{}, prefix...), extra)
		if got := replayAll(t, l2); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut=%d: after resumed append got %d records, want %d", cut, len(got), len(want))
		}
		l2.Close()
	}
}

// TestCrashInjection drives the fault hook: CrashBefore loses the whole
// record, CrashTorn leaves a torn tail for Open to drop; a poisoned log
// refuses everything.
func TestCrashInjection(t *testing.T) {
	recs := testRecords("sweep-1")
	for _, tc := range []struct {
		name string
		pt   CrashPoint
	}{
		{"before", CrashPoint{Mode: CrashBefore}},
		{"torn-0", CrashPoint{Mode: CrashTorn, TornBytes: 0}},
		{"torn-5", CrashPoint{Mode: CrashTorn, TornBytes: 5}},
		{"torn-max", CrashPoint{Mode: CrashTorn, TornBytes: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			n := 0
			crashAt := 3 // third record
			l, err := Open(dir, Options{NoSync: true, Crash: func(Record, int) CrashPoint {
				n++
				if n == crashAt {
					return tc.pt
				}
				return CrashPoint{}
			}})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(recs[0], recs[1]); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(recs[2], recs[3]); !errors.Is(err, ErrCrashed) {
				t.Fatalf("append at crash point: %v, want ErrCrashed", err)
			}
			if !l.Crashed() {
				t.Fatal("log not poisoned after injected crash")
			}
			if err := l.Commit(context.Background()); !errors.Is(err, ErrCrashed) {
				t.Fatalf("commit on crashed log: %v, want ErrCrashed", err)
			}
			if err := l.Close(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("close on crashed log: %v, want ErrCrashed", err)
			}
			// Recovery sees exactly the two committed records.
			l2, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := replayAll(t, l2); !reflect.DeepEqual(got, recs[:2]) {
				t.Fatalf("after crash recovery got %d records, want 2", len(got))
			}
		})
	}
}

// TestRotationAndCompaction drives segment rotation with a tiny segment
// bound, then compacts dead sweeps away segment by segment.
func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"sweep-1", "sweep-2", "sweep-3", "sweep-4"}
	for _, id := range ids {
		if err := l.Append(testRecords(id)...); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}

	// Drop the two oldest sweeps; only whole-dead sealed segments go.
	dead := map[string]bool{"sweep-1": true, "sweep-2": true}
	removed, err := l.Compact(func(id string) bool { return !dead[id] })
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("compaction removed no segments")
	}
	// Live sweeps survive in full; replay still decodes cleanly.
	live := map[string]int{}
	if err := l.Replay(func(r Record) error { live[r.SweepID()]++; return nil }); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"sweep-3", "sweep-4"} {
		if live[id] != len(testRecords(id)) {
			t.Errorf("%s: %d records after compaction, want %d", id, live[id], len(testRecords(id)))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// And a reopen replays the compacted log without complaint.
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	replayAll(t, l2)
}

// TestGroupCommit has many goroutines appending and committing at once;
// every record must be durable and the log consistent afterwards.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := &ScenarioDone{Sweep: "sweep-1", Index: w*per + i,
					Result: scenario.Result{Scenario: scenario.Scenario{Index: w*per + i}, SimDigest: "d"}}
				if err := l.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.Commit(context.Background()); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seen := map[int]bool{}
	if err := l2.Replay(func(r Record) error {
		seen[r.(*ScenarioDone).Index] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != writers*per {
		t.Fatalf("%d distinct records after concurrent commits, want %d", len(seen), writers*per)
	}
}

// TestCommitStalled occupies the sync slot (a stand-in for a disk that
// stopped answering fsync) and asserts Commit fails fast with
// ErrStalled instead of queueing behind it.
func TestCommitStalled(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, CommitTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecords("sweep-1")[0]); err != nil {
		t.Fatal(err)
	}
	l.syncSlot <- struct{}{} // the stalled in-flight fsync
	start := time.Now()
	if err := l.Commit(context.Background()); !errors.Is(err, ErrStalled) {
		t.Fatalf("commit against stalled slot: %v, want ErrStalled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stalled commit took %v, want ~CommitTimeout", elapsed)
	}
	// A cancelled context wins over the stall deadline.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Commit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("commit with cancelled ctx: %v, want context.Canceled", err)
	}
	<-l.syncSlot
	if err := l.Commit(context.Background()); err != nil {
		t.Fatalf("commit after stall cleared: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsCorruptSealedSegment: corruption anywhere but the
// newest segment's tail is not a torn write — it must fail Open loudly
// rather than silently dropping records.
func TestOpenRejectsCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"sweep-1", "sweep-2", "sweep-3"} {
		if err := l.Append(testRecords(id)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}
