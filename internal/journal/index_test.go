package journal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/greenhpc/archertwin/internal/rng"
)

// fileIDs returns the distinct sweep IDs one segment file holds, read by
// a strict scan.
func fileIDs(t *testing.T, path string) idSet {
	t.Helper()
	var ids idSet
	if _, _, err := scanSegment(path, true, func(rec Record) error {
		ids.add(rec.SweepID())
		return nil
	}); err != nil {
		t.Fatalf("rescanning %s: %v", path, err)
	}
	return ids
}

// checkIndex asserts every segment's ID set equals the IDs its file
// holds. Call it only when nothing is buffered (right after Open).
func checkIndex(t *testing.T, l *Log) {
	t.Helper()
	for _, seg := range l.sealed {
		if want := fileIDs(t, seg.path); !reflect.DeepEqual(seg.ids, want) {
			t.Fatalf("sealed segment %d: index %v, file holds %v", seg.seq, seg.ids, want)
		}
	}
	if want := fileIDs(t, filepath.Join(l.dir, segmentName(l.seq))); !reflect.DeepEqual(l.ids, want) {
		t.Fatalf("active segment %d: index %v, file holds %v", l.seq, l.ids, want)
	}
}

// rescanVerdicts applies the compaction rule by reading the files: a
// sealed segment goes exactly when keep rejects the sweep of every
// record in it.
func rescanVerdicts(t *testing.T, l *Log, keep func(string) bool) (kept, removed []int64) {
	t.Helper()
	for _, seg := range l.sealed {
		live := false
		if _, _, err := scanSegment(seg.path, true, func(rec Record) error {
			live = live || keep(rec.SweepID())
			return nil
		}); err != nil {
			t.Fatalf("rescanning %s: %v", seg.path, err)
		}
		if live {
			kept = append(kept, seg.seq)
		} else {
			removed = append(removed, seg.seq)
		}
	}
	return kept, removed
}

// TestCompactIndexMatchesRescan runs seeded random histories of appends
// (random sweep IDs), commits, rotations, compactions over random live
// sets, close/reopen cycles, torn tails and injected crashes. Compact
// must remove exactly the segments a re-scan of the files would, and
// every Open must rebuild each segment's ID set to what its file holds.
func TestCompactIndexMatchesRescan(t *testing.T) {
	const seeds, steps = 60, 300
	for seed := uint64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			dir := t.TempDir()
			var armed *CrashPoint // fires on the next appended record
			opts := Options{
				NoSync:       true,
				SegmentBytes: int64(200 + r.Intn(800)),
				Crash: func(Record, int) CrashPoint {
					if armed == nil {
						return CrashPoint{}
					}
					pt := *armed
					armed = nil
					return pt
				},
			}
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			reopen := func() {
				if l.Crashed() {
					l.f.Close() // the simulated process died holding it
				} else if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if r.Intn(2) == 0 {
					// Tear the newest segment's tail at a random offset.
					newest := filepath.Join(dir, segmentName(l.seq))
					info, err := os.Stat(newest)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(newest, int64(r.Intn(int(info.Size())+1))); err != nil {
						t.Fatal(err)
					}
				}
				if l, err = Open(dir, opts); err != nil {
					t.Fatalf("reopen: %v", err)
				}
				checkIndex(t, l)
			}
			checkIndex(t, l)

			compactions, removedTotal := 0, 0
			for step := 0; step < steps; step++ {
				switch k := r.Intn(20); {
				case k < 10:
					recs := make([]Record, 1+r.Intn(3))
					for i := range recs {
						recs[i] = testRecords(fmt.Sprintf("s%d", r.Intn(8)))[r.Intn(4)]
					}
					if err := l.Append(recs...); err != nil && !errors.Is(err, ErrCrashed) {
						t.Fatalf("step %d: append: %v", step, err)
					}
				case k < 13:
					if err := l.Commit(context.Background()); err != nil && !errors.Is(err, ErrCrashed) {
						t.Fatalf("step %d: commit: %v", step, err)
					}
				case k < 16:
					live := map[string]bool{}
					for i := 0; i < 8; i++ {
						live[fmt.Sprintf("s%d", i)] = r.Intn(3) == 0
					}
					keep := func(id string) bool { return live[id] }
					if l.Crashed() {
						if _, err := l.Compact(keep); !errors.Is(err, ErrCrashed) {
							t.Fatalf("step %d: compact on crashed log: %v, want ErrCrashed", step, err)
						}
						continue
					}
					wantKept, wantRemoved := rescanVerdicts(t, l, keep)
					n, err := l.Compact(keep)
					if err != nil {
						t.Fatalf("step %d: compact: %v", step, err)
					}
					var kept []int64
					for _, seg := range l.sealed {
						kept = append(kept, seg.seq)
					}
					if n != len(wantRemoved) || !reflect.DeepEqual(kept, wantKept) {
						t.Fatalf("step %d: compact removed %d, kept %v; the re-scan rule removes %v, keeps %v",
							step, n, kept, wantRemoved, wantKept)
					}
					for _, seq := range wantRemoved {
						if _, err := os.Stat(filepath.Join(dir, segmentName(seq))); !os.IsNotExist(err) {
							t.Fatalf("step %d: removed segment %d still on disk (%v)", step, seq, err)
						}
					}
					compactions++
					removedTotal += n
				case k < 18:
					reopen()
				default:
					mode := CrashBefore
					if r.Intn(2) == 0 {
						mode = CrashTorn
					}
					armed = &CrashPoint{Mode: mode, TornBytes: r.Intn(64)}
				}
			}
			if compactions == 0 || removedTotal == 0 {
				t.Fatalf("history exercised %d compactions removing %d segments; want both > 0", compactions, removedTotal)
			}
			reopen()
			l.Close()
		})
	}
}

// TestCompactReadsNoFile pins where strict verification lives. Compact
// decides from the ID sets alone, so garbage in sealed files neither
// stops it unlinking a dead segment nor makes it drop a live one; Replay
// and the next Open still fail loudly on the live corrupt segment.
func TestCompactReadsNoFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"sweep-1", "sweep-2", "sweep-3"} {
		if err := l.Append(testRecords(id)...); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Each sweep outgrows a segment, so each seals its own.
	if len(l.sealed) != 3 {
		t.Fatalf("%d sealed segments, want 3", len(l.sealed))
	}
	dead, live := l.sealed[0].path, l.sealed[1].path
	for _, path := range []string{dead, live} {
		if err := os.WriteFile(path, []byte("not a journal segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l.Compact(func(id string) bool { return id != "sweep-1" })
	if err != nil {
		t.Fatalf("compact over corrupt sealed files: %v", err)
	}
	if removed != 1 {
		t.Fatalf("compact removed %d segments, want 1 (the dead one)", removed)
	}
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Fatalf("dead corrupt segment still on disk (%v)", err)
	}
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("live corrupt segment was removed: %v", err)
	}
	if err := l.Replay(func(Record) error { return nil }); err == nil {
		t.Fatal("Replay accepted a corrupt sealed segment")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

// TestCompactFailureKeepsSegmentList: when an unlink fails midway,
// Compact reports it and leaves the sealed list exactly the segments
// still on disk, each once, so a later Replay or Compact sees no
// duplicate and no hole.
func TestCompactFailureKeepsSegmentList(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, id := range []string{"sweep-1", "sweep-2", "sweep-3", "sweep-4"} {
		if err := l.Append(testRecords(id)...); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.sealed) != 4 {
		t.Fatalf("%d sealed segments, want 4", len(l.sealed))
	}
	// The third segment's file vanishes behind the log's back, so its
	// unlink fails.
	if err := os.Remove(l.sealed[2].path); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Compact(func(id string) bool { return id == "sweep-2" }); err == nil {
		t.Fatal("compact reported no error for a failed unlink")
	}
	var seqs []int64
	for _, seg := range l.sealed {
		seqs = append(seqs, seg.seq)
	}
	if want := []int64{2, 3, 4}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("sealed segments %v after a failed compaction, want %v", seqs, want)
	}
}
