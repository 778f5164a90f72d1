package journal

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalReplay throws arbitrary bytes at the open/replay path as
// the newest segment of a journal: Open must never panic, and whenever
// it succeeds the log must be fully usable — replayable, appendable and
// reopenable — no matter how mangled the input was, and its sweep-ID
// index must name exactly the sweeps Replay reports. This is the
// corrupt-frame half of the torn-write story: the every-offset
// truncation test covers honest crashes, the fuzzer covers bit rot and
// adversarial garbage in the recovery-eligible tail.
func FuzzJournalReplay(f *testing.F) {
	// Seed with an empty file, a bare magic, a valid segment, and that
	// valid segment with a flipped byte in each region (header, CRC,
	// payload).
	f.Add([]byte{})
	f.Add([]byte(magic))
	dir := f.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Append(testRecords("sweep-1")...); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, off := range []int{2, len(magic) + 1, len(magic) + 5, len(magic) + frameHeader + 3} {
		if off < len(valid) {
			mut := append([]byte{}, valid...)
			mut[off] ^= 0x80
			f.Add(mut)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{NoSync: true})
		if err != nil {
			return // rejected loudly is a valid outcome
		}
		n, replayed := 0, idSet{}
		if err := l.Replay(func(rec Record) error {
			n++
			replayed.add(rec.SweepID())
			return nil
		}); err != nil {
			t.Fatalf("Open succeeded but Replay failed: %v", err)
		}
		// Compact's index of the recovered segment is exactly the sweeps
		// Replay reports.
		if !reflect.DeepEqual(l.ids, replayed) {
			t.Fatalf("active segment index %v, Replay reports sweeps %v", l.ids, replayed)
		}
		// The recovered log must accept new records and survive a
		// close/reopen cycle with them intact.
		extra := testRecords("sweep-fuzz")[0]
		if err := l.Append(extra); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Commit(context.Background()); err != nil {
			t.Fatalf("commit after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after recovered append: %v", err)
		}
		defer l2.Close()
		m := 0
		if err := l2.Replay(func(Record) error { m++; return nil }); err != nil {
			t.Fatalf("replay after reopen: %v", err)
		}
		if m != n+1 {
			t.Fatalf("reopen sees %d records, want %d (recovered) + 1 (appended)", m, n)
		}
	})
}
