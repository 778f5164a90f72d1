// Package journal is the durability layer under the twinserver service:
// an append-only, CRC-framed record log that survives kill -9 and power
// loss up to its last committed record, so a restarted server can replay
// its sweep registry instead of losing it.
//
// Layout. A journal is a directory of segment files
// (journal-%016d.log), each opening with an 8-byte magic. Records are
// framed as
//
//	uint32 LE  length of body (type byte + JSON payload)
//	uint32 LE  CRC-32C of body
//	body
//
// and appended strictly at the tail of the newest segment; sealed
// segments are immutable. Appends rotate to a fresh segment past
// Options.SegmentBytes. Each segment carries the set of sweep IDs with a
// record in it, filled by Append and by Open's scan; Compact deletes the
// sealed segments whose every ID a caller-supplied predicate declares
// dead (retention), deciding from those sets without reading a file.
//
// Durability contract. Append buffers; Commit makes every record
// appended so far durable (one fsync, shared by every committer that was
// waiting — group commit), and returns ErrStalled rather than blocking
// forever when the disk stops answering. On Open, a torn tail — a final
// record only partially on disk after a crash — is detected by
// length/CRC and truncated away; everything before it is intact. Torn or
// corrupt frames anywhere *except* the final one of the newest segment
// mean real corruption and fail Open loudly.
//
// Fault injection. Options.Crash lets a test poison the log at an exact
// record boundary — before a frame, or mid-frame with a chosen number of
// bytes flushed — simulating a process crash at that instant; every
// operation on a poisoned log returns ErrCrashed. internal/faultinject
// builds deterministic seed-driven crash plans on top of this hook.
package journal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/greenhpc/archertwin/internal/jsonwire"
)

const (
	// magic opens every segment file.
	magic = "ATJRNL01"
	// frameHeader is the per-record overhead: length + CRC.
	frameHeader = 8
	// maxBody bounds one record body; a scenario.Result is wire-sized
	// (no embedded timeseries), so anything near this is corruption.
	maxBody = 16 << 20

	defaultSegmentBytes  = 4 << 20
	defaultCommitTimeout = 5 * time.Second
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// every platform the twin targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCrashed is returned by every operation after an injected crash has
// poisoned the log: the simulated process is dead, nothing more reaches
// disk.
var ErrCrashed = errors.New("journal: crashed (fault injection)")

// ErrStalled is returned by Commit (and rotation) when the disk does not
// acknowledge an fsync within Options.CommitTimeout. Callers shed load
// instead of queueing behind a dead disk.
var ErrStalled = errors.New("journal: commit stalled: disk did not acknowledge fsync in time")

// CrashMode says how an injected crash hits an append.
type CrashMode int

const (
	// CrashNone: no fault at this record.
	CrashNone CrashMode = iota
	// CrashBefore: the process dies before any byte of this record is
	// written — the journal ends cleanly at the previous record.
	CrashBefore
	// CrashTorn: the process dies mid-write — TornBytes bytes of this
	// record's frame reach disk, leaving a torn tail for Open to drop.
	CrashTorn
)

// CrashPoint is one injected crash decision.
type CrashPoint struct {
	Mode CrashMode
	// TornBytes is how many bytes of the frame reach disk under
	// CrashTorn (clamped to [0, frameLen-1]).
	TornBytes int
}

// CrashFunc is consulted once per appended record with the record and
// its full frame length; returning a non-CrashNone point kills the log
// at that exact boundary.
type CrashFunc func(rec Record, frameLen int) CrashPoint

// Options parameterise Open.
type Options struct {
	// SegmentBytes rotates to a new segment once the active one reaches
	// this size (default 4 MiB).
	SegmentBytes int64
	// CommitTimeout bounds how long Commit waits for the disk before
	// returning ErrStalled (default 5s).
	CommitTimeout time.Duration
	// NoSync skips fsync (tests: the OS page cache survives a simulated
	// kill -9, so crash tests stay fast without losing realism).
	NoSync bool
	// Crash, when non-nil, is the fault-injection hook (tests only).
	Crash CrashFunc
}

// Log is an open journal. Safe for concurrent use; create with Open.
type Log struct {
	dir  string
	opts Options

	// syncSlot serialises fsync, rotation, compaction and close: cap 1,
	// held for the full duration of the disk operation so a stalled disk
	// back-pressures later commits into ErrStalled. Lock order is always
	// syncSlot before mu; mu holders never wait on syncSlot.
	syncSlot chan struct{}

	mu       sync.Mutex
	f        *os.File
	buf      []byte // pending bytes not yet written to f
	seq      int64  // active segment sequence number
	size     int64  // active segment size including pending buf
	ids      idSet  // sweep IDs with a record in the active segment
	appended int64  // records accepted by Append
	synced   int64  // records known durable (flushed + fsynced)
	sealed   []sealedSegment
	crashed  error // ErrCrashed once poisoned
	closed   bool
}

type sealedSegment struct {
	path string
	ids  idSet // sweep IDs with a record in the segment
}

// idSet is the set of sweep IDs with a record in one segment — all that
// Compact needs to know about the segment. It keeps the IDs in order of
// first append, so Compact probes the newest sweeps, the ones retention
// keeps, first.
type idSet struct {
	has   map[string]bool
	order []string
}

// add puts id in the set.
func (s *idSet) add(id string) {
	if s.has[id] {
		return
	}
	if s.has == nil {
		s.has = map[string]bool{}
	}
	s.has[id] = true
	s.order = append(s.order, id)
}

// anyKept reports whether keep accepts some ID in the set, newest first.
func (s *idSet) anyKept(keep func(sweepID string) bool) bool {
	for i := len(s.order) - 1; i >= 0; i-- {
		if keep(s.order[i]) {
			return true
		}
	}
	return false
}

// segmentName renders the file name for a sequence number.
func segmentName(seq int64) string { return fmt.Sprintf("journal-%016d.log", seq) }

// Open opens (or creates) the journal in dir, verifying every sealed
// segment strictly and truncating a torn tail off the newest one.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.CommitTimeout <= 0 {
		opts.CommitTimeout = defaultCommitTimeout
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "journal-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)

	l := &Log{dir: dir, opts: opts, syncSlot: make(chan struct{}, 1)}
	if len(names) == 0 {
		if err := l.newSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	for i, name := range names {
		seq, err := parseSegmentSeq(name)
		if err != nil {
			return nil, err
		}
		last := i == len(names)-1
		var ids idSet
		valid, _, err := scanSegment(name, !last, func(rec Record) error {
			ids.add(rec.SweepID())
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !last {
			l.sealed = append(l.sealed, sealedSegment{path: name, ids: ids})
			continue
		}
		// The newest segment may end in a torn record from a crash: keep
		// the valid prefix, drop the tail, and append from there.
		if err := os.Truncate(name, valid); err != nil {
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", name, err)
		}
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.f, l.seq, l.size, l.ids = f, seq, valid, ids
	}
	return l, nil
}

// parseSegmentSeq extracts the sequence number from a segment path.
func parseSegmentSeq(path string) (int64, error) {
	var seq int64
	if _, err := fmt.Sscanf(filepath.Base(path), "journal-%d.log", &seq); err != nil {
		return 0, fmt.Errorf("journal: malformed segment name %s: %w", path, err)
	}
	return seq, nil
}

// newSegment creates and activates segment seq. Caller must hold mu (or
// own the log exclusively, as Open does).
func (l *Log) newSegment(seq int64) error {
	path := filepath.Join(l.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing segment magic: %w", err)
	}
	l.f, l.seq, l.size, l.ids = f, seq, int64(len(magic)), idSet{}
	return nil
}

// scanSegment reads one segment, calling fn (when non-nil) per decoded
// record. It returns the byte offset after the last valid record. In
// strict mode any malformed frame is an error; otherwise scanning stops
// at the first malformed frame (the torn tail) and reports where.
func scanSegment(path string, strict bool, fn func(Record) error) (int64, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		if strict {
			return 0, 0, fmt.Errorf("journal: %s: bad segment magic", path)
		}
		// A crash can tear even the magic of a fresh segment; the valid
		// prefix is empty. Restore the magic so the segment is usable,
		// and report the offset right after it.
		return int64(len(magic)), 0, rewriteMagic(path)
	}
	off := int64(len(magic))
	count := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, count, nil
		}
		bad := func(format string, args ...any) (int64, int, error) {
			if strict {
				return 0, 0, fmt.Errorf("journal: %s at offset %d: %s", path, off, fmt.Sprintf(format, args...))
			}
			return off, count, nil
		}
		if len(rest) < frameHeader {
			return bad("truncated frame header")
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n == 0 || n > maxBody {
			return bad("implausible body length %d", n)
		}
		if int64(len(rest)) < frameHeader+int64(n) {
			return bad("truncated body (%d of %d bytes)", len(rest)-frameHeader, n)
		}
		body := rest[frameHeader : frameHeader+int64(n)]
		if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(rest[4:8]); got != want {
			return bad("CRC mismatch (%08x != %08x)", got, want)
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return bad("%v", err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return 0, 0, err
			}
		}
		off += frameHeader + int64(n)
		count++
	}
}

// rewriteMagic restores the magic of a segment whose header itself was
// torn by a crash (the file then holds zero records).
func rewriteMagic(path string) error {
	if err := os.Truncate(path, 0); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte(magic))
	return err
}

// appendFrame appends rec's full frame to dst: it reserves the header,
// encodes the body (the type byte, then the JSON payload) straight after
// it, and fills in the body's length and CRC-32C in place. On error dst
// comes back unchanged.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	w, err := jsonwire.Append(append(append(dst, make([]byte, frameHeader)...), byte(rec.recordType())), rec)
	if err != nil {
		return dst, fmt.Errorf("journal: encoding %T: %w", rec, err)
	}
	body := w[start+frameHeader:]
	binary.LittleEndian.PutUint32(w[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(w[start+4:], crc32.Checksum(body, crcTable))
	return w, nil
}

// Append buffers records onto the log tail. They are not durable — and
// must not be acknowledged to a client — until a Commit returns nil.
// Append encodes each record before it returns and retains neither recs
// nor the records, so a caller may reuse one record for many appends.
func (l *Log) Append(recs ...Record) error {
	l.mu.Lock()
	err := l.appendLocked(recs)
	needRotate := err == nil && l.size >= l.opts.SegmentBytes
	l.mu.Unlock()
	if err != nil || !needRotate {
		return err
	}
	return l.rotate()
}

func (l *Log) appendLocked(recs []Record) error {
	if l.crashed != nil {
		return l.crashed
	}
	if l.closed {
		return errors.New("journal: appending to closed log")
	}
	for _, rec := range recs {
		start := len(l.buf)
		var err error
		if l.buf, err = appendFrame(l.buf, rec); err != nil {
			return err
		}
		frameLen := len(l.buf) - start
		if l.opts.Crash != nil {
			switch pt := l.opts.Crash(rec, frameLen); pt.Mode {
			case CrashBefore:
				return l.poisonLocked()
			case CrashTorn:
				n := pt.TornBytes
				if n < 0 {
					n = 0
				}
				if n >= frameLen {
					n = frameLen - 1
				}
				// The torn prefix reaches the OS (a kill -9 preserves the
				// page cache); everything after it is lost with the
				// process — including any pending buffer.
				l.buf = l.buf[:start+n]
				l.flushLocked()
				return l.poisonLocked()
			}
		}
		l.size += int64(frameLen)
		l.appended++
		l.ids.add(rec.SweepID())
	}
	return nil
}

// poisonLocked marks the log crashed; pending buffered bytes die with
// the simulated process.
func (l *Log) poisonLocked() error {
	l.crashed = ErrCrashed
	l.buf = nil
	return ErrCrashed
}

// flushLocked pushes the pending buffer into the active segment file.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.crashed = fmt.Errorf("journal: write failed: %w", err)
		return l.crashed
	}
	l.buf = l.buf[:0]
	return nil
}

// Commit makes every record appended before the call durable. Multiple
// concurrent committers share one fsync (group commit). When the disk
// does not answer within Options.CommitTimeout the call returns
// ErrStalled — the fsync stays in flight and continues to hold the sync
// slot, so subsequent commits against a stalled disk fail fast.
func (l *Log) Commit(ctx context.Context) error {
	l.mu.Lock()
	if l.crashed != nil {
		err := l.crashed
		l.mu.Unlock()
		return err
	}
	want := l.appended
	if l.synced >= want {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	waited, err := l.acquireSync(ctx)
	if err != nil {
		return err
	}

	l.mu.Lock()
	if err := l.crashed; err != nil {
		l.unlockDisk()
		return err
	}
	if l.synced >= want {
		// A committer that beat us to the slot already covered our
		// records — the free ride that makes group commit amortise.
		l.unlockDisk()
		return nil
	}
	if err := l.flushLocked(); err != nil {
		l.unlockDisk()
		return err
	}
	f, target := l.f, l.appended
	l.mu.Unlock()

	if l.opts.NoSync {
		l.markSynced(target)
		<-l.syncSlot
		return nil
	}
	// The fsync gets what the wait for the slot left of the deadline.
	deadline := time.NewTimer(l.opts.CommitTimeout - waited)
	defer deadline.Stop()
	done := make(chan error, 1)
	go func() {
		err := f.Sync()
		if err == nil {
			l.markSynced(target)
		} else {
			l.mu.Lock()
			l.crashed = fmt.Errorf("journal: fsync failed: %w", err)
			l.mu.Unlock()
		}
		done <- err
		// Release the slot only once the disk actually answered: a
		// stalled fsync must keep back-pressuring later commits.
		<-l.syncSlot
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("journal: fsync failed: %w", err)
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-deadline.C:
		return ErrStalled
	}
}

// acquireSync takes the sync slot, giving up with ErrStalled once
// Options.CommitTimeout passes (or with ctx's error), and reports how
// long it waited. A free slot is taken at once, with no timer. A stopped
// timer is released at once, where a time.After channel would stay live
// until it fired.
func (l *Log) acquireSync(ctx context.Context) (time.Duration, error) {
	select {
	case l.syncSlot <- struct{}{}:
		return 0, nil
	default:
	}
	start := time.Now()
	deadline := time.NewTimer(l.opts.CommitTimeout)
	defer deadline.Stop()
	select {
	case l.syncSlot <- struct{}{}:
		return time.Since(start), nil
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-deadline.C:
		return 0, ErrStalled
	}
}

// lockDisk takes the sync slot and then mu for a disk operation that
// needs no deadline of its own (rotation, replay, compaction, close),
// failing on a crashed log; unlockDisk releases both.
func (l *Log) lockDisk() error {
	if _, err := l.acquireSync(context.Background()); err != nil {
		return err
	}
	l.mu.Lock()
	if err := l.crashed; err != nil {
		l.unlockDisk()
		return err
	}
	return nil
}

func (l *Log) unlockDisk() {
	l.mu.Unlock()
	<-l.syncSlot
}

func (l *Log) markSynced(target int64) {
	l.mu.Lock()
	if target > l.synced {
		l.synced = target
	}
	l.mu.Unlock()
}

// rotate seals the active segment (flushed and fsynced) and opens a
// fresh one.
func (l *Log) rotate() error {
	if err := l.lockDisk(); err != nil {
		return err
	}
	defer l.unlockDisk()
	if l.size < l.opts.SegmentBytes {
		return nil // a racing append already rotated
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.crashed = fmt.Errorf("journal: fsync failed: %w", err)
			return l.crashed
		}
	}
	sealedPath := filepath.Join(l.dir, segmentName(l.seq))
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("journal: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, sealedSegment{path: sealedPath, ids: l.ids})
	if err := l.newSegment(l.seq + 1); err != nil {
		l.crashed = err
		return err
	}
	// Everything up to the rotation point is on disk and fsynced.
	l.synced = l.appended
	return nil
}

// Replay calls fn for every record in the log, oldest first, including
// records appended this session (they are flushed first so the walk is
// complete). Replay holds the log locked for its duration; it is meant
// for recovery, not hot paths.
func (l *Log) Replay(fn func(Record) error) error {
	if err := l.lockDisk(); err != nil {
		return err
	}
	defer l.unlockDisk()
	if err := l.flushLocked(); err != nil {
		return err
	}
	for _, seg := range l.sealed {
		if _, _, err := scanSegment(seg.path, true, fn); err != nil {
			return err
		}
	}
	_, _, err := scanSegment(filepath.Join(l.dir, segmentName(l.seq)), true, fn)
	return err
}

// Compact deletes the sealed segments in which keep rejects every sweep
// ID. Compaction is segment-granular — a segment holding even one live
// sweep's record survives whole — which keeps it a pure unlink: no
// rewrite, no window where a crash can lose live records. The decision
// comes from each segment's ID set, built from what was appended (and
// what Open verified), so Compact reads no file; strict verification is
// Open's and Replay's. The active segment is never compacted. keep runs
// with the log locked and must not call back into it. Returns how many
// segments were removed.
func (l *Log) Compact(keep func(sweepID string) bool) (int, error) {
	if err := l.lockDisk(); err != nil {
		return 0, err
	}
	defer l.unlockDisk()
	removed := 0
	remaining := l.sealed[:0]
	for i, seg := range l.sealed {
		if seg.ids.anyKept(keep) {
			remaining = append(remaining, seg)
			continue
		}
		if err := os.Remove(seg.path); err != nil {
			l.sealed = append(remaining, l.sealed[i:]...)
			return removed, fmt.Errorf("journal: compacting: %w", err)
		}
		removed++
	}
	l.sealed = remaining
	return removed, nil
}

// Size returns the active segment's current size in bytes, pending
// buffer included (observability, tests).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Appended returns how many records Append has accepted this session.
func (l *Log) Appended() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Close flushes, fsyncs and closes the log. A poisoned (crashed) log
// returns ErrCrashed without touching the file — the simulated process
// is already dead.
func (l *Log) Close() error {
	if err := l.lockDisk(); err != nil {
		return err
	}
	defer l.unlockDisk()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.flushLocked(); err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync on close: %w", err)
		}
	}
	return l.f.Close()
}

// Crashed reports whether fault injection has poisoned the log.
func (l *Log) Crashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return errors.Is(l.crashed, ErrCrashed)
}
