// Package durable is the persistence layer under repro.Store: a write-ahead
// log whose records are the store's own logical update batches (define, load,
// delta — the same shapes core.DB applies in memory), periodic snapshot
// checkpoints of every relation's sorted base rows, and the recovery
// procedure that folds the two back together on open. The log is the redo
// log the overlay/delta machinery already implies: replaying it through
// core.DB.ApplyDeltas reconstructs exactly the state a crashed process had
// acknowledged as durable.
//
// # Log format
//
// The log is a sequence of segment files named wal-<firstLSN>.log. Every
// segment starts with an 8-byte magic and holds length-prefixed, CRC-checked
// records:
//
//	uint32  body length (big-endian)
//	uint32  CRC-32 (IEEE) of the body
//	body    uvarint LSN, one op byte, op-specific payload
//	        (internal/wire varint codecs: strings, tuples, delta batches)
//
// LSNs are assigned contiguously from 1. A torn or bit-rotted tail — a
// partial header, a body shorter than its declared length, a CRC mismatch —
// marks the end of recoverable history: recovery keeps everything before it,
// reports the damage as ErrCorruptLog, and truncates the tail so the segment
// is appendable again. Corruption anywhere but the tail of the final segment
// is unrecoverable and fails Open.
//
// # Commit and group fsync
//
// Append buffers a record and assigns its LSN under the segment lock; Commit
// blocks until the record is durable per the configured SyncPolicy. Under
// SyncGroup (the default) commits elect a sync leader: the first waiter
// flushes and fsyncs everything appended so far while later arrivals park,
// so concurrent writers amortize one fsync — and an optional accumulation
// window widens the batch further at the cost of commit latency. The
// in-memory apply may race ahead of the disk, but a write is only
// acknowledged to the caller after its record is durable, so a crash rolls
// back precisely to the last acknowledged (fsynced) LSN.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// ErrCorruptLog reports log damage: a torn or corrupt tail dropped during
// recovery (reported via Recovered.TailErr, with everything before it
// restored), or — fatally, from Open itself — corruption in the middle of
// the log, where valid records would follow the damage.
var ErrCorruptLog = errors.New("durable: corrupt log")

// ErrClosed reports an operation on a closed log or manager.
var ErrClosed = errors.New("durable: closed")

// SyncPolicy selects when Commit considers a record durable.
type SyncPolicy string

const (
	// SyncGroup (the default): every Commit waits for an fsync covering its
	// record, and concurrent commits share one fsync through a sync leader.
	SyncGroup SyncPolicy = "group"
	// SyncAlways: like SyncGroup, but never widened by an accumulation
	// window; the name documents intent where configs spell policies out.
	SyncAlways SyncPolicy = "always"
	// SyncNone: Commit only flushes to the OS; fsync is left to the kernel
	// and to checkpoints. A crash can lose acknowledged writes since the
	// last sync, but never corrupts what recovery reads.
	SyncNone SyncPolicy = "none"
)

// ParsePolicy resolves a policy name ("" selects SyncGroup).
func ParsePolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "":
		return SyncGroup, nil
	case SyncGroup, SyncAlways, SyncNone:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("durable: unknown sync policy %q (want group, always, or none)", s)
}

const (
	walMagic  = "gjwal\x00\x01\n"
	snapMagic = "gjsnap\x00\x01"
	// maxRecord bounds one record body (1 GiB); anything larger in a header
	// is treated as corruption, not an allocation request.
	maxRecord = 1 << 30
	// bufSize is the append buffer; records are flushed to the OS at every
	// commit, so the buffer only coalesces writes within one record burst.
	bufSize = 1 << 16
)

// segment is one on-disk log file; first is the LSN of its first record.
type segment struct {
	first uint64
	path  string
}

// log is the append side of the WAL. It is safe for concurrent use.
type log struct {
	dir    string
	policy SyncPolicy
	window time.Duration

	// fsyncHist/groupHist, when non-nil, record fsync latency and group-commit
	// batch sizes into the process metrics registry (see Options.MetricsLabel).
	fsyncHist *metrics.Histogram
	groupHist *metrics.Histogram

	// mu guards the active segment file, the append buffer, and LSN
	// assignment. fsyncs happen outside it (see ioLatch) so appends keep
	// flowing while the disk works.
	mu       sync.Mutex
	f        *os.File
	buf      []byte // pending appended bytes not yet written to f
	appended uint64 // highest LSN appended (buffered or written)
	nextLSN  uint64
	segs     []segment
	unpruned uint64 // bytes across un-pruned segments (headers + records)

	// sm guards the durability state; cond wakes Commit waiters after each
	// fsync. syncing doubles as the I/O latch serializing fsync, rotation,
	// and close against each other.
	sm      sync.Mutex
	cond    *sync.Cond
	synced  uint64 // highest LSN known durable
	syncing bool
	err     error // sticky I/O failure; fails all subsequent commits
	closed  bool
}

func newLog(dir string, policy SyncPolicy, window time.Duration) *log {
	l := &log{dir: dir, policy: policy, window: window}
	l.cond = sync.NewCond(&l.sm)
	return l
}

func segPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", first))
}

func snapPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", lsn))
}

// parseSeq extracts the hex sequence number from a wal-/snap- filename.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// appendRecord appends one record to buf in place: the header is reserved,
// the body appended behind it, and the header then filled with the body's
// length and CRC.
func appendRecord(buf []byte, lsn uint64, op byte, payload []byte) []byte {
	hdr := len(buf)
	buf = binary.BigEndian.AppendUint64(buf, 0)
	buf = binary.AppendUvarint(buf, lsn)
	buf = append(buf, op)
	buf = append(buf, payload...)
	body := buf[hdr+8:]
	binary.BigEndian.PutUint32(buf[hdr:], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[hdr+4:], crc32.ChecksumIEEE(body))
	return buf
}

// append assigns the next LSN and buffers the record. The caller must
// Commit the returned LSN before acknowledging the write.
func (l *log) append(op byte, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, ErrClosed
	}
	lsn := l.nextLSN
	l.nextLSN++
	n := len(l.buf)
	l.buf = appendRecord(l.buf, lsn, op, payload)
	l.appended = lsn
	l.unpruned += uint64(len(l.buf) - n)
	if len(l.buf) >= bufSize {
		if err := l.writeOutLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// unprunedBytes returns the bytes held across un-pruned segments — the
// volume recovery would have to re-read (and the disk keeps) until the next
// checkpoint prunes it.
func (l *log) unprunedBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.unpruned
}

// writeOutLocked drains the append buffer into the OS (no fsync), dropping a
// buffer that one large record (a bulk load) grew past bufSize.
func (l *log) writeOutLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	if cap(l.buf) > bufSize {
		l.buf = nil
	}
	return nil
}

// commit blocks until lsn is durable under the configured policy.
func (l *log) commit(lsn uint64) error {
	if l.policy == SyncNone {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.f == nil {
			return ErrClosed
		}
		return l.writeOutLocked()
	}
	window := time.Duration(0)
	if l.policy == SyncGroup {
		window = l.window
	}
	l.sm.Lock()
	defer l.sm.Unlock()
	for l.synced < lsn {
		if l.err != nil {
			return l.err
		}
		if l.closed {
			return ErrClosed
		}
		if l.syncing {
			// A sync (or rotation) is in flight; it may not cover this
			// record — re-check after it completes.
			l.cond.Wait()
			continue
		}
		l.leaderSync(window)
	}
	return l.err
}

// leaderSync runs one fsync round as the elected leader: flush everything
// appended so far and fsync the segment, then advance the durable watermark
// and wake the other waiters. Called with l.sm held; the latch (l.syncing)
// excludes rotation and close while the locks are released around the I/O.
func (l *log) leaderSync(window time.Duration) {
	l.syncing = true
	prevSynced := l.synced
	l.sm.Unlock()
	if window > 0 {
		// Accumulation window: let more commits pile into this fsync.
		time.Sleep(window)
	}
	l.mu.Lock()
	target := l.appended
	start := time.Now()
	err := l.writeOutLocked()
	f := l.f
	l.mu.Unlock()
	if err == nil && f != nil {
		err = f.Sync()
	}
	if l.fsyncHist != nil {
		l.fsyncHist.ObserveSince(start)
	}
	if err == nil && l.groupHist != nil && target > prevSynced {
		l.groupHist.Observe(float64(target - prevSynced))
	}
	l.sm.Lock()
	l.syncing = false
	if err != nil && l.err == nil {
		l.err = err
	}
	if err == nil && target > l.synced {
		l.synced = target
	}
	l.cond.Broadcast()
}

// acquireIOLatch blocks until no fsync/rotation is in flight and claims the
// latch. Returns false if the log is closed.
func (l *log) acquireIOLatch() bool {
	l.sm.Lock()
	defer l.sm.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		return false
	}
	l.syncing = true
	return true
}

func (l *log) releaseIOLatch(synced uint64, err error) {
	l.sm.Lock()
	l.syncing = false
	if err != nil && l.err == nil {
		l.err = err
	}
	if err == nil && synced > l.synced {
		l.synced = synced
	}
	l.cond.Broadcast()
	l.sm.Unlock()
}

// rotate durably finishes the active segment and starts a fresh one; every
// previously appended record is fsynced as a side effect. An active segment
// that holds no record yet (two checkpoints with no write between them)
// already is the fresh one and stays.
func (l *log) rotate() error {
	if !l.acquireIOLatch() {
		return ErrClosed
	}
	l.mu.Lock()
	target := l.appended
	err := l.writeOutLocked()
	if err == nil {
		err = l.f.Sync()
	}
	if err == nil && l.segs[len(l.segs)-1].first != l.nextLSN {
		err = l.f.Close()
		l.f = nil
		if err == nil {
			var f *os.File
			f, err = createSegment(l.dir, l.nextLSN)
			if err == nil {
				l.f = f
				l.segs = append(l.segs, segment{first: l.nextLSN, path: segPath(l.dir, l.nextLSN)})
				l.unpruned += uint64(len(walMagic))
			}
		}
	}
	l.mu.Unlock()
	l.releaseIOLatch(target, err)
	return err
}

// prune deletes segments wholly covered by a checkpoint at lsn (every record
// of the segment has LSN <= lsn) and snapshots older than that checkpoint.
// Deletion failures are ignored: stale files are re-pruned next time and
// never confuse recovery, which always prefers the newest valid snapshot.
func (l *log) prune(lsn uint64) {
	l.mu.Lock()
	keep := l.segs[:0]
	for i, s := range l.segs {
		if i+1 < len(l.segs) && l.segs[i+1].first <= lsn+1 {
			if fi, err := os.Stat(s.path); err == nil {
				if sz := uint64(fi.Size()); sz < l.unpruned {
					l.unpruned -= sz
				} else {
					l.unpruned = 0
				}
			}
			os.Remove(s.path)
			continue
		}
		keep = append(keep, s)
	}
	l.segs = keep
	l.mu.Unlock()
	names, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range names {
		if v, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && v < lsn {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	syncDir(l.dir)
}

// close flushes, fsyncs, and closes the active segment.
func (l *log) close() error {
	l.sm.Lock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		l.sm.Unlock()
		return nil
	}
	l.closed = true
	l.syncing = true
	l.sm.Unlock()

	l.mu.Lock()
	target := l.appended
	err := l.writeOutLocked()
	if err == nil && l.f != nil {
		err = l.f.Sync()
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.mu.Unlock()
	l.releaseIOLatch(target, err)
	return err
}

// createSegment creates a fresh segment file with its magic durably on disk.
func createSegment(dir string, first uint64) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, first), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	syncDir(dir)
	return f, nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// rawRecord is one decoded log record before op-level parsing.
type rawRecord struct {
	lsn  uint64
	op   byte
	body []byte // payload after lsn+op
	seg  string // base name of the segment file holding it
}

// scanSegment reads records from one segment file. It returns the records,
// the byte offset just past the last valid record, and the error that ended
// the scan: nil at a clean EOF, or a description of the torn/corrupt tail.
func scanSegment(path string) (recs []rawRecord, validEnd int64, tailErr error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < len(walMagic) {
		return nil, 0, fmt.Errorf("truncated segment header (%d bytes)", len(data))
	}
	if string(data[:len(walMagic)]) != walMagic {
		return nil, 0, fmt.Errorf("bad segment magic")
	}
	off := int64(len(walMagic))
	seg := filepath.Base(path)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off, nil
		}
		if len(rest) < 8 {
			return recs, off, fmt.Errorf("torn record header (%d bytes)", len(rest))
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		if n > maxRecord {
			return recs, off, fmt.Errorf("record length %d exceeds limit", n)
		}
		if uint64(len(rest)-8) < uint64(n) {
			return recs, off, fmt.Errorf("torn record body (%d of %d bytes)", len(rest)-8, n)
		}
		body := rest[8 : 8+n]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(rest[4:8]) {
			return recs, off, fmt.Errorf("record CRC mismatch")
		}
		lsn, k := binary.Uvarint(body)
		if k <= 0 || k >= len(body) {
			return recs, off, fmt.Errorf("record body too short for LSN+op")
		}
		recs = append(recs, rawRecord{lsn: lsn, op: body[k], body: body[k+1:], seg: seg})
		off += int64(8 + n)
	}
}

// openLog scans dir's segments, replays nothing itself — it returns the raw
// records after afterLSN for the manager to decode — and leaves the log
// positioned for appending: torn tails truncated away, nextLSN contiguous
// with the last valid record.
func openLog(dir string, policy SyncPolicy, window time.Duration, afterLSN uint64) (*log, []rawRecord, error, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var segs []segment
	for _, e := range entries {
		if v, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, segment{first: v, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	l := newLog(dir, policy, window)
	var all []rawRecord
	next := afterLSN + 1 // the LSN recovery expects next
	var tailErr error
	for i, s := range segs {
		// A segment's filename records the LSN it starts at; a first LSN
		// beyond what recovery expects proves records were pruned past the
		// snapshot we fell back to, even if the segment holds no records.
		if s.first > next {
			return nil, nil, nil, fmt.Errorf("%w: LSN gap — %s starts at %d, want %d (a snapshot or segment is missing)", ErrCorruptLog, filepath.Base(s.path), s.first, next)
		}
		recs, validEnd, scanErr := scanSegment(s.path)
		for _, r := range recs {
			if r.lsn <= afterLSN {
				next = max(next, r.lsn+1)
				continue
			}
			if r.lsn != next {
				return nil, nil, nil, fmt.Errorf("%w: LSN gap — have %d, want %d (a snapshot or segment is missing)", ErrCorruptLog, r.lsn, next)
			}
			all = append(all, r)
			next = r.lsn + 1
		}
		if scanErr != nil {
			if i != len(segs)-1 {
				return nil, nil, nil, fmt.Errorf("%w: %s: %v (not at the log tail)", ErrCorruptLog, filepath.Base(s.path), scanErr)
			}
			// Torn/corrupt tail of the final segment: tolerated. Truncate it
			// so new appends extend valid history. If even the segment
			// header is damaged, rewrite it as a valid empty segment —
			// truncating to zero would leave a magic-less file the NEXT
			// recovery rejects wholesale, losing whatever lands after it.
			tailErr = fmt.Errorf("%w: dropped tail of %s after LSN %d: %v", ErrCorruptLog, filepath.Base(s.path), next-1, scanErr)
			if validEnd < int64(len(walMagic)) {
				err = os.WriteFile(s.path, []byte(walMagic), 0o644)
			} else {
				err = os.Truncate(s.path, validEnd)
			}
			if err != nil {
				return nil, nil, nil, err
			}
		}
	}
	l.nextLSN = next
	l.appended = next - 1
	l.synced = next - 1
	l.segs = segs
	for _, s := range segs {
		if fi, err := os.Stat(s.path); err == nil {
			l.unpruned += uint64(fi.Size())
		}
	}
	if len(segs) == 0 {
		f, err := createSegment(dir, l.nextLSN)
		if err != nil {
			return nil, nil, nil, err
		}
		l.f = f
		l.segs = []segment{{first: l.nextLSN, path: segPath(dir, l.nextLSN)}}
		l.unpruned = uint64(len(walMagic))
	} else {
		f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, nil, err
		}
		if tailErr != nil {
			// O_APPEND positions at the truncated end; fsync the truncation
			// before trusting new appends to land after valid history.
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, nil, err
			}
		}
		l.f = f
	}
	return l, all, tailErr, nil
}
