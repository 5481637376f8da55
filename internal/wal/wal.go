// Package wal implements the append-only write-ahead log that gives Aire's
// prototype a real durability story (ROADMAP item 1).
//
// Layout: a WAL directory holds segment files named wal-%016d.seg, where the
// number is the sequence of the first entry the segment may contain. Each
// segment starts with an 8-byte header (4-byte magic + 4-byte version) and is
// followed by length-prefixed records:
//
//	[4B big-endian payload length][4B big-endian CRC32 (IEEE) of payload][payload]
//
// The payload is the JSON encoding of an Entry — one entry per atomic commit,
// carrying the full change set of that commit (vdb puts/rollbacks/GC,
// repair-log appends/updates, queue and inbox transitions) plus the logical
// clock and ID-generator positions observed at commit time.
//
// Durability policy is configurable (FsyncEveryCommit / FsyncInterval /
// FsyncNone) so that fsync lag is an injectable simulator fault rather than a
// feared one: the writer tracks the durable offset (everything at or below it
// has been fsynced) and CrashLose simulates power loss by truncating the
// active segment back to that offset. A process crash without power loss
// keeps buffered-but-unsynced records, which the simulator models by simply
// not calling CrashLose.
//
// Replay tolerates a torn final record (partial write at the tail of the last
// segment) but treats any other framing or CRC violation as loud corruption:
// a committed record is never silently dropped.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	segMagic   uint32 = 0xA17E10C5 // "aire log"
	segVersion uint32 = 1
	headerSize        = 8
	frameSize         = 8 // length + crc
	// DefaultSegmentBytes is the rotation threshold for segment files.
	DefaultSegmentBytes = 4 << 20
)

// ErrCorrupt wraps all non-torn corruption detected during replay.
var ErrCorrupt = errors.New("wal: corrupt log")

// FsyncPolicy selects when appended records become durable.
type FsyncPolicy int

const (
	// FsyncEveryCommit fsyncs after every Append: no committed record is
	// ever lost to power failure.
	FsyncEveryCommit FsyncPolicy = iota
	// FsyncInterval fsyncs every Interval-th Append (and on rotation/close).
	// A power failure can lose up to Interval-1 trailing commits.
	FsyncInterval
	// FsyncNone never fsyncs explicitly; power failure can lose everything
	// in the active segment. Process crashes without power loss lose nothing.
	FsyncNone
)

// String names the policy the way command-line flags spell it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncEveryCommit:
		return "every"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParsePolicy parses a flag-style policy name.
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "every", "every-commit", "always":
		return FsyncEveryCommit, nil
	case "interval":
		return FsyncInterval, nil
	case "none", "never":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want every|interval|none)", s)
}

// Op is one operation inside a commit's change set. Kind selects the
// decoder ("vdb-put", "log-append", "q-set", "in-commit", ...); Data is the
// kind-specific JSON payload. Data must be compact JSON exactly as
// json.Marshal writes it: the writer frames it verbatim instead of
// re-scanning it (see appendEntry).
type Op struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Entry is one committed change set.
type Entry struct {
	// Seq is the entry's position in the log, starting at 1.
	Seq uint64 `json:"seq"`
	// Kind labels the commit that produced the entry ("exec", "repair",
	// "queue", "inbox", "gc", ...); informational.
	Kind string `json:"kind"`
	// Clock is the service logical-clock position observed at append time.
	Clock int64 `json:"clock,omitempty"`
	// IDs is the idgen counter observed at append time.
	IDs int64 `json:"ids,omitempty"`
	// Ops is the ordered change set.
	Ops []Op `json:"ops,omitempty"`
}

// Options configures a Writer.
type Options struct {
	// Policy selects the fsync policy; default FsyncEveryCommit.
	Policy FsyncPolicy
	// Interval is the commit count between fsyncs under FsyncInterval;
	// default 8.
	Interval int
	// SegmentBytes is the rotation threshold; default DefaultSegmentBytes.
	SegmentBytes int64
	// OnAppend / OnSync, when non-nil, observe the latency of each entry
	// append (marshal + frame + write, under the writer lock) and each
	// fsync that actually reached the disk. They are the wal package's
	// whole observability surface — wal stays free of the obs dependency;
	// internal/persist wires these to the owning controller's registry.
	// Hooks must be fast and must not call back into the writer.
	OnAppend func(d time.Duration)
	OnSync   func(d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 8
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Writer appends entries to the log directory. Safe for concurrent use.
//
// Fsyncs are group commits: the frame write happens under mu, but the
// flush itself runs under syncMu only, so concurrent Appends never queue
// behind each other's disk latency — whichever appender reaches the disk
// first makes every already-written entry durable, and the rest return
// without issuing their own fsync.
type Writer struct {
	mu   sync.Mutex
	dir  string
	opts Options

	f       *os.File // active segment
	off     int64    // logical end offset of active segment
	durable int64    // offset of active segment known to be on disk
	seq     uint64   // last appended entry seq
	pending int      // appends since last fsync (FsyncInterval)
	closed  bool
	frame   []byte // scratch for the next frame, reused under mu

	// durSeq is the last entry seq known durable; epoch counts segment
	// rotations so a sync completion can tell whether its captured offsets
	// still describe the active segment. Both guarded by mu.
	durSeq uint64
	epoch  uint64

	// syncMu serializes fsyncs; it is never held together with mu, so an
	// in-flight flush blocks neither appends nor crash simulation.
	syncMu sync.Mutex
}

// syncDir flushes dir's entry table so renames, creations, and removals
// inside it survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory, making file creations, renames, and removals
// inside it durable. Checkpointing uses it to pin the checkpoint's
// directory entry before the covered WAL segments are deleted.
func SyncDir(dir string) error { return syncDir(dir) }

func segName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016d.seg", firstSeq)
}

func segFirstSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Segments lists the segment files in dir in ascending first-seq order.
func Segments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if _, ok := segFirstSeq(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Open opens (creating if necessary) the log in dir, scans existing
// segments, truncates a torn tail off the final segment, and positions the
// writer after the last intact entry. Mid-log corruption is returned as an
// error wrapping ErrCorrupt.
func Open(dir string, opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opts: opts}

	names, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		if err := w.rotateLocked(1); err != nil {
			return nil, err
		}
		return w, nil
	}

	// Validate every segment; only the last may have a torn tail. Earlier
	// segments may have been truncated away by checkpoints, so seq
	// continuity starts at the first segment's named first-seq.
	first, _ := segFirstSeq(names[0])
	lastSeq := first - 1
	for i, name := range names {
		final := i == len(names)-1
		path := filepath.Join(dir, name)
		end, last, torn, err := scanSegment(path, lastSeq)
		if err != nil {
			return nil, err
		}
		if torn && !final {
			return nil, fmt.Errorf("%w: segment %s torn but not final", ErrCorrupt, name)
		}
		if last > 0 {
			lastSeq = last
		}
		if final {
			if torn {
				if err := os.Truncate(path, end); err != nil {
					return nil, err
				}
			}
			if end < headerSize {
				// Torn before the header was durable: rebuild the segment.
				if err := os.Remove(path); err != nil {
					return nil, err
				}
				w.seq = lastSeq
				if err := w.rotateLocked(lastSeq + 1); err != nil {
					return nil, err
				}
				return w, nil
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return nil, err
			}
			if _, err := f.Seek(end, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			w.f = f
			w.off = end
			w.durable = end // survived restart ⇒ treat as durable baseline
			w.seq = lastSeq
			w.durSeq = lastSeq
		}
	}
	return w, nil
}

// scanSegment walks one segment, verifying framing, CRCs, and that entry
// seqs ascend from prevSeq. It returns the offset just past the last intact
// entry, the last intact seq (0 if none), and whether a torn tail was cut.
func scanSegment(path string, prevSeq uint64) (end int64, lastSeq uint64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	name := filepath.Base(path)
	if len(data) < headerSize {
		// A header-less segment can only arise from a torn create; treat as
		// torn-at-zero so Open rebuilds it.
		return 0, 0, true, nil
	}
	if binary.BigEndian.Uint32(data[0:4]) != segMagic {
		return 0, 0, false, fmt.Errorf("%w: segment %s: bad magic", ErrCorrupt, name)
	}
	if v := binary.BigEndian.Uint32(data[4:8]); v != segVersion {
		return 0, 0, false, fmt.Errorf("%w: segment %s: unsupported version %d", ErrCorrupt, name, v)
	}
	off := int64(headerSize)
	last := prevSeq
	for {
		if off == int64(len(data)) {
			return off, last, false, nil
		}
		if off+frameSize > int64(len(data)) {
			return off, last, true, nil // torn frame header
		}
		ln := binary.BigEndian.Uint32(data[off : off+4])
		crc := binary.BigEndian.Uint32(data[off+4 : off+8])
		if ln == 0 || ln > 64<<20 {
			return 0, 0, false, fmt.Errorf("%w: segment %s: absurd record length %d at offset %d", ErrCorrupt, name, ln, off)
		}
		if off+frameSize+int64(ln) > int64(len(data)) {
			return off, last, true, nil // torn payload
		}
		payload := data[off+frameSize : off+frameSize+int64(ln)]
		if crc32.ChecksumIEEE(payload) != crc {
			return 0, 0, false, fmt.Errorf("%w: segment %s: CRC mismatch at offset %d", ErrCorrupt, name, off)
		}
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return 0, 0, false, fmt.Errorf("%w: segment %s: undecodable entry at offset %d: %v", ErrCorrupt, name, off, err)
		}
		if e.Seq != last+1 {
			return 0, 0, false, fmt.Errorf("%w: segment %s: seq %d follows %d", ErrCorrupt, name, e.Seq, last)
		}
		last = e.Seq
		off += frameSize + int64(ln)
	}
}

// rotateLocked opens a fresh segment whose name claims firstSeq.
func (w *Writer) rotateLocked(firstSeq uint64) error {
	if w.f != nil {
		// Finished segments are always synced so that only the active
		// segment's tail is ever volatile.
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	path := filepath.Join(w.dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], segMagic)
	binary.BigEndian.PutUint32(hdr[4:8], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	// Pin the new segment's directory entry: without this a power loss can
	// drop the file itself even though its contents were synced, leaving a
	// sequence gap that replay reports as corruption.
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.off = headerSize
	w.durable = headerSize
	w.pending = 0
	// Everything before the fresh segment was synced above (or at Open),
	// so every already-assigned seq is durable.
	w.durSeq = w.seq
	w.epoch++
	return nil
}

// Append writes one entry and applies the fsync policy, returning the
// entry's assigned sequence number. The flush (when the policy demands one)
// happens outside w.mu as a group commit — see SyncTo.
func (w *Writer) Append(kind string, clock, ids int64, ops []Op) (uint64, error) {
	seq, syncNeeded, err := w.AppendDeferred(kind, clock, ids, ops)
	if err != nil {
		return 0, err
	}
	if syncNeeded {
		if err := w.SyncTo(seq); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// AppendDeferred writes one entry without flushing it, reporting whether
// the fsync policy owes a flush. Callers on a hot lock-held path use it to
// commit under their own lock and run the owed SyncTo after releasing it,
// so the disk flush serializes nothing but the disk.
func (w *Writer) AppendDeferred(kind string, clock, ids int64, ops []Op) (seq uint64, syncNeeded bool, err error) {
	var appendStart time.Time
	if w.opts.OnAppend != nil {
		appendStart = time.Now()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, false, errors.New("wal: writer closed")
	}
	if w.off >= w.opts.SegmentBytes {
		if err := w.rotateLocked(w.seq + 1); err != nil {
			return 0, false, err
		}
	}
	e := Entry{Seq: w.seq + 1, Kind: kind, Clock: clock, IDs: ids, Ops: ops}
	buf := appendEntry(append(w.frame[:0], make([]byte, frameSize)...), &e)
	payload := buf[frameSize:]
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	if cap(buf) <= maxKeptFrame {
		w.frame = buf
	}
	if _, err := w.f.Write(buf); err != nil {
		return 0, false, err
	}
	w.off += int64(len(buf))
	w.seq = e.Seq

	switch w.opts.Policy {
	case FsyncEveryCommit:
		syncNeeded = true
	case FsyncInterval:
		w.pending++
		if w.pending >= w.opts.Interval {
			w.pending = 0
			syncNeeded = true
		}
	case FsyncNone:
		// never owed
	}
	if w.opts.OnAppend != nil {
		w.opts.OnAppend(time.Since(appendStart))
	}
	return e.Seq, syncNeeded, nil
}

// maxKeptFrame caps the frame scratch a Writer keeps between appends, so
// one huge commit does not pin its buffer for the writer's lifetime.
const maxKeptFrame = 64 << 10

// appendEntry appends the JSON encoding of e to buf. The bytes are exactly
// what json.Marshal(e) writes, but the op payloads are copied in as they
// are rather than re-scanned and compacted: each Data is already compact
// json.Marshal output, so the encoder's second pass would change nothing.
func appendEntry(buf []byte, e *Entry) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, `,"kind":`...)
	buf = appendString(buf, e.Kind)
	if e.Clock != 0 {
		buf = append(buf, `,"clock":`...)
		buf = strconv.AppendInt(buf, e.Clock, 10)
	}
	if e.IDs != 0 {
		buf = append(buf, `,"ids":`...)
		buf = strconv.AppendInt(buf, e.IDs, 10)
	}
	if len(e.Ops) > 0 {
		buf = append(buf, `,"ops":[`...)
		for i, op := range e.Ops {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"kind":`...)
			buf = appendString(buf, op.Kind)
			if len(op.Data) > 0 {
				buf = append(buf, `,"data":`...)
				buf = append(buf, op.Data...)
			}
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// appendString appends s as the JSON string json.Marshal writes. Printable
// ASCII with nothing to escape is quoted directly; anything else (quotes,
// backslashes, control and HTML-sensitive characters, non-ASCII) goes
// through json.Marshal itself.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// SyncTo blocks until every entry up to and including seq is durable. It is
// the group-commit rendezvous: concurrent callers pile up on syncMu, the
// first fsync covers everything written before it started, and the rest
// observe durSeq and return without touching the disk.
func (w *Writer) SyncTo(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if w.durSeq >= seq || w.f == nil {
		w.mu.Unlock()
		return nil
	}
	f, off, cur, epoch := w.f, w.off, w.seq, w.epoch
	w.mu.Unlock()
	var syncStart time.Time
	if w.opts.OnSync != nil {
		syncStart = time.Now()
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if w.opts.OnSync != nil {
		w.opts.OnSync(time.Since(syncStart))
	}
	w.mu.Lock()
	if w.epoch == epoch {
		// The captured offsets still describe the active segment; a
		// rotation in the window would have marked everything durable
		// itself (finished segments are synced on rotation).
		if off > w.durable {
			w.durable = off
		}
		if cur > w.durSeq {
			w.durSeq = cur
		}
		w.pending = 0
	}
	w.mu.Unlock()
	return nil
}

// Sync forces everything appended so far onto disk.
func (w *Writer) Sync() error {
	_, err := w.SyncedSeq()
	return err
}

// SyncedSeq forces everything appended so far onto disk and returns the
// sequence it covered: on return every entry at or below it is durable.
// Checkpointing uses this (rather than Sync then Seq) so the covered
// sequence can never include an entry appended — but not yet flushed —
// between the two calls.
func (w *Writer) SyncedSeq() (uint64, error) {
	w.mu.Lock()
	seq := w.seq
	w.mu.Unlock()
	if err := w.SyncTo(seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// Seq returns the sequence of the last appended entry (0 if none).
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// CrashLose simulates power loss: every byte of the active segment past the
// last fsync is discarded, and the writer becomes unusable. Finished
// segments are unaffected (they are synced at rotation). Returns the number
// of bytes dropped.
func (w *Writer) CrashLose() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		w.closed = true
		return 0, nil
	}
	lost := w.off - w.durable
	name := w.f.Name()
	w.f.Close()
	w.f = nil
	w.closed = true
	if lost > 0 {
		if err := os.Truncate(name, w.durable); err != nil {
			return 0, err
		}
	}
	return lost, nil
}

// Close syncs and closes the active segment. A process exiting cleanly
// (or crashing without power loss) keeps everything appended.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// Replay streams every intact entry with Seq > fromSeq to fn, in order. It
// returns the last sequence seen (across the whole log, even entries at or
// below fromSeq) and whether a torn tail was skipped on the final segment.
// Any other corruption — CRC mismatch, bad framing, a torn non-final
// segment, a sequence gap — is returned as an error wrapping ErrCorrupt so
// that a committed record is never silently dropped.
func Replay(dir string, fromSeq uint64, fn func(Entry) error) (lastSeq uint64, torn bool, err error) {
	names, err := Segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	var prev uint64
	if len(names) > 0 {
		// Checkpoint truncation may have removed the log prefix; continuity
		// starts at the first remaining segment's named first-seq.
		first, _ := segFirstSeq(names[0])
		prev = first - 1
	}
	for i, name := range names {
		final := i == len(names)-1
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return prev, torn, err
		}
		if len(data) < headerSize {
			if final {
				return prev, true, nil
			}
			return prev, false, fmt.Errorf("%w: segment %s: missing header", ErrCorrupt, name)
		}
		if binary.BigEndian.Uint32(data[0:4]) != segMagic {
			return prev, false, fmt.Errorf("%w: segment %s: bad magic", ErrCorrupt, name)
		}
		if v := binary.BigEndian.Uint32(data[4:8]); v != segVersion {
			return prev, false, fmt.Errorf("%w: segment %s: unsupported version %d", ErrCorrupt, name, v)
		}
		off := int64(headerSize)
		for off < int64(len(data)) {
			if off+frameSize > int64(len(data)) {
				if final {
					return prev, true, nil
				}
				return prev, false, fmt.Errorf("%w: segment %s: torn frame in non-final segment", ErrCorrupt, name)
			}
			ln := binary.BigEndian.Uint32(data[off : off+4])
			crc := binary.BigEndian.Uint32(data[off+4 : off+8])
			if ln == 0 || ln > 64<<20 {
				return prev, false, fmt.Errorf("%w: segment %s: absurd record length %d at offset %d", ErrCorrupt, name, ln, off)
			}
			if off+frameSize+int64(ln) > int64(len(data)) {
				if final {
					return prev, true, nil
				}
				return prev, false, fmt.Errorf("%w: segment %s: torn payload in non-final segment", ErrCorrupt, name)
			}
			payload := data[off+frameSize : off+frameSize+int64(ln)]
			if crc32.ChecksumIEEE(payload) != crc {
				return prev, false, fmt.Errorf("%w: segment %s: CRC mismatch at offset %d", ErrCorrupt, name, off)
			}
			var e Entry
			if err := json.Unmarshal(payload, &e); err != nil {
				return prev, false, fmt.Errorf("%w: segment %s: undecodable entry at offset %d: %v", ErrCorrupt, name, off, err)
			}
			if e.Seq != prev+1 {
				return prev, false, fmt.Errorf("%w: segment %s: seq %d follows %d", ErrCorrupt, name, e.Seq, prev)
			}
			prev = e.Seq
			if e.Seq > fromSeq && fn != nil {
				if err := fn(e); err != nil {
					return prev, false, err
				}
			}
			off += frameSize + int64(ln)
		}
	}
	return prev, torn, nil
}

// Truncate removes segments wholly covered by a checkpoint at upToSeq: a
// segment is deleted only when a later segment exists whose first sequence
// is ≤ upToSeq+1 (so replay from upToSeq+1 still finds every needed entry).
// The active (latest) segment is never deleted. Returns removed file names.
func Truncate(dir string, upToSeq uint64) ([]string, error) {
	names, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for i := 0; i+1 < len(names); i++ {
		next, _ := segFirstSeq(names[i+1])
		if next <= upToSeq+1 {
			if err := os.Remove(filepath.Join(dir, names[i])); err != nil {
				return removed, err
			}
			removed = append(removed, names[i])
		} else {
			break
		}
	}
	if len(removed) > 0 {
		// Make the removals durable together: a power loss that resurrects
		// only some of a run of deleted segments would leave a sequence gap
		// that replay reports as corruption.
		if err := syncDir(dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
