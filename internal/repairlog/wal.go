package repairlog

import (
	"fmt"
	"sort"
)

// Change is one log mutation, emitted to the change sink as it happens
// (under the log lock). The WAL layer groups changes into per-commit change
// sets; ApplyWAL replays them during recovery.
type Change struct {
	// Kind is "append", "update", or "gc".
	Kind string `json:"kind"`
	// Record is the appended/updated record itself, borrowed (see
	// SetChangeSink).
	Record *Record `json:"record,omitempty"`
	// BeforeTS is the horizon for gc.
	BeforeTS int64 `json:"before_ts,omitempty"`
}

// SetChangeSink installs fn to observe every mutation. fn runs with the log
// lock held and must not call back into the log. Pass nil to detach.
//
// Change.Record is borrowed, not copied: it is the log's own record, valid
// only for the duration of the call. fn must encode (or otherwise consume)
// it synchronously and must neither keep nor mutate it.
func (l *Log) SetChangeSink(fn func(Change)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sink = fn
}

func (l *Log) emitLocked(ch Change) {
	if l.sink != nil {
		l.sink(ch)
	}
}

// ApplyWAL upserts a replayed record during recovery: an unknown ID appends
// (assigning the next seq, so relative timeline tie-breaks match the
// original insertion order — WAL entries replay in append order), a known ID
// updates in place preserving the record's existing seq. It never emits to
// the sink and is idempotent.
func (l *Log) ApplyWAL(rec *Record) error {
	if rec == nil {
		return fmt.Errorf("repairlog: nil WAL record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, ok := l.byID[rec.ID]; ok {
		l.unindexLocked(old)
		seq := old.seq
		*old = *rec.Clone()
		old.seq = seq
		l.indexLocked(old)
		return nil
	}
	r := rec.Clone()
	l.nextSeq++
	r.seq = l.nextSeq
	l.byID[r.ID] = r
	i := sort.Search(len(l.order), func(i int) bool { return l.order[i].TS > r.TS })
	l.order = append(l.order, nil)
	copy(l.order[i+1:], l.order[i:])
	l.order[i] = r
	l.indexLocked(r)
	l.samples++
	return nil
}

// ApplyWALGC replays a logged GC without re-emitting it.
func (l *Log) ApplyWALGC(beforeTS int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gcLocked(beforeTS)
}
