// Package deliver implements the exactly-once session layer of the Aire
// repair plane.
//
// Repair delivery is at-least-once by construction: offline peers, lost
// responses, and timeouts all cause re-delivery (§3.2), and queue collapsing
// supersedes a message's content while an older copy of it may still be in
// the network. Two resulting hazards are protocol holes rather than
// application bugs:
//
//   - Stale redelivery: a *delayed* copy of superseded repair content
//     arriving after the newer content was applied regresses the peer.
//   - Duplicate create: a re-delivered create whose first response was lost
//     mints a second synthetic request.
//
// The send side (internal/core's queue) closes them by stamping every
// repair-plane carrier with a durable delivery identity and a monotonically
// increasing content generation (wire.HdrDeliveryID, wire.HdrGeneration,
// wire.HdrOrigin). The receive side — this package's Inbox — remembers, per
// origin, which (delivery, generation) pairs were applied and with what
// outcome, making the repair handlers idempotent and generation-monotonic:
// duplicates are re-acknowledged without re-applying (returning the
// originally minted request ID for creates), and stale generations are
// acknowledged and discarded.
//
// Every carrier also piggybacks the sender's version vector for this
// receiver, fed in through ObserveVector: its highest contiguous
// acknowledged sequence (wire.HdrAckedSeq) and its stamped frontier
// (wire.HdrFrontierSeq). Delivery IDs carry the sender's monotonic sequence
// number, so an arrival at or below the acked prefix is a duplicate by
// definition — the sender only advances the prefix after seeing this
// inbox's terminal outcome — and an arrival above it with no entry is
// genuinely new. Entries covered by the acked prefix are compacted away:
// ack compaction, not a capacity bound, is what releases memory, and
// nothing is forgotten while the sender still cares about it. An origin
// that never announces a vector keeps its entries until GC. ObserveVector
// also detects sequence gaps against the announced vector, which the
// controller answers with a NACK (wire.HdrNackSeq) so the sender re-offers
// wholly-lost deliveries without waiting out backoff.
//
// Entries are garbage-collected with the repair log horizon
// (Controller.GC), and the whole inbox — entries, vectors, GC horizon — is
// persisted through internal/persist so crash-restart keeps the
// exactly-once guarantee.
package deliver

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Decision classifies an incoming repair-plane delivery.
type Decision int

const (
	// Apply: a new delivery, or newer content for a known one — apply it,
	// then Commit (or Rollback on failure).
	Apply Decision = iota
	// Duplicate: this delivery and generation were already applied —
	// re-acknowledge with the recorded outcome, do not re-apply.
	Duplicate
	// Stale: a superseded generation arrived after newer content was
	// applied — acknowledge and discard, or the sender would retry forever.
	Stale
	// InFlight: another copy of this delivery is being applied right now
	// (reserved by Begin, not yet Committed). Answer retryably — acking it
	// as a duplicate would let the sender dequeue a repair whose only
	// apply may still fail and roll back.
	InFlight
	// Forgotten: the delivery predates the inbox's GC horizon. Whether it
	// was ever applied is no longer knowable, so neither re-applying nor
	// re-acknowledging is safe; answer "permanently unavailable" so the
	// sender drops it and notifies its administrator — the same stance the
	// repair log takes for its own GC horizon (§9).
	Forgotten
)

func (d Decision) String() string {
	switch d {
	case Apply:
		return "apply"
	case Duplicate:
		return "duplicate"
	case Stale:
		return "stale"
	case InFlight:
		return "in-flight"
	case Forgotten:
		return "forgotten"
	}
	return "unknown"
}

// entry remembers one delivery's highest applied generation and outcome.
type entry struct {
	id      string
	seq     uint64
	gen     uint64
	outcome string
	ts      int64
	// pending marks a Begin not yet Committed; prev* hold the previously
	// committed state so a failed apply can roll back to it.
	pending     bool
	prevOK      bool
	prevGen     uint64
	prevOutcome string
	prevTS      int64
}

// originState is one sender's dedup memory.
type originState struct {
	entries map[string]*entry
	// gcSeq is the highest delivery sequence dropped by GC — the
	// administrative horizon. Below it, "applied or not" is no longer
	// knowable (a Held message retried after the horizon was never
	// applied), so arrivals are refused as Forgotten instead of silently
	// acked or re-applied.
	gcSeq uint64
	// acked is the sender's announced highest contiguous acknowledged
	// sequence for this receiver: every delivery it ever stamped for us at
	// or below it has reached a terminal outcome here, so arrivals in that
	// prefix are duplicates exactly and entries covering it are compacted
	// away.
	acked uint64
	// frontier is the highest sequence the sender has announced stamping
	// for us, consulted by gap detection.
	frontier uint64
	// maxSeen is the highest sequence ever committed from this origin,
	// consulted by gap detection.
	maxSeen uint64
}

func newOriginState() *originState {
	return &originState{entries: map[string]*entry{}}
}

// Inbox is a per-origin dedup memory for repair-plane deliveries. Safe for
// concurrent use.
type Inbox struct {
	mu      sync.Mutex
	high    int
	origins map[string]*originState
}

// NewInbox returns an empty inbox.
func NewInbox() *Inbox {
	return &Inbox{origins: map[string]*originState{}}
}

// VectorObservation is the result of feeding one carrier's announced
// version vector into the inbox.
type VectorObservation struct {
	// Gap reports that the announced vector proves (or strongly suggests)
	// sender-side outstanding deliveries this inbox has never seen: the
	// carrier should be answered with a NACK asking the sender to re-offer
	// its unacknowledged backlog immediately.
	Gap bool
	// Compacted is the number of dedup entries released because the acked
	// prefix now covers them.
	Compacted int
	// Advanced reports that the stored acked/frontier for the origin moved,
	// i.e. the observation carries durable information worth logging.
	Advanced bool
	// Acked and MaxSeen echo the origin's state after the observation (the
	// NACK response header value and debug surfaces use them).
	Acked   uint64
	MaxSeen uint64
}

// ObserveVector ingests the version vector announced on one carrier from
// origin: acked is the sender's highest contiguous acknowledged sequence for
// this receiver, frontier the highest sequence it has stamped for us, and
// curSeq the carrier's own delivery sequence (0 for sequence-less carriers
// such as notifies). Both stored values are monotonic maxima, so replaying
// an observation is idempotent. Entries covered by the acked prefix are
// compacted away — the sender only advances the prefix after consuming this
// inbox's terminal outcome, so they can never be asked about again except by
// a network-duplicated ghost, which the prefix itself classifies.
//
// Gap detection is advisory and err-on-NACK: a false positive only causes
// the sender to re-offer messages it was already holding, which delivery
// dedup absorbs. Two signals are used: (1) the sender's contiguous acked
// prefix stops more than one sequence short of the carrier's own — since the
// sender assigns sequences from a shared counter, acked < curSeq-1 proves an
// older delivery for this receiver is still outstanding (possibly in flight,
// possibly lost); (2) the announced frontier is beyond both the acked prefix
// and anything this inbox has ever committed, so a newest delivery has never
// arrived.
func (ib *Inbox) ObserveVector(origin string, acked, frontier, curSeq uint64) VectorObservation {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	o := ib.origins[origin]
	if o == nil {
		o = newOriginState()
		ib.origins[origin] = o
	}
	var obs VectorObservation
	if acked > o.acked {
		o.acked = acked
		obs.Advanced = true
	}
	if frontier > o.frontier {
		o.frontier = frontier
		obs.Advanced = true
	}
	for id, e := range o.entries {
		if !e.pending && e.seq > 0 && e.seq <= o.acked {
			delete(o.entries, id)
			obs.Compacted++
		}
	}
	effSeen := o.maxSeen
	if curSeq > effSeen {
		effSeen = curSeq
	}
	if curSeq > 0 && o.acked+1 < curSeq {
		obs.Gap = true
	}
	if o.frontier > effSeen && o.frontier > o.acked {
		obs.Gap = true
	}
	obs.Acked, obs.MaxSeen = o.acked, o.maxSeen
	return obs
}

// HighWater reports the maximum total entry count the inbox ever held —
// the memory bound ack compaction is asserted against.
func (ib *Inbox) HighWater() int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return ib.high
}

// Seq extracts the sender's monotonic sequence number from a delivery ID
// ("svc-dlv-42" → 42); 0 if the ID carries none. Sequence-less IDs are
// still deduplicated while their entry lives, but cannot be covered by the
// acked prefix or the GC horizon.
func Seq(deliveryID string) uint64 {
	i := strings.LastIndexByte(deliveryID, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseUint(deliveryID[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Begin classifies one arriving delivery and, when the verdict is Apply,
// reserves the (id, gen) pair so the caller can apply the repair and then
// Commit its outcome (or Rollback a failed apply). A delivery with a live
// entry is classified by it; one without is Forgotten at or below the GC
// horizon, a Duplicate inside the acked prefix, and new otherwise.
// Duplicate returns the outcome recorded by the original application (""
// when the entry was compacted and only the acked prefix vouches for it).
//
// once marks a once-only operation (a repair `create`): its effect is
// minted exactly once per delivery identity, so any committed entry makes
// a later arrival a Duplicate regardless of generation — a generation bump
// (Retry with refreshed credentials) cannot supersede a request that was
// already created.
func (ib *Inbox) Begin(origin, id string, gen uint64, once bool) (Decision, string) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	o := ib.origins[origin]
	if o == nil {
		o = newOriginState()
		ib.origins[origin] = o
	}
	e, ok := o.entries[id]
	if !ok {
		seq := Seq(id)
		if seq > 0 && seq <= o.gcSeq {
			return Forgotten, ""
		}
		// The acked prefix is exact — it only advances after this inbox's
		// terminal outcome was consumed by the sender — so an arrival
		// inside it is a duplicate whatever its generation (a superseding
		// generation of an acked delivery cannot exist: supersede bumps the
		// queued message in place, and acked means it left the queue).
		if seq > 0 && seq <= o.acked {
			return Duplicate, ""
		}
		o.entries[id] = &entry{id: id, seq: seq, gen: gen, pending: true}
		ib.noteHighLocked()
		return Apply, ""
	}
	if e.pending {
		// Another copy of this delivery is mid-apply. Whatever the
		// relative generations, answer retryably: reserving over the
		// pending apply would let two applies race to land last (the
		// stale one could win), and acking would vouch for an apply that
		// may yet fail. One apply at a time per delivery.
		return InFlight, ""
	}
	switch {
	case gen < e.gen:
		return Stale, ""
	case gen == e.gen || once:
		return Duplicate, e.outcome
	}
	// Newer content: save the committed state as the rollback fallback and
	// reserve.
	e.prevOK, e.prevGen, e.prevOutcome, e.prevTS = true, e.gen, e.outcome, e.ts
	e.pending = true
	e.gen = gen
	e.outcome = ""
	return Apply, ""
}

// Commit records a successful apply reserved by Begin: the outcome (for
// creates, the minted request ID) is what a future duplicate is
// re-acknowledged with, and ts (the receiver's logical clock) is what GC
// ages the entry by.
func (ib *Inbox) Commit(origin, id string, gen uint64, outcome string, ts int64) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	o := ib.origins[origin]
	if o == nil {
		return
	}
	e, ok := o.entries[id]
	if !ok || e.gen != gen {
		return
	}
	e.outcome = outcome
	e.ts = ts
	e.pending = false
	e.prevOK = false
	if e.seq > o.maxSeen {
		o.maxSeen = e.seq
	}
}

// Rollback releases a reservation whose apply failed, restoring the
// previously committed state, or forgetting a never-committed delivery
// outright, so a later genuine retry is classified Apply again.
func (ib *Inbox) Rollback(origin, id string, gen uint64) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	o := ib.origins[origin]
	if o == nil {
		return
	}
	e, ok := o.entries[id]
	if !ok || !e.pending || e.gen != gen {
		return
	}
	if e.prevOK {
		e.gen, e.outcome, e.ts = e.prevGen, e.prevOutcome, e.prevTS
		e.pending, e.prevOK = false, false
		return
	}
	delete(o.entries, id)
}

// noteHighLocked records the total-entry high-water mark after an insert.
func (ib *Inbox) noteHighLocked() {
	n := 0
	for _, o := range ib.origins {
		n += len(o.entries)
	}
	if n > ib.high {
		ib.high = n
	}
}

// GC drops committed entries applied before the given logical timestamp —
// the same horizon the repair log is collected with (§9) — advancing each
// origin's gcSeq over them. Origins keep the horizon even when all entries
// are gone: an arrival below it is refused as Forgotten (410 on the wire),
// mirroring the repair log's "garbage-collected, permanently unavailable"
// stance — never silently acknowledged, because a Held message retried
// after the horizon was never applied and acking it would lose the repair.
func (ib *Inbox) GC(beforeTS int64) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for _, o := range ib.origins {
		for id, e := range o.entries {
			if e.pending || e.ts >= beforeTS {
				continue
			}
			delete(o.entries, id)
			if e.seq > o.gcSeq {
				o.gcSeq = e.seq
			}
		}
	}
}

// Len reports the total number of live entries across all origins.
func (ib *Inbox) Len() int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	n := 0
	for _, o := range ib.origins {
		n += len(o.entries)
	}
	return n
}

// EntryDump is one persisted inbox entry.
type EntryDump struct {
	ID      string `json:"id"`
	Gen     uint64 `json:"gen"`
	Outcome string `json:"outcome,omitempty"`
	TS      int64  `json:"ts,omitempty"`
}

// OriginDump is one origin's persisted dedup memory.
type OriginDump struct {
	Origin  string      `json:"origin"`
	GCSeq   uint64      `json:"gc_seq,omitempty"`
	Entries []EntryDump `json:"entries,omitempty"`
	// Acked/Frontier persist the sender-announced version vector: the acked
	// prefix must be exactly as durable as the entry compaction it
	// justified, or a restored inbox would re-apply a compacted delivery.
	Acked    uint64 `json:"acked,omitempty"`
	Frontier uint64 `json:"frontier,omitempty"`
	MaxSeen  uint64 `json:"max_seen,omitempty"`
	// Watermark is only ever read: checkpoints written by builds whose
	// inbox evicted entries past a capacity bound recorded the highest
	// evicted sequence here. Restore folds it into the GC horizon, so an
	// arrival at or below it with no entry is refused loudly (Forgotten)
	// instead of silently re-applied.
	Watermark uint64 `json:"watermark,omitempty"`
}

// Dump serializes the inbox for persistence: origins sorted by name,
// entries sorted by (sequence, ID). Entries pending at capture time are
// dumped as their last committed state (or omitted if never committed) —
// an apply interrupted by the crash must re-apply after restore.
func (ib *Inbox) Dump() []OriginDump {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	names := make([]string, 0, len(ib.origins))
	for name := range ib.origins {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]OriginDump, 0, len(names))
	for _, name := range names {
		o := ib.origins[name]
		d := OriginDump{Origin: name, GCSeq: o.gcSeq,
			Acked: o.acked, Frontier: o.frontier, MaxSeen: o.maxSeen}
		for _, e := range o.entries {
			switch {
			case !e.pending:
				d.Entries = append(d.Entries, EntryDump{ID: e.id, Gen: e.gen, Outcome: e.outcome, TS: e.ts})
			case e.prevOK:
				d.Entries = append(d.Entries, EntryDump{ID: e.id, Gen: e.prevGen, Outcome: e.prevOutcome, TS: e.prevTS})
			}
		}
		sort.Slice(d.Entries, func(i, j int) bool {
			a, b := d.Entries[i], d.Entries[j]
			if sa, sb := Seq(a.ID), Seq(b.ID); sa != sb {
				return sa < sb
			}
			return a.ID < b.ID
		})
		if d.GCSeq > 0 || len(d.Entries) > 0 || d.Acked > 0 || d.Frontier > 0 || d.MaxSeen > 0 {
			out = append(out, d)
		}
	}
	return out
}

// Restore loads a persisted dump into an empty inbox.
func (ib *Inbox) Restore(dump []OriginDump) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for _, d := range dump {
		o := ib.origins[d.Origin]
		if o == nil {
			o = newOriginState()
			ib.origins[d.Origin] = o
		}
		o.gcSeq = max(o.gcSeq, d.GCSeq, d.Watermark)
		o.acked = max(o.acked, d.Acked)
		o.frontier = max(o.frontier, d.Frontier)
		o.maxSeen = max(o.maxSeen, d.MaxSeen)
		for _, de := range d.Entries {
			e := &entry{id: de.ID, seq: Seq(de.ID), gen: de.Gen, outcome: de.Outcome, ts: de.TS}
			o.entries[de.ID] = e
			o.maxSeen = max(o.maxSeen, e.seq)
		}
		ib.noteHighLocked()
	}
}
