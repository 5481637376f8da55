package deliver

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Unit tests for the inbox's version vectors (ObserveVector): ack
// compaction, gap detection, idempotent replay (the in-vv WAL op re-feeds
// observations on recovery), persistence of the vector fields, the
// memory contract, and restoring checkpoints written by older builds.

// fill commits n fresh deliveries from origin with ascending sequences
// starting at seq, returning the next unused sequence.
func fill(t *testing.T, ib *Inbox, origin string, seq uint64, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-dlv-%d", origin, seq)
		if d, _ := ib.Begin(origin, id, 0, false); d != Apply {
			t.Fatalf("fill %s: got %v, want Apply", id, d)
		}
		ib.Commit(origin, id, 0, "ok", int64(seq))
		seq++
	}
	return seq
}

// announceAndFill commits n deliveries from an announcing origin: each
// carrier first feeds the sender's vector through ObserveVector — acked
// pinned below the unseen sequence (the sender never resolved it),
// frontier at the carrier's own sequence — exactly as the controller's
// HandleWire does, then applies. Returns the next unused sequence.
func announceAndFill(t *testing.T, ib *Inbox, origin string, acked, seq uint64, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-dlv-%d", origin, seq)
		ib.ObserveVector(origin, acked, seq, seq)
		if d, _ := ib.Begin(origin, id, 0, false); d != Apply {
			t.Fatalf("announceAndFill %s: got %v, want Apply", id, d)
		}
		ib.Commit(origin, id, 0, "ok", int64(seq))
		seq++
	}
	return seq
}

// TestObserveVectorCompaction: advancing the acked prefix releases every
// committed entry it covers — and only those — while the counts and Len
// agree.
func TestObserveVectorCompaction(t *testing.T) {
	ib := NewInbox()
	fill(t, ib, "s0", 1, 6) // seqs 1..6 committed
	obs := ib.ObserveVector("s0", 4, 6, 0)
	if obs.Compacted != 4 {
		t.Fatalf("acked=4 compacted %d entries, want 4", obs.Compacted)
	}
	if ib.Len() != 2 {
		t.Fatalf("Len()=%d after compaction, want 2 (seqs 5,6)", ib.Len())
	}
	// Inside the prefix: Duplicate with no entry to consult. Above it: the
	// live entries still answer.
	if d, _ := ib.Begin("s0", "s0-dlv-3", 0, false); d != Duplicate {
		t.Fatalf("compacted seq 3: got %v, want Duplicate", d)
	}
	if d, out := ib.Begin("s0", "s0-dlv-5", 0, false); d != Duplicate || out != "ok" {
		t.Fatalf("live seq 5: got %v outcome %q, want Duplicate with recorded outcome", d, out)
	}
}

// TestObserveVectorPendingNotCompacted: a pending (mid-apply) entry is
// never compacted, even if a (buggy or duplicated) announcement claims the
// prefix covers it — compacting a reservation would let a racing second
// copy re-apply.
func TestObserveVectorPendingNotCompacted(t *testing.T) {
	ib := NewInbox()
	if d, _ := ib.Begin("s0", "s0-dlv-1", 0, false); d != Apply {
		t.Fatal("setup: not Apply")
	}
	obs := ib.ObserveVector("s0", 1, 1, 0)
	if obs.Compacted != 0 || ib.Len() != 1 {
		t.Fatalf("pending entry compacted (n=%d len=%d)", obs.Compacted, ib.Len())
	}
	if d, _ := ib.Begin("s0", "s0-dlv-1", 0, false); d != InFlight {
		t.Fatal("second copy of the pending delivery must stay InFlight")
	}
}

// TestObserveVectorGapRules exercises both gap signals: an acked prefix
// stopping more than one short of the carrier's own sequence, and a
// frontier beyond everything seen; and the quiet cases in between.
func TestObserveVectorGapRules(t *testing.T) {
	ib := NewInbox()
	// Contiguous arrival: carrier seq 1, nothing acked yet — no gap (the
	// prefix stops exactly one short: this very carrier).
	if obs := ib.ObserveVector("s0", 0, 1, 1); obs.Gap {
		t.Fatal("contiguous first carrier flagged a gap")
	}
	fill(t, ib, "s0", 1, 1)
	// Carrier seq 3 announcing acked=1: seq 2 is outstanding somewhere —
	// in flight or lost — so the receiver NACKs (err-on-NACK is safe).
	if obs := ib.ObserveVector("s0", 1, 3, 3); !obs.Gap {
		t.Fatal("acked+1 < curSeq did not flag a gap")
	}
	// A sequence-less carrier (curSeq 0, e.g. a notify) announcing a
	// frontier beyond everything committed: the newest delivery never
	// arrived here.
	if obs := ib.ObserveVector("s0", 1, 9, 0); !obs.Gap {
		t.Fatal("frontier beyond maxSeen did not flag a gap")
	}
	// Frontier covered by the acked prefix: everything it stamped was
	// resolved; nothing to chase.
	if obs := ib.ObserveVector("s0", 9, 9, 0); obs.Gap {
		t.Fatal("fully acked frontier flagged a gap")
	}
}

// TestObserveVectorIdempotentReplay: ObserveVector is a monotonic max, so
// replaying an observation (the WAL recovery path re-feeds in-vv ops) is a
// no-op: no advance, nothing more to compact, no regression of the prefix.
func TestObserveVectorIdempotentReplay(t *testing.T) {
	ib := NewInbox()
	fill(t, ib, "s0", 1, 3)
	first := ib.ObserveVector("s0", 3, 3, 0)
	if !first.Advanced || first.Compacted != 3 {
		t.Fatalf("first observation: %+v", first)
	}
	replay := ib.ObserveVector("s0", 3, 3, 0)
	if replay.Advanced || replay.Compacted != 0 {
		t.Fatalf("replayed observation was not a no-op: %+v", replay)
	}
	stale := ib.ObserveVector("s0", 1, 1, 0)
	if stale.Advanced || stale.Acked != 3 {
		t.Fatalf("older observation regressed the prefix: %+v", stale)
	}
}

// TestVectorFieldsSurviveRestart: the acked prefix must be exactly as
// durable as the compaction it justified — a restored inbox classifies a
// compacted delivery's ghost as Duplicate, not Apply.
func TestVectorFieldsSurviveRestart(t *testing.T) {
	ib := NewInbox()
	fill(t, ib, "s0", 1, 4)
	ib.ObserveVector("s0", 4, 4, 0) // compacts all four

	restored := NewInbox()
	restored.Restore(ib.Dump())
	if d, _ := restored.Begin("s0", "s0-dlv-2", 0, false); d != Duplicate {
		t.Fatalf("ghost of a compacted delivery after restore: got %v, want Duplicate", d)
	}
	// The restored frontier keeps gap detection armed.
	if obs := restored.ObserveVector("s0", 4, 9, 9); !obs.Gap {
		t.Fatal("restored inbox lost gap detection (acked=4, carrier seq 9)")
	}
}

// TestAnnouncingOriginMemoryContract: nothing evicts entries — an
// announcing origin holds its sender's whole unacked window and shrinks
// back the moment the prefix advances (the high-water mark records the
// excursion), and an origin that never announces keeps its entries until
// GC.
func TestAnnouncingOriginMemoryContract(t *testing.T) {
	const n = 12
	ib := NewInbox()
	for seq := uint64(1); seq <= n; seq++ {
		id := fmt.Sprintf("s0-dlv-%d", seq)
		ib.ObserveVector("s0", 0, seq, seq) // sender resolves nothing yet
		if d, _ := ib.Begin("s0", id, 0, false); d != Apply {
			t.Fatalf("%s: got %v, want Apply", id, d)
		}
		ib.Commit("s0", id, 0, "ok", int64(seq))
	}
	if ib.Len() != n {
		t.Fatalf("announcing origin lost entries: Len()=%d, want %d", ib.Len(), n)
	}
	ib.ObserveVector("s0", n, n, 0)
	if ib.Len() != 0 {
		t.Fatalf("Len()=%d after full ack, want 0", ib.Len())
	}
	if hw := ib.HighWater(); hw != n {
		t.Fatalf("HighWater()=%d, want %d", hw, n)
	}
	fill(t, ib, "quiet", 1, n)
	if ib.Len() != n {
		t.Fatalf("never-announcing origin: Len()=%d, want all %d entries kept", ib.Len(), n)
	}
	ib.GC(n + 1)
	if ib.Len() != 0 {
		t.Fatalf("never-announcing origin: Len()=%d after GC past every entry, want 0", ib.Len())
	}
}

// TestEvictionResidualZeroUnderVectors: a delivery the inbox never saw
// (dropped in the network before its first Begin) is classified exactly
// however many later deliveries commit. The sender's announced acked
// prefix stops below the unseen sequence for as long as it stays
// unresolved, so the retry applies — and once the prefix finally covers
// it, a ghost is a Duplicate with no entry left to consult.
func TestEvictionResidualZeroUnderVectors(t *testing.T) {
	unseen := "s0-dlv-100" // dropped in the network; the inbox never saw it

	// Seq 100 is outstanding on the sender's side, so every carrier
	// announces acked=99 — and 32 later deliveries change nothing.
	ib := NewInbox()
	next := announceAndFill(t, ib, "s0", 99, 101, 32)
	if d, _ := ib.Begin("s0", unseen, 0, false); d != Apply {
		t.Fatalf("a never-seen delivery's retry after 32 interleaved deliveries: got %v, want Apply (zero residual)", d)
	}
	ib.Commit("s0", unseen, 0, "ok", 100)

	// The sender consumes the outcome and finally advances its prefix over
	// everything: entries compact away, and a network-duplicated ghost of
	// the recovered delivery is classified from the prefix — Duplicate,
	// exactly, with no entry left to consult.
	obs := ib.ObserveVector("s0", next-1, next-1, 0)
	if obs.Compacted == 0 || ib.Len() != 0 {
		t.Fatalf("acked prefix over everything compacted %d entries, %d left; want all gone", obs.Compacted, ib.Len())
	}
	if d, _ := ib.Begin("s0", unseen, 0, false); d != Duplicate {
		t.Fatalf("ghost of an acked delivery after compaction: got %v, want Duplicate", d)
	}

	// A generation-bumped retry above the acked prefix is never swallowed:
	// the prefix vouches only for sequences at or below it.
	if d, _ := ib.Begin("s0", fmt.Sprintf("s0-dlv-%d", next), 1, false); d != Apply {
		t.Fatalf("gen-1 arrival above the prefix: got %v, want Apply", d)
	}
}

// legacyDump is an inbox checkpoint as written by builds whose inbox
// evicted entries past a capacity bound: it carries the eviction
// watermark and the never-applied "holes" beside the fields still in use.
const legacyDump = `[{"origin":"s0","watermark":40,"gc_seq":10,` +
	`"entries":[{"id":"s0-dlv-45","gen":2,"outcome":"b-req-3","ts":45},{"id":"s0-dlv-35","gen":0,"outcome":"ok","ts":35}],` +
	`"holes":[30,42],"acked":20,"frontier":50,"max_seen":45}]`

// TestRestoreFoldsLegacyWatermark: restoring an older checkpoint keeps its
// vector fields and entries, and folds its eviction watermark into the GC
// horizon — an arrival at or below the old watermark with no entry was
// vouched for by an eviction, so it is refused loudly as Forgotten rather
// than silently re-applied. The dump written back carries neither the
// watermark nor the holes.
func TestRestoreFoldsLegacyWatermark(t *testing.T) {
	var dump []OriginDump
	if err := json.Unmarshal([]byte(legacyDump), &dump); err != nil {
		t.Fatal(err)
	}
	ib := NewInbox()
	ib.Restore(dump)

	want := []OriginDump{{
		Origin: "s0", GCSeq: 40, Acked: 20, Frontier: 50, MaxSeen: 45,
		Entries: []EntryDump{
			{ID: "s0-dlv-35", Gen: 0, Outcome: "ok", TS: 35},
			{ID: "s0-dlv-45", Gen: 2, Outcome: "b-req-3", TS: 45},
		},
	}}
	got := ib.Dump()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored dump:\n got %+v\nwant %+v", got, want)
	}
	raw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(raw); strings.Contains(s, "watermark") || strings.Contains(s, "holes") {
		t.Fatalf("dump writes legacy fields: %s", s)
	}

	// Entries answer first, even below the old watermark.
	if d, o := ib.Begin("s0", "s0-dlv-35", 0, false); d != Duplicate || o != "ok" {
		t.Fatalf("entry below the old watermark: got %v %q, want Duplicate ok", d, o)
	}
	if d, o := ib.Begin("s0", "s0-dlv-45", 2, false); d != Duplicate || o != "b-req-3" {
		t.Fatalf("entry above the old watermark: got %v %q, want Duplicate b-req-3", d, o)
	}
	// No entry at or below the old watermark: Forgotten, including a
	// legacy hole and a generation-bumped arrival.
	for _, id := range []string{"s0-dlv-40", "s0-dlv-30", "s0-dlv-21"} {
		for _, gen := range []uint64{0, 1} {
			if d, _ := ib.Begin("s0", id, gen, false); d != Forgotten {
				t.Fatalf("%s gen %d at or below the old watermark: got %v, want Forgotten", id, gen, d)
			}
		}
	}
	// Inside the acked prefix the GC horizon answers first, as it does for
	// any horizon above the prefix.
	if d, _ := ib.Begin("s0", "s0-dlv-15", 0, false); d != Forgotten {
		t.Fatalf("acked arrival below the horizon: got %v, want Forgotten", d)
	}
	// Above the old watermark with no entry: new, hole or not.
	if d, _ := ib.Begin("s0", "s0-dlv-42", 0, false); d != Apply {
		t.Fatalf("legacy hole above the old watermark: got %v, want Apply", d)
	}
}
