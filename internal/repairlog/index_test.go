package repairlog

import (
	"fmt"
	"testing"

	"aire/internal/vdb"
	"aire/internal/wire"
)

// depRec builds a record with one read, one scan, one write, and one
// Aire-identified outgoing call.
func depRec(id string, ts int64, key, respID, remoteID string) *Record {
	r := rec(id, ts)
	k := vdb.Key{Model: "kv", ID: key}
	r.Reads = []ReadDep{{Key: k, TS: ts, Hash: 1}}
	r.Scans = []ScanDep{{Model: "kv", Hash: 2}}
	r.Writes = []WriteDep{{Key: k, TS: ts}}
	r.Calls = []Call{{Target: "peer", RespID: respID, RemoteReqID: remoteID, Req: wire.NewRequest("POST", "/p")}}
	return r
}

func refIDs(refs []Ref) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.Rec.ID
	}
	return out
}

func TestDepIndexMaintainedAcrossAppendUpdateGC(t *testing.T) {
	l := New(false)
	for i := 1; i <= 4; i++ {
		key := "a"
		if i%2 == 0 {
			key = "b"
		}
		if err := l.Append(depRec(fmt.Sprintf("r%d", i), int64(i*10), key, fmt.Sprintf("resp-%d", i), fmt.Sprintf("rem-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ka, kb := vdb.Key{Model: "kv", ID: "a"}, vdb.Key{Model: "kv", ID: "b"}

	if got := refIDs(l.ReadersOf(ka, 0, 0)); len(got) != 2 || got[0] != "r1" || got[1] != "r3" {
		t.Fatalf("ReadersOf(a) = %v", got)
	}
	if got := refIDs(l.ReadersOf(ka, 15, 0)); len(got) != 1 || got[0] != "r3" {
		t.Fatalf("ReadersOf(a, after ts 15) = %v", got)
	}
	if got := refIDs(l.WritersOf(kb, 0, 0)); len(got) != 2 || got[0] != "r2" || got[1] != "r4" {
		t.Fatalf("WritersOf(b) = %v", got)
	}
	if got := refIDs(l.ScannersOf("kv", 25, 0)); len(got) != 2 || got[0] != "r3" {
		t.Fatalf("ScannersOf(kv, after ts 25) = %v", got)
	}
	if got := l.TotalModelOps(); got != 12 {
		t.Fatalf("TotalModelOps = %d, want 12", got)
	}

	// Update rewrites r3's dependencies wholesale: the subtle Update-resync
	// path — a repair callback freely rewrites Calls[].RespID and the dep
	// slices, and the indexes must follow.
	// Strict-after semantics on equal timestamps: the repair engine must
	// not be handed a same-TS record that precedes the mutating record on
	// the timeline (it already passed its dependency gate).
	tie := depRec("tie", 10, "a", "resp-tie", "rem-tie") // same TS as r1, later seq
	if err := l.Append(tie); err != nil {
		t.Fatal(err)
	}
	r1ref, _ := l.RefOf("r1")
	if got := refIDs(l.ReadersOf(ka, r1ref.TS, r1ref.Seq)); len(got) != 2 || got[0] != "tie" || got[1] != "r3" {
		t.Fatalf("ReadersOf(a, after r1) = %v, want [tie r3]", got)
	}
	tieRef, _ := l.RefOf("tie")
	if got := refIDs(l.ReadersOf(ka, tieRef.TS, tieRef.Seq)); len(got) != 1 || got[0] != "r3" {
		t.Fatalf("ReadersOf(a, after tie) = %v, want [r3]", got)
	}
	if n := l.GC(10); n != 0 { // drop nothing, keep the tie record for below
		t.Fatalf("GC(10) removed %d", n)
	}
	if err := l.Update("tie", func(r *Record) { r.Reads, r.Scans, r.Writes, r.Calls = nil, nil, nil, nil }); err != nil {
		t.Fatal(err)
	}
	if got := refIDs(l.ReadersOf(ka, 0, 0)); len(got) != 2 {
		t.Fatalf("after clearing tie, ReadersOf(a) = %v", got)
	}

	if err := l.Update("r3", func(r *Record) {
		r.Reads = []ReadDep{{Key: kb, TS: 30, Hash: 9}}
		r.Scans = nil
		r.Writes = nil
		r.Calls = []Call{{Target: "peer", RespID: "resp-3b", RemoteReqID: "rem-3b"}}
	}); err != nil {
		t.Fatal(err)
	}
	if got := refIDs(l.ReadersOf(ka, 0, 0)); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("after update, ReadersOf(a) = %v", got)
	}
	if got := refIDs(l.ReadersOf(kb, 0, 0)); len(got) != 3 {
		t.Fatalf("after update, ReadersOf(b) = %v", got)
	}
	if _, _, ok := l.FindByCallRespID("resp-3"); ok {
		t.Fatal("stale RespID resp-3 still indexed after Update rewrote it")
	}
	if r, i, ok := l.FindByCallRespID("resp-3b"); !ok || r.ID != "r3" || i != 0 {
		t.Fatalf("FindByCallRespID(resp-3b) = %v %d %v", r, i, ok)
	}
	if before, after := l.NeighborCalls("peer", 35); before != "rem-3b" || after != "rem-4" {
		t.Fatalf("NeighborCalls(peer, 35) = %q,%q", before, after)
	}
	if got := l.TotalModelOps(); got != 10 {
		t.Fatalf("after update, TotalModelOps = %d, want 10", got)
	}

	// In-place mutation + Resync: the repair engine's re-execution path.
	r3, _ := l.Get("r3")
	r3.Reads = nil
	r3.Calls = nil
	if err := l.Resync("r3"); err != nil {
		t.Fatal(err)
	}
	if got := refIDs(l.ReadersOf(kb, 0, 0)); len(got) != 2 {
		t.Fatalf("after resync, ReadersOf(b) = %v", got)
	}
	if _, _, ok := l.FindByCallRespID("resp-3b"); ok {
		t.Fatal("resp-3b still indexed after in-place clear + Resync")
	}

	// GC drops r1/r2/tie and their index entries.
	if n := l.GC(30); n != 3 {
		t.Fatalf("GC removed %d", n)
	}
	if got := refIDs(l.ReadersOf(ka, 0, 0)); len(got) != 0 {
		t.Fatalf("after GC, ReadersOf(a) = %v", got)
	}
	if _, _, ok := l.FindByCallRespID("resp-1"); ok {
		t.Fatal("GC'd record's RespID still indexed")
	}
	if before, after := l.NeighborCalls("peer", 0); before != "" || after != "rem-4" {
		t.Fatalf("after GC, NeighborCalls(peer, 0) = %q,%q", before, after)
	}
	if got := l.TotalModelOps(); got != 3 {
		t.Fatalf("after GC, TotalModelOps = %d, want 3", got)
	}
}

// TestNeighborCallsMatchesLinearOnTies pins the indexed NeighborCalls to
// the linear reference when records share a timestamp (repair can place a
// created request at an occupied midpoint) and when a record makes several
// calls to one target.
func TestNeighborCallsMatchesLinearOnTies(t *testing.T) {
	l := New(false)
	r1 := rec("r1", 10)
	r1.Calls = []Call{
		{Target: "b", RemoteReqID: "b-1"},
		{Target: "b", RemoteReqID: "b-2"},
	}
	l.Append(r1)
	r2 := rec("r2", 10) // same TS: ordered after r1 by insertion
	r2.Calls = []Call{{Target: "b", RemoteReqID: "b-3"}}
	l.Append(r2)
	r3 := rec("r3", 20)
	r3.Calls = []Call{{Target: "b", RemoteReqID: "b-4"}}
	l.Append(r3)

	for _, ts := range []int64{0, 5, 10, 11, 15, 20, 25} {
		gb, ga := l.NeighborCalls("b", ts)
		wb, wa := l.NeighborCallsLinear("b", ts)
		if gb != wb || ga != wa {
			t.Fatalf("NeighborCalls(b, %d) = %q,%q; linear reference %q,%q", ts, gb, ga, wb, wa)
		}
	}
}

// TestIndexBytesAccounting: the index memory estimate is positive once
// dependencies are indexed, grows with the indexed population, and shrinks
// when GC unindexes records — the coherence property that makes it a
// usable storage-overhead metric (ROADMAP: "index memory is unaccounted").
func TestIndexBytesAccounting(t *testing.T) {
	l := New(false)
	if got := l.IndexBytes(); got != 0 {
		t.Fatalf("empty log IndexBytes = %d, want 0", got)
	}
	var sizes []int64
	for i := 1; i <= 20; i++ {
		if err := l.Append(depRec(fmt.Sprintf("r%d", i), int64(i*10), fmt.Sprintf("k%d", i), fmt.Sprintf("resp-%d", i), fmt.Sprintf("rem-%d", i))); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, l.IndexBytes())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("IndexBytes did not grow on append %d: %v", i+1, sizes)
		}
	}
	full := l.IndexBytes()
	l.GC(105) // drops the first ten records
	if after := l.IndexBytes(); after >= full || after <= 0 {
		t.Fatalf("IndexBytes after GC = %d (was %d): want smaller but positive", after, full)
	}
}

// TestRepeatedDepsIndexOnce: a record that reads one key 300 times (a page
// listing 300 posts by one author) holds one index entry for it — in the
// inverted index and in its remembered indexed state — and IndexBytes,
// Resync, and GC stay exact.
func TestRepeatedDepsIndexOnce(t *testing.T) {
	author := vdb.Key{Model: "user", ID: "alice"}
	posted := vdb.Key{Model: "question", ID: "q1"}
	build := func(reps int) (*Log, *Record) {
		l := New(false)
		r := rec("r1", 10)
		for i := 0; i < reps; i++ {
			r.Reads = append(r.Reads, ReadDep{Key: author, TS: 5, Hash: 1})
			r.Scans = append(r.Scans, ScanDep{Model: "question", Hash: 2})
			r.Writes = append(r.Writes, WriteDep{Key: posted, TS: 10})
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		return l, r
	}
	once, _ := build(1)
	l, r := build(300)

	st := l.indexed[r]
	if len(st.readKeys) != 1 || len(st.writeKeys) != 1 || len(st.scanModels) != 1 {
		t.Fatalf("indexed state holds %d read keys, %d write keys, %d scan models; want 1 each",
			len(st.readKeys), len(st.writeKeys), len(st.scanModels))
	}
	if got := refIDs(l.ReadersOf(author, 0, 0)); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("ReadersOf(author) = %v", got)
	}
	if got := refIDs(l.ScannersOf("question", 0, 0)); len(got) != 1 {
		t.Fatalf("ScannersOf(question) = %v", got)
	}
	if got, want := l.IndexBytes(), once.IndexBytes(); got != want {
		t.Fatalf("IndexBytes = %d for 300 repeated reads, want %d (one read)", got, want)
	}
	if got := l.TotalModelOps(); got != 900 {
		t.Fatalf("TotalModelOps = %d, want 900 (every recorded op counts)", got)
	}

	if err := l.Resync("r1"); err != nil {
		t.Fatal(err)
	}
	if got, want := l.IndexBytes(), once.IndexBytes(); got != want {
		t.Fatalf("IndexBytes after Resync = %d, want %d", got, want)
	}

	l.GC(11)
	if got := l.IndexBytes(); got != 0 {
		t.Fatalf("IndexBytes after GC = %d, want 0", got)
	}
	if len(l.readers) != 0 || len(l.writers) != 0 || len(l.scanners) != 0 || len(l.indexed) != 0 || l.TotalModelOps() != 0 {
		t.Fatalf("GC left index entries: readers=%d writers=%d scanners=%d indexed=%d ops=%d",
			len(l.readers), len(l.writers), len(l.scanners), len(l.indexed), l.TotalModelOps())
	}
}
