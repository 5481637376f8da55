package deliver

import (
	"reflect"
	"testing"
)

func TestSeq(t *testing.T) {
	cases := map[string]uint64{
		"a-dlv-42":   42,
		"svc-dlv-1":  1,
		"no-number":  0,
		"":           0,
		"justatoken": 0,
	}
	for id, want := range cases {
		if got := Seq(id); got != want {
			t.Errorf("Seq(%q) = %d, want %d", id, got, want)
		}
	}
}

func TestBeginDuplicateAndStale(t *testing.T) {
	ib := NewInbox()

	// First arrival applies.
	if d, _ := ib.Begin("a", "a-dlv-1", 0, false); d != Apply {
		t.Fatalf("first arrival = %v, want apply", d)
	}
	ib.Commit("a", "a-dlv-1", 0, "b-req-7", 100)

	// Re-delivery of the same generation is a duplicate carrying the
	// recorded outcome (the create's originally minted request ID).
	d, outcome := ib.Begin("a", "a-dlv-1", 0, false)
	if d != Duplicate || outcome != "b-req-7" {
		t.Fatalf("redelivery = %v %q, want duplicate b-req-7", d, outcome)
	}

	// Newer generation applies; after it commits, the old one is stale.
	if d, _ := ib.Begin("a", "a-dlv-1", 1, false); d != Apply {
		t.Fatalf("newer generation did not apply")
	}
	ib.Commit("a", "a-dlv-1", 1, "b-req-7", 200)
	if d, _ := ib.Begin("a", "a-dlv-1", 0, false); d != Stale {
		t.Fatalf("delayed superseded generation was not classified stale")
	}
	if d, o := ib.Begin("a", "a-dlv-1", 1, false); d != Duplicate || o != "b-req-7" {
		t.Fatalf("current generation redelivery = %v %q, want duplicate", d, o)
	}
}

func TestOriginsAreIndependent(t *testing.T) {
	ib := NewInbox()
	if d, _ := ib.Begin("a", "a-dlv-1", 0, false); d != Apply {
		t.Fatal("origin a first arrival should apply")
	}
	ib.Commit("a", "a-dlv-1", 0, "", 1)
	// Same delivery ID from a different origin is a different delivery.
	if d, _ := ib.Begin("b", "a-dlv-1", 0, false); d != Apply {
		t.Fatal("same ID from another origin must not be deduplicated")
	}
}

func TestRollbackForgetsReservation(t *testing.T) {
	ib := NewInbox()
	if d, _ := ib.Begin("a", "a-dlv-1", 0, false); d != Apply {
		t.Fatal("first arrival should apply")
	}
	ib.Rollback("a", "a-dlv-1", 0)
	// The apply failed; a retry of the same delivery must apply again.
	if d, _ := ib.Begin("a", "a-dlv-1", 0, false); d != Apply {
		t.Fatal("retry after rollback should apply")
	}
}

func TestRollbackRestoresCommittedState(t *testing.T) {
	ib := NewInbox()
	ib.Begin("a", "a-dlv-1", 0, false)
	ib.Commit("a", "a-dlv-1", 0, "out0", 10)
	// Newer generation reserved, then its apply fails.
	if d, _ := ib.Begin("a", "a-dlv-1", 3, false); d != Apply {
		t.Fatal("newer generation should apply")
	}
	ib.Rollback("a", "a-dlv-1", 3)
	// The old committed generation is authoritative again.
	if d, o := ib.Begin("a", "a-dlv-1", 0, false); d != Duplicate || o != "out0" {
		t.Fatalf("after rollback: %v %q, want duplicate out0", d, o)
	}
}

func TestInFlightDeliveryAnsweredRetryably(t *testing.T) {
	ib := NewInbox()
	if d, _ := ib.Begin("a", "a-dlv-1", 0, false); d != Apply {
		t.Fatal("first arrival should apply")
	}
	// A concurrent copy of the same delivery while the apply is pending
	// must not be acknowledged as a duplicate: the only apply may still
	// fail and roll back, which would have lost the repair.
	if d, _ := ib.Begin("a", "a-dlv-1", 0, false); d != InFlight {
		t.Fatal("concurrent same-generation arrival should be in-flight, not duplicate")
	}
	ib.Commit("a", "a-dlv-1", 0, "out", 1)
	if d, o := ib.Begin("a", "a-dlv-1", 0, false); d != Duplicate || o != "out" {
		t.Fatalf("after commit: %v %q, want duplicate out", d, o)
	}
}

func TestOnceOnlyDeliveryIgnoresGenerationBumps(t *testing.T) {
	ib := NewInbox()
	// A create applies and commits (the synthetic request is minted).
	ib.Begin("a", "a-dlv-1", 0, true)
	ib.Commit("a", "a-dlv-1", 0, "b-req-5", 10)
	// A Retry with refreshed credentials bumps the sender's generation,
	// but the mint already happened — the redelivery must be re-acked
	// with the original outcome, never re-applied.
	if d, o := ib.Begin("a", "a-dlv-1", 1, true); d != Duplicate || o != "b-req-5" {
		t.Fatalf("gen-bumped create redelivery = %v %q, want duplicate b-req-5", d, o)
	}
}

func TestGCRefusesPreHorizonDeliveries(t *testing.T) {
	ib := NewInbox()
	// Deliveries 1 and 3 are applied; 2 never arrives (held at the
	// sender awaiting Retry). 4 is applied after the horizon.
	ib.Begin("a", "a-dlv-1", 0, false)
	ib.Commit("a", "a-dlv-1", 0, "x", 100)
	ib.Begin("a", "a-dlv-3", 0, false)
	ib.Commit("a", "a-dlv-3", 0, "y", 120)
	ib.Begin("a", "a-dlv-4", 0, false)
	ib.Commit("a", "a-dlv-4", 0, "z", 200)

	ib.GC(150)
	if got := ib.Len(); got != 1 {
		t.Fatalf("after GC: %d entries, want 1", got)
	}
	// A GC'd delivery is refused as forgotten (410 on the wire), never
	// silently acknowledged.
	if d, _ := ib.Begin("a", "a-dlv-1", 0, false); d != Forgotten {
		t.Fatal("GC'd delivery should be refused as forgotten")
	}
	// So is the never-applied delivery 2, retried after the horizon: the
	// inbox cannot tell it from a late duplicate, and acking it would
	// lose the repair — refusing notifies the sender's administrator.
	if d, _ := ib.Begin("a", "a-dlv-2", 1, false); d != Forgotten {
		t.Fatal("never-applied pre-horizon delivery must not be silently acknowledged")
	}
	// The surviving one still carries its outcome.
	if d, o := ib.Begin("a", "a-dlv-4", 0, false); d != Duplicate || o != "z" {
		t.Fatalf("surviving entry = %v %q, want duplicate z", d, o)
	}
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	ib := NewInbox()
	ib.Begin("a", "a-dlv-1", 2, false)
	ib.Commit("a", "a-dlv-1", 2, "b-req-9", 100)
	ib.Begin("c", "c-dlv-5", 0, false)
	ib.Commit("c", "c-dlv-5", 0, "", 50)
	// A pending (crashed mid-apply) reservation must not be persisted as
	// applied.
	ib.Begin("a", "a-dlv-2", 0, false)

	dump := ib.Dump()
	fresh := NewInbox()
	fresh.Restore(dump)

	if d, o := fresh.Begin("a", "a-dlv-1", 2, false); d != Duplicate || o != "b-req-9" {
		t.Fatalf("restored entry = %v %q, want duplicate b-req-9", d, o)
	}
	if d, _ := fresh.Begin("a", "a-dlv-1", 1, false); d != Stale {
		t.Fatal("restored entry lost its generation")
	}
	if d, _ := fresh.Begin("c", "c-dlv-5", 0, false); d != Duplicate {
		t.Fatal("restored second origin lost its entry")
	}
	// The interrupted apply re-applies after restart (write-ahead
	// semantics: it never committed).
	if d, _ := fresh.Begin("a", "a-dlv-2", 0, false); d != Apply {
		t.Fatal("pending reservation leaked into the dump as applied")
	}

	// Dump is deterministic (origins sorted, entries in (seq, id) order).
	if !reflect.DeepEqual(dump, ib.Dump()) {
		t.Fatal("two dumps of the same inbox differ")
	}
}
