package simnet

import (
	"math/rand"
	"reflect"
	"testing"

	"aire/internal/transport"
	"aire/internal/wire"
)

// These tests assert the invariant the package documentation promises but
// PR 2 never checked: the fault schedule is a pure function of (seed,
// repair-plane call sequence) because every faultable call consumes
// exactly one rng draw — and nothing else consumes any. Non-repair
// traffic and partitioned calls must draw nothing, or interleaving them
// would shift every later fault decision and a replayed seed would stop
// reproducing its schedule.

// countingSource counts how many raw draws the rng takes.
type countingSource struct {
	src rand.Source64
	n   int
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// drawNet builds a two-service fabric whose rng draws are counted.
func drawNet(t *testing.T, plan FaultPlan) (*Net, *countingSource) {
	t.Helper()
	bus := transport.NewBus()
	ok := transport.HandlerFunc(func(from string, req wire.Request) wire.Response {
		return wire.Response{Status: 200}
	})
	bus.Register("a", ok)
	bus.Register("b", ok)
	n := New(bus, 1, plan)
	src := &countingSource{src: rand.NewSource(1).(rand.Source64)}
	n.rng = rand.New(src) // swap in the counting source (same seed)
	return n, src
}

// TestOneDrawPerFaultableCall: K repair-plane calls consume exactly K
// draws; interleaved normal traffic and partitioned repair calls consume
// zero. (DelayTicks ≤ 1 and single-call Ticks, so no auxiliary draws —
// multi-tick delays and shuffles deliberately consume more, documented in
// FaultPlan.DelayTicks.)
func TestOneDrawPerFaultableCall(t *testing.T) {
	plan := FaultPlan{Drop: 0.3, DropResponse: 0.3, Duplicate: 0.3}
	n, src := drawNet(t, plan)
	repair := wire.NewRequest("POST", "/aire/repair")
	normal := wire.NewRequest("POST", "/put")

	const k = 50
	for i := 0; i < k; i++ {
		n.Call("a", "b", repair)
		if i%3 == 0 {
			n.Call("a", "b", normal) // live traffic: never faulted, never drawn for
		}
	}
	if src.n != k {
		t.Fatalf("%d repair-plane calls consumed %d draws, want exactly %d", k, src.n, k)
	}

	// Partitioned repair calls fail before the roll: no draw.
	n.Partition([]string{"a"}, []string{"b"})
	for i := 0; i < 10; i++ {
		if _, err := n.Call("a", "b", repair); err == nil {
			t.Fatal("partitioned call succeeded")
		}
	}
	if src.n != k {
		t.Fatalf("partitioned calls consumed %d extra draws, want 0", src.n-k)
	}

	// Healed: drawing resumes, one per call.
	n.Heal()
	n.Call("a", "b", repair)
	if src.n != k+1 {
		t.Fatalf("post-heal call consumed %d draws, want 1", src.n-k)
	}
}

// TestZeroFaultPlanDrawsNothing: with no fault probability configured the
// rng is never touched — a fault-free run's schedule cannot depend on
// call count at all.
func TestZeroFaultPlanDrawsNothing(t *testing.T) {
	n, src := drawNet(t, FaultPlan{})
	for i := 0; i < 20; i++ {
		n.Call("a", "b", wire.NewRequest("POST", "/aire/repair"))
	}
	if src.n != 0 {
		t.Fatalf("zero plan consumed %d draws", src.n)
	}
}

// TestScheduleInsensitiveToUnfaultableTraffic: the end-to-end statement of
// the invariant — two same-seed fabrics fed the same repair-plane call
// sequence produce identical fault schedules even when one of them also
// carries arbitrary live traffic and partitioned calls in between.
func TestScheduleInsensitiveToUnfaultableTraffic(t *testing.T) {
	plan := FaultPlan{Drop: 0.2, DropResponse: 0.2, Duplicate: 0.2, Delay: 0.2}
	build := func() *Net {
		bus := transport.NewBus()
		ok := transport.HandlerFunc(func(from string, req wire.Request) wire.Response {
			return wire.Response{Status: 200}
		})
		bus.Register("a", ok)
		bus.Register("b", ok)
		bus.Register("c", ok)
		return New(bus, 99, plan)
	}
	repair := wire.NewRequest("POST", "/aire/repair")

	quiet := build()
	for i := 0; i < 40; i++ {
		quiet.Call("a", "b", repair)
	}

	noisy := build()
	for i := 0; i < 40; i++ {
		noisy.Call("a", "b", wire.NewRequest("GET", "/get"))          // live traffic
		noisy.Call("c", "b", wire.NewRequest("POST", "/put"))         // more live traffic
		noisy.Partition([]string{"a", "b"}, []string{"c"})            // c cut off
		noisy.Call("c", "a", wire.NewRequest("POST", "/aire/repair")) // partitioned: no draw
		noisy.Heal()
		noisy.Call("a", "b", repair)
	}

	got := noisy.Trace()
	var gotFaults []string
	for _, line := range got {
		if line != "partition c->a /aire/repair" {
			gotFaults = append(gotFaults, line)
		}
	}
	if want := quiet.Trace(); !reflect.DeepEqual(gotFaults, want) {
		t.Fatalf("fault schedule shifted under unfaultable traffic:\nnoisy: %v\nquiet: %v", gotFaults, want)
	}
}

// TestStripVectorsRemovesAnnouncementWithoutDrawing: the strip switch
// hides the vector announcement from the receiver and the NACK from the
// sender, leaves every other header and the caller's own request alone,
// draws no randomness, and — because the re-offer mark is stripped before
// the curse check — never lets a retry through a Lost curse.
func TestStripVectorsRemovesAnnouncementWithoutDrawing(t *testing.T) {
	bus := transport.NewBus()
	var seen map[string]string
	bus.Register("b", transport.HandlerFunc(func(from string, req wire.Request) wire.Response {
		seen = req.Header
		resp := wire.NewResponse(200, "ok")
		resp.Header[wire.HdrNackSeq] = "7"
		return resp
	}))
	n := New(bus, 1, FaultPlan{StripVectors: true})
	src := &countingSource{src: rand.NewSource(1).(rand.Source64)}
	n.rng = rand.New(src)

	req := wire.NewRequest("POST", "/aire/repair").WithHeader(
		wire.HdrDeliveryID, "a-dlv-3", wire.HdrAckedSeq, "2",
		wire.HdrFrontierSeq, "3", wire.HdrReoffer, "1")
	resp, err := n.Call("a", "b", req)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{wire.HdrAckedSeq, wire.HdrFrontierSeq, wire.HdrReoffer} {
		if _, ok := seen[h]; ok {
			t.Errorf("receiver saw %s", h)
		}
		if _, ok := req.Header[h]; !ok {
			t.Errorf("caller's request lost %s", h)
		}
	}
	if seen[wire.HdrDeliveryID] != "a-dlv-3" {
		t.Errorf("delivery ID stripped: %v", seen)
	}
	if _, ok := resp.Header[wire.HdrNackSeq]; ok {
		t.Error("sender saw the NACK")
	}
	if src.n != 0 {
		t.Fatalf("strip consumed %d draws, want 0", src.n)
	}

	// Curse the delivery, then stop faulting: a re-offer lifts the curse
	// only when the strip is off.
	for _, strip := range []bool{false, true} {
		n = New(bus, 1, FaultPlan{Lost: 1})
		if _, err := n.Call("a", "b", req); err == nil {
			t.Fatal("Lost fault delivered the call")
		}
		n.plan = FaultPlan{StripVectors: strip}
		_, err := n.Call("a", "b", req)
		if passed := err == nil; passed == strip {
			t.Fatalf("strip=%v: re-offer passed the curse = %v", strip, passed)
		}
	}
}
