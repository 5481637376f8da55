package core

import (
	"fmt"
	"runtime"
	"testing"

	"aire/internal/repairlog"
	"aire/internal/wal"
	"aire/internal/wire"
)

// Normal-path allocation ceilings: deterministic allocs/op budgets for one
// KV put through a Controller, with and without a WAL. They hold the
// encode-once, no-defensive-copy normal path in place: an extra encoding or
// copy of the record, a version's fields, or the WAL entry shows up as a
// handful of extra allocations and fails the gate. Timings never gate.
//
// Measured with Go 1.24 on linux/amd64: 20 allocs/op without a WAL and 37
// with one (before encode-once: 28 and 60). The ceilings leave about 20%
// headroom for allocator differences between Go releases.
const (
	putAllocCeilingNoWAL = 24
	putAllocCeilingWAL   = 44
)

// checkPutAllocs fails the test when one /put handled by c averages more
// than ceiling allocations.
func checkPutAllocs(t *testing.T, c *Controller, ceiling int) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's own")
	}
	const runs = 400
	reqs := make([]wire.Request, runs+1)
	for i := range reqs {
		reqs[i] = put(fmt.Sprintf("k%04d", i), fmt.Sprintf("v%04d", i))
	}
	n := 0
	got := testing.AllocsPerRun(runs, func() {
		resp := c.HandleWire("", reqs[n])
		n++
		if !resp.OK() {
			t.Fatalf("put %d: %d %s", n, resp.Status, resp.Body)
		}
	})
	t.Logf("KV put: %.0f allocs/op (ceiling %d)", got, ceiling)
	if got > float64(ceiling) {
		t.Fatalf("KV put: %.0f allocs/op, ceiling %d", got, ceiling)
	}
}

func TestNormalPathAllocCeiling(t *testing.T) {
	t.Run("put-no-wal", func(t *testing.T) {
		c := NewController(&kvApp{name: "a"}, newTestbed().bus, DefaultConfig())
		checkPutAllocs(t, c, putAllocCeilingNoWAL)
	})

	t.Run("put-wal", func(t *testing.T) {
		c := NewController(&kvApp{name: "a"}, newTestbed().bus, DefaultConfig())
		w, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.FsyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		c.AttachWAL(w)
		checkPutAllocs(t, c, putAllocCeilingWAL)
		if err := c.WALError(); err != nil {
			t.Fatal(err)
		}
	})

	// Without a change sink, appending a record encodes nothing: Table 4's
	// size accounting happens when AppBytes is asked. Encoding a record
	// whose response carries a 256 KiB body would allocate at least that
	// much (JSON base64-encodes it), so the bytes allocated per Append
	// prove the record was never encoded.
	t.Run("repairlog-append-no-sink", func(t *testing.T) {
		const bodyBytes = 256 << 10
		l := repairlog.New(true)
		body := make([]byte, bodyBytes)
		recs := make([]*repairlog.Record, 64)
		for i := range recs {
			recs[i] = &repairlog.Record{
				ID:   fmt.Sprintf("r%d", i),
				TS:   int64(i + 1),
				Req:  put(fmt.Sprintf("k%d", i), "v"),
				Resp: wire.Response{Status: 200, Body: body},
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perAppend := (after.TotalAlloc - before.TotalAlloc) / uint64(len(recs))
		t.Logf("Append without sink: %d bytes allocated/op", perAppend)
		if perAppend >= bodyBytes/8 {
			t.Fatalf("Append without sink allocates %d bytes/op for a %d-byte record body: it encodes the record", perAppend, bodyBytes)
		}
		if l.AppBytes() < int64(len(recs)) {
			t.Fatalf("AppBytes = %d: the live log must still be accounted", l.AppBytes())
		}
	})
}
