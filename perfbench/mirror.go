package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/persist"
	"aire/internal/transport"
	"aire/internal/vdb"
	"aire/internal/wal"
	"aire/internal/wire"
)

// mirrorSpec is the shape of a workload on the aireserve topology: a hub
// that mirrors every /put to its peers over real HTTP, with a WAL at
// fsync=every, and a share of the puts repaired.
type mirrorSpec struct {
	name string
	// shards splits the hub behind the key-hash router, one WAL each;
	// 1 keeps a single controller.
	shards int
	// repairEvery repairs every n-th put: its client deletes it through
	// the hub's repair API right after the put returns.
	repairEvery int
	// table4 makes the traced run measure the Table 4 write row against
	// the same topology without Aire.
	table4 bool
}

var (
	mirrorWrite = mirrorSpec{name: "mirror-write", shards: 1, repairEvery: 20, table4: true}
	repairStorm = mirrorSpec{name: "repair-storm", shards: 2, repairEvery: 2}
)

const (
	mirrorPeers = 3
	// seedPuts are written at set-up, then replayed from the WAL when the
	// hub restarts.
	seedPuts     = 200
	mirrorSetups = 5
	drainTimeout = 60 * time.Second
)

var putRoute = route{"POST", "/put"}

// mirrorEnv is one running topology.
type mirrorEnv struct {
	spec   mirrorSpec
	tr     *tracer
	dir    string
	urls   map[string]string
	net    core.Caller
	client *transport.HTTPCaller
	peers  []*core.Controller
	// servers are the peers' listeners (every listener, without Aire).
	servers []*httptest.Server
	applied *applyLog
	hub     hubSide
	// recoverDur is how long the last WAL recovery took.
	recoverDur time.Duration
	// vals holds every acknowledged put; repaired the keys repaired since.
	vals     map[string]string
	repaired map[string]bool
}

// hubSide is the hub: its controllers, their WALs and listeners.
type hubSide struct {
	shards  []*core.Controller
	router  *core.ShardedController
	writers []*wal.Writer
	servers []*httptest.Server
}

func (h *hubSide) waitDrained() bool {
	if h.router != nil {
		return h.router.WaitQueueEmpty(drainTimeout)
	}
	return h.shards[0].WaitQueueEmpty(drainTimeout)
}

func (h *hubSide) queueLen() int {
	if h.router != nil {
		return h.router.QueueLen()
	}
	return h.shards[0].QueueLen()
}

func peerName(i int) string { return fmt.Sprintf("peer%d", i) }

// newMirrorEnv builds the topology, seeds it and restarts the hub from
// its WAL. The WAL directories live under root.
func newMirrorEnv(spec mirrorSpec, seed int64, tr *tracer, root string) (*mirrorEnv, error) {
	dir, err := os.MkdirTemp(root, "wal-")
	if err != nil {
		return nil, err
	}
	e := &mirrorEnv{
		spec: spec, tr: tr, dir: dir, urls: map[string]string{},
		applied: &applyLog{}, vals: map[string]string{}, repaired: map[string]bool{},
	}
	ctrlNet := &transport.HTTPCaller{BaseURLs: e.urls}
	e.net = ctrlNet
	if tr != nil {
		e.net = tracedCaller{tr: tr, inner: ctrlNet}
	}
	e.client = &transport.HTTPCaller{BaseURLs: e.urls}
	for i := 0; i < mirrorPeers; i++ {
		name := peerName(i)
		c := core.NewController(&harness.KVApp{ServiceName: name}, e.net, core.DefaultConfig())
		tr.wrapRoutes(c.Svc, putRoute)
		srv := httptest.NewServer(tr.serveHTTP(name, transport.NewHTTPHandler(&boundary{svc: name, h: c, tr: tr, applied: e.applied})))
		e.peers = append(e.peers, c)
		e.servers = append(e.servers, srv)
		e.urls[name] = srv.URL
		if err := c.StartPump(context.Background()); err != nil {
			e.close()
			return nil, err
		}
	}
	// The seed puts are input, written without fsync so the disk's
	// latency does not swamp set-up time; the restart then recovers them
	// and serves with fsync on every commit.
	if err := e.startHub(wal.FsyncNone); err != nil {
		e.close()
		return nil, err
	}
	seg := e.drive(putGen{seed: seed, tag: "s"}, 0, seedPuts, 0)
	if seg.failed > 0 {
		e.close()
		return nil, fmt.Errorf("seeding: %d of %d puts failed", seg.failed, seg.attempted)
	}
	e.stopHub()
	if err := e.startHub(wal.FsyncEveryCommit); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// startHub builds the hub's controllers, recovers them from their WAL
// directories and starts their listeners and pumps.
func (e *mirrorEnv) startHub(policy wal.FsyncPolicy) error {
	var peers []string
	for i := range e.peers {
		peers = append(peers, peerName(i))
	}
	cfg := core.DefaultConfig()
	var topo *core.ShardTopology
	if e.spec.shards > 1 {
		topo = core.NewShardTopology()
		topo.SetShards("hub", e.spec.shards)
		cfg.Topology = topo
	}
	h := hubSide{}
	var dirs []string
	for i := 0; i < e.spec.shards; i++ {
		name := "hub"
		if topo != nil {
			name = topo.ShardName("hub", i)
		}
		c := core.NewController(&harness.KVApp{ServiceName: name, Mirrors: peers}, e.net, cfg)
		h.shards = append(h.shards, c)
		dirs = append(dirs, filepath.Join(e.dir, fmt.Sprintf("shard%d", i)))
	}
	opts := wal.Options{Policy: policy}
	if e.tr != nil {
		opts.OnAppend = e.tr.hook("wal.append", "hub")
		opts.OnSync = e.tr.hook("wal.fsync", "hub")
	}
	t0 := time.Now()
	writers, err := persist.RecoverShards(h.shards, dirs, opts)
	e.recoverDur = time.Since(t0)
	if err != nil {
		return err
	}
	h.writers = writers
	listen := func(name string, handler transport.Handler) {
		srv := httptest.NewServer(e.tr.serveHTTP(name, transport.NewHTTPHandler(&boundary{svc: name, h: handler, tr: e.tr})))
		h.servers = append(h.servers, srv)
		e.urls[name] = srv.URL
	}
	for _, c := range h.shards {
		e.tr.wrapRoutes(c.Svc, putRoute)
		if topo != nil {
			listen(c.Svc.Name, c)
		}
	}
	if topo != nil {
		h.router = core.NewShardedController("hub", topo, h.shards)
		listen("hub", h.router)
	} else {
		listen("hub", h.shards[0])
	}
	e.hub = h
	for _, c := range h.shards {
		if err := c.StartPump(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// stopHub stops the hub's pumps and listeners and closes its WALs the
// way a process exit would.
func (e *mirrorEnv) stopHub() {
	for _, c := range e.hub.shards {
		c.StopPump()
	}
	for _, s := range e.hub.servers {
		s.Close()
	}
	for _, w := range e.hub.writers {
		w.Close()
	}
	e.hub = hubSide{}
}

func (e *mirrorEnv) close() {
	e.stopHub()
	for _, c := range e.peers {
		c.StopPump()
	}
	for _, s := range e.servers {
		s.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

func (e *mirrorEnv) ctrls() []*core.Controller {
	return append(append([]*core.Controller(nil), e.hub.shards...), e.peers...)
}

// putGen derives the i-th put of a phase from the seed.
type putGen struct {
	seed int64
	tag  string
}

func (g putGen) kv(i int64) (key, val string) {
	h := uint64(g.seed)
	for _, b := range []byte(g.tag) {
		h = splitmix(h ^ uint64(b))
	}
	h = splitmix(h ^ uint64(i))
	return g.tag + strconv.FormatInt(i, 10) + "x" + word(h, 6), word(h>>7, 16+int(h%33))
}

// segment is what the clients did during one phase.
type segment struct {
	ops, attempted, failed int
	lat                    []float64 // µs per completed put
	acked                  [][2]string
	repairs                []repairCall
	elapsed                time.Duration
	applied0               int // applyLog length when the phase began
}

type repairCall struct {
	key   string
	start time.Time
}

// clients is how many client goroutines drive a phase: two, or fewer on
// a host with fewer processors.
func clients() int { return min(2, runtime.NumCPU()) }

// drive runs closed-loop clients against the hub, each waiting for its
// reply before sending again, for d or, when n is positive, for n puts.
func (e *mirrorEnv) drive(g putGen, d time.Duration, n int64, repairEvery int) segment {
	parts := make([]segment, clients())
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	applied0 := e.applied.len()
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *segment) {
			defer wg.Done()
			for {
				i := next.Add(1)
				if (n > 0 && i > n) || (n <= 0 && !time.Now().Before(deadline)) {
					return
				}
				e.put(p, g, i, repairEvery)
			}
		}(&parts[c])
	}
	wg.Wait()
	seg := segment{elapsed: time.Since(start), applied0: applied0}
	for _, p := range parts {
		seg.ops += p.ops
		seg.attempted += p.attempted
		seg.failed += p.failed
		seg.lat = append(seg.lat, p.lat...)
		seg.acked = append(seg.acked, p.acked...)
		seg.repairs = append(seg.repairs, p.repairs...)
	}
	for _, kv := range seg.acked {
		e.vals[kv[0]] = kv[1]
	}
	for _, r := range seg.repairs {
		e.repaired[r.key] = true
	}
	return seg
}

// put sends the i-th put and, when it is due, repairs it.
func (e *mirrorEnv) put(p *segment, g putGen, i int64, repairEvery int) {
	key, val := g.kv(i)
	resp, ok := e.call(wire.NewRequest("POST", "/put").WithForm("key", key, "val", val), key)
	p.attempted++
	if !ok {
		p.failed++
		return
	}
	p.ops++
	p.lat = append(p.lat, resp.lat)
	p.acked = append(p.acked, [2]string{key, val})
	if repairEvery <= 0 || i%int64(repairEvery) != 0 {
		return
	}
	start := time.Now()
	_, ok = e.call(wire.NewRequest("POST", "/aire/repair").
		WithHeader(wire.HdrRepair, "delete", wire.HdrRequestID, resp.rid), key)
	p.attempted++
	if !ok {
		p.failed++
		return
	}
	p.repairs = append(p.repairs, repairCall{key: key, start: start})
}

type callResult struct {
	lat float64 // µs
	rid string
}

// call sends req to the hub as an external client.
func (e *mirrorEnv) call(req wire.Request, key string) (callResult, bool) {
	id := e.tr.begin(span{Name: "client.call", Svc: "hub", Path: req.Path, Op: key, Parent: -1})
	if id >= 0 {
		req.Header[spanHeader] = strconv.Itoa(id)
	}
	t0 := time.Now()
	resp, err := e.client.Call("", "hub", req)
	lat := us(time.Since(t0))
	ok := err == nil && resp.OK()
	e.tr.end(id, resp.Header[wire.HdrRequestID], ok)
	return callResult{lat: lat, rid: resp.Header[wire.HdrRequestID]}, ok
}

// repairLatencies matches the carriers the peers applied during seg to
// the repairs its clients issued. A repair is complete once every peer
// has applied it; its latency runs from the start of the repair call to
// the last application. Every repair must reach every peer exactly once
// and nothing else may be applied.
func (e *mirrorEnv) repairLatencies(seg segment, rep *report) []float64 {
	type reach struct {
		peers map[string]bool
		last  time.Time
	}
	byKey := map[string]*reach{}
	for _, r := range seg.repairs {
		byKey[r.key] = &reach{peers: map[string]bool{}}
	}
	peers := map[string]*core.Controller{}
	for _, c := range e.peers {
		peers[c.Svc.Name] = c
	}
	dups := 0
	for _, a := range e.applied.since(seg.applied0) {
		c := peers[a.svc]
		rec, ok := c.Svc.Log.Get(a.rid)
		if !ok {
			rep.problem("%s applied a carrier for unknown request %s", a.svc, a.rid)
			continue
		}
		r := byKey[rec.Req.Form["key"]]
		if r == nil {
			rep.problem("%s applied a repair of %s, which no client repaired", a.svc, rec.Req.Form["key"])
			continue
		}
		if r.peers[a.svc] {
			dups++
			continue
		}
		r.peers[a.svc] = true
		if a.at.After(r.last) {
			r.last = a.at
		}
	}
	var lat []float64
	applied := 0
	for _, r := range seg.repairs {
		got := byKey[r.key]
		applied += len(got.peers)
		if len(got.peers) == len(e.peers) {
			lat = append(lat, float64(got.last.Sub(r.start))/1e6)
		}
	}
	if want := len(seg.repairs) * len(e.peers); applied != want {
		rep.problem("repairs incomplete: %d repairs x %d peers = %d applications expected, %d observed", len(seg.repairs), len(e.peers), want, applied)
	}
	if dups > 0 {
		rep.notef("repair carriers applied again (duplicates acknowledged by the peers): %d", dups)
	}
	return lat
}

// checkReads is how many held keys, and a fifth as many repaired ones,
// check reads back over HTTP from every service.
const checkReads = 500

// check verifies every service after the repair plane has drained: each
// peer and the hub must hold exactly the acknowledged, unrepaired puts.
// Every key and value is compared in each service's store (on a sharded
// hub, the union of its shards'), and an evenly spaced sample of held and
// repaired keys is read back over HTTP with GET /get, through the router
// on a sharded hub. Reading every key over HTTP would add a repair-log
// record per read, which on the traced runs grows the process by hundreds
// of megabytes; KVApp's GET /sum would list a service in one call, but it
// builds the listing by repeated string concatenation, which allocates
// memory quadratic in the number of keys: gigabytes after a 15 s run.
func (e *mirrorEnv) check(rep *report) {
	defer func(t0 time.Time) { rep.notef("checks took %.1f s", time.Since(t0).Seconds()) }(time.Now())
	want := map[string]string{}
	var held, gone []string
	for k, v := range e.vals {
		if e.repaired[k] {
			gone = append(gone, k)
		} else {
			want[k] = v
			held = append(held, k)
		}
	}
	compareKV(rep, "hub", storeKV(e.hub.shards...), want)
	names := []string{"hub"}
	for _, c := range e.peers {
		compareKV(rep, c.Svc.Name, storeKV(c), want)
		names = append(names, c.Svc.Name)
	}
	reads := append(spaced(held, checkReads), spaced(gone, checkReads/5)...)
	checker := &transport.HTTPCaller{BaseURLs: e.urls}
	for _, name := range names {
		bad := 0
		for _, k := range reads {
			resp, err := checker.Call("", name, wire.NewRequest("GET", "/get").WithForm("key", k))
			v, ok := want[k]
			switch {
			case err != nil:
				rep.problem("%s: GET /get %s: %v", name, k, err)
			case ok && (!resp.OK() || string(resp.Body) != v):
				bad++
				rep.problem("%s: GET /get %s = %d %q, want %q", name, k, resp.Status, resp.Body, v)
			case !ok && resp.Status != 404:
				bad++
				rep.problem("%s: GET /get %s = %d %q, want 404 (repaired)", name, k, resp.Status, resp.Body)
			}
		}
		if bad > 0 {
			rep.problem("%s: %d of %d keys read back over HTTP were wrong", name, bad, len(reads))
		}
	}
}

// storeKV lists the keys and values the controllers' stores hold.
func storeKV(ctrls ...*core.Controller) map[string]string {
	kv := map[string]string{}
	for _, c := range ctrls {
		for _, id := range c.Svc.Store.IDs("kv") {
			if v, ok := c.Svc.Store.Get(vdb.Key{Model: "kv", ID: id}); ok {
				kv[id] = v.Fields["val"]
			}
		}
	}
	return kv
}

func compareKV(rep *report, svc string, got, want map[string]string) {
	if len(got) != len(want) {
		rep.problem("%s holds %d keys, want %d", svc, len(got), len(want))
	}
	bad := 0
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			if bad++; bad <= 3 {
				rep.problem("%s: key %s = %q, want %q", svc, k, g, v)
			}
		}
	}
}

// spaced returns up to n of keys, evenly spaced in sorted order.
func spaced(keys []string, n int) []string {
	sort.Strings(keys)
	if len(keys) <= n {
		return keys
	}
	out := make([]string, n)
	for i := range out {
		out[i] = keys[i*len(keys)/n]
	}
	return out
}

// repairNotes reports repair latency with its sample count; p99 only
// where the segment holds at least 1000 repairs.
func repairNotes(rep *report, lat []float64) (p50, p99 float64) {
	p50 = percentile(lat, 0.50)
	if len(lat) >= 1000 {
		p99 = percentile(lat, 0.99)
		rep.notef("repair latency: p50 %.3f ms, p99 %.3f ms over %d repairs", p50, p99, len(lat))
	} else {
		rep.notef("repair latency: p50 %.3f ms over %d repairs (p99 needs 1000)", p50, len(lat))
	}
	return p50, p99
}

func runMirror(spec mirrorSpec) func(o options) (*report, error) {
	return func(o options) (*report, error) {
		if o.trace {
			return traceMirror(spec, o)
		}
		return measureMirror(spec, o)
	}
}

// measureMirror is the end-to-end run: several set-ups, a warm-up, one
// timed phase, a drain, and the checks.
func measureMirror(spec mirrorSpec, o options) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	var cpu, wall []float64
	var e *mirrorEnv
	for k := 0; k < mirrorSetups; k++ {
		clock := startSetup()
		env, err := newMirrorEnv(spec, o.seed, nil, o.out)
		if err != nil {
			return nil, err
		}
		c, w := clock.stop()
		cpu, wall = append(cpu, c.Seconds()), append(wall, w.Seconds())
		if k < mirrorSetups-1 {
			env.close()
		} else {
			e = env
		}
	}
	defer e.close()
	rep.env = readEnvironment(e.dir)
	setupMetric(rep, cpu, wall, fmt.Sprintf("each builds %d services, seeds %d puts and restarts the hub from its WAL", mirrorPeers+spec.shards, seedPuts))

	warm := e.drive(putGen{seed: o.seed, tag: "w"}, o.dur(0.1), int64(o.ops), spec.repairEvery)
	if !e.hub.waitDrained() {
		return nil, fmt.Errorf("repair queue did not drain after warm-up")
	}
	e.repairLatencies(warm, rep)
	m0 := phaseStart()
	disk0 := dirBytes(e.dir)
	seg := e.drive(putGen{seed: o.seed, tag: "t"}, o.dur(1), int64(o.ops), spec.repairEvery)
	if !e.hub.waitDrained() {
		return nil, fmt.Errorf("repair queue did not drain after the timed phase")
	}
	m1 := phaseEnd()
	disk1 := dirBytes(e.dir)
	rep.attempted = warm.attempted + seg.attempted
	rep.failed = warm.failed + seg.failed
	costMetrics(rep, m0, m1, seg.ops)
	rep.notef("operations: %d puts completed, %d repairs issued, %d of %d calls failed (failed_frac %.4f)",
		seg.ops, len(seg.repairs), rep.failed, rep.attempted, ratio(float64(rep.failed), float64(rep.attempted)))
	rep.notef("user_cpu_us_per_op and heap_kb_per_op include the puts' repairs and the drain of their carriers")
	wallOf(seg.ops, seg.lat, seg.elapsed).note(rep)
	repairNotes(rep, e.repairLatencies(seg, rep))
	rep.notef("disk_kb_per_op: %.4f KB of WAL per put", ratio(float64(disk1-disk0)/1024, float64(seg.ops)))
	e.check(rep)
	return rep, nil
}

// traceMirror is the traced run: the Table 4 interleave against a bare
// topology (mirror-write only), an untraced segment, then a traced one.
func traceMirror(spec mirrorSpec, o options) (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	m := rep.metrics
	tr := newTracer()
	e, err := newMirrorEnv(spec, o.seed, tr, o.out)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rep.env = readEnvironment(e.dir)
	m["persist.recover_s"] = e.recoverDur.Seconds()

	m["app.bare_ops_s"], m["app.aire_overhead_pct"] = 0, 0
	if spec.table4 {
		bare, aire, err := e.table4(o)
		if err != nil {
			return nil, err
		}
		m["app.bare_ops_s"] = bare
		m["app.aire_overhead_pct"] = 100 * (1 - aire/bare)
		rep.notef("Table 4 write row, interleaved passes without repairs: bare %.1f puts/s, Aire %.1f puts/s, overhead %.1f%% (paper: 30%%)", bare, aire, m["app.aire_overhead_pct"])
	}

	// Untraced segment: the baseline for the tracing overhead, and the
	// runtime and repair-latency numbers.
	r0 := readMem()
	b := e.drive(putGen{seed: o.seed, tag: "b"}, o.dur(0.5), int64(o.ops), spec.repairEvery)
	r1 := readMem()
	if !e.hub.waitDrained() {
		return nil, fmt.Errorf("repair queue did not drain")
	}
	runtimeMetrics(m, r0, r1, b.ops)
	wallOf(b.ops, b.lat, b.elapsed).store(m)
	lat := e.repairLatencies(b, rep)
	m["repair.p50_ms"], m["repair.p99_ms"] = repairNotes(rep, lat)
	m["repair.samples"] = float64(len(lat))

	// Traced segment.
	var depth atomic.Int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if d := int64(e.hub.queueLen()); d > depth.Load() {
					depth.Store(d)
				}
			}
		}
	}()
	c0 := readCounters(e.ctrls())
	disk0 := dirBytes(e.dir)
	tr.on.Store(true)
	c := e.drive(putGen{seed: o.seed, tag: "c"}, o.dur(1), int64(o.ops), spec.repairEvery)
	drained := e.hub.waitDrained()
	tr.on.Store(false)
	close(stop)
	<-sampled
	if !drained {
		return nil, fmt.Errorf("repair queue did not drain")
	}
	c1 := readCounters(e.ctrls())
	disk1 := dirBytes(e.dir)
	e.repairLatencies(c, rep) // checks that every repair reached every peer
	rep.attempted = b.attempted + c.attempted
	rep.failed = b.failed + c.failed

	serves, fsyncs := tr.analyse(m)
	counterMetrics(m, c0, c1, c.ops, len(c.repairs))
	m["transport.calls_per_op"] = ratio(float64(serves), float64(c.ops))
	m["wal.fsyncs_per_op"] = ratio(float64(fsyncs), float64(c.ops))
	m["wal.disk_kb_per_op"] = ratio(float64(disk1-disk0)/1024, float64(c.ops))
	m["pump.queue_depth.max"] = float64(depth.Load())
	m["shard.op_skew"] = opSkew(c0, c1, len(e.hub.shards))
	tracedOps := ratio(float64(c.ops), c.elapsed.Seconds())
	untracedOps := ratio(float64(b.ops), b.elapsed.Seconds())
	m["trace.overhead_pct"] = 100 * (1 - ratio(tracedOps, untracedOps))
	rep.notef("traced segment: %d puts, %d repairs, %d spans; %.1f puts/s traced vs %.1f untraced", c.ops, len(c.repairs), len(tr.spans), tracedOps, untracedOps)
	rep.notef("carrier share of HTTP requests: %.1f%%", 100*m["transport.carrier_share"])
	e.check(rep)
	if err := writeSpans(tr, spec.name, o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// table4 runs the Table 4 write protocol: warm both sides up, then
// alternate equal passes of plain puts on a bare topology and on this one,
// and return each side's puts per second.
func (e *mirrorEnv) table4(o options) (bare, aire float64, err error) {
	b := newBareMirror()
	defer b.close()
	pass := func(env *mirrorEnv, tag string, round int) (int, time.Duration) {
		g := putGen{seed: o.seed, tag: tag + strconv.Itoa(round)}
		seg := env.drive(g, o.dur(0.05), int64(o.ops/4), 0)
		if seg.failed > 0 {
			err = fmt.Errorf("table 4 pass: %d puts failed", seg.failed)
		}
		return seg.ops, seg.elapsed
	}
	pass(b, "bw", 0)
	pass(e, "aw", 0)
	bare, aire = interleave(6, func(r int) (int, time.Duration) { return pass(b, "bp", r) },
		func(r int) (int, time.Duration) { return pass(e, "ap", r) })
	return bare, aire, err
}

// newBareMirror builds the same topology on harness.BareRunner: no repair
// log, no versions, no WAL.
func newBareMirror() *mirrorEnv {
	e := &mirrorEnv{urls: map[string]string{}, applied: &applyLog{}, vals: map[string]string{}, repaired: map[string]bool{}}
	net := &transport.HTTPCaller{BaseURLs: e.urls}
	e.client = &transport.HTTPCaller{BaseURLs: e.urls}
	var peers []string
	for i := 0; i < mirrorPeers; i++ {
		peers = append(peers, peerName(i))
	}
	for _, name := range append(peers, "hub") {
		app := &harness.KVApp{ServiceName: name}
		if name == "hub" {
			app.Mirrors = peers
		}
		srv := httptest.NewServer(transport.NewHTTPHandler(harness.NewBareRunner(app, net)))
		e.servers = append(e.servers, srv)
		e.urls[name] = srv.URL
	}
	return e
}
