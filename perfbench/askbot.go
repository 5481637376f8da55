package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"aire/internal/core"
	"aire/internal/harness"
	"aire/internal/transport"
	"aire/internal/wire"
)

const (
	// askbotQuestions is the size of the seeded question set every read
	// lists.
	askbotQuestions = 300
	askbotSetups    = 9
	// The Table 5 scenario: legitimate users, and questions each posts.
	scenarioUsers = 100
	scenarioPosts = 5
)

// readEnv is one Askbot deployment seeded for the read workload.
type readEnv struct {
	bench *harness.AskbotBench
	h     transport.Handler
}

// newReadEnv builds an Aire (or bare) Askbot and posts the seeded question
// set; a quarter of the questions carry code that Askbot crossposts to
// the pastebin.
func newReadEnv(withAire bool, seed int64, tr *tracer) (*readEnv, error) {
	b, err := harness.NewAskbotBench(withAire)
	if err != nil {
		return nil, err
	}
	e := &readEnv{bench: b, h: b.Handler}
	// The seed fixes Askbot's application clock, so the seeded questions,
	// and with them every reply and log record, repeat exactly.
	frozen := func() int64 { return 1_380_000_000 + seed%86_400 }
	if withAire {
		b.Ctrl.Svc.TimeSource = frozen
	} else {
		b.Handler.(*harness.BareRunner).Svc.TimeSource = frozen
	}
	if withAire && tr != nil {
		tr.wrapRoutes(b.Ctrl.Svc, route{"GET", "/questions"})
		e.h = &boundary{svc: "askbot", h: b.Ctrl, tr: tr}
	}
	for i := 0; i < askbotQuestions; i++ {
		h := splitmix(uint64(seed)<<16 ^ uint64(i))
		req := wire.NewRequest("POST", "/ask").WithForm(
			"session", b.Session,
			"title", "q"+word(h, 12+int(h%29)),
			"body", word(h>>5, 40+int(h%81)),
		)
		if i%4 == 0 {
			req = req.WithForm("code", "print("+word(h>>9, 24)+")")
		}
		if resp := b.Handler.HandleWire("", req); !resp.OK() {
			return nil, fmt.Errorf("seeding question %d: %d %s", i, resp.Status, resp.Body)
		}
	}
	return e, nil
}

// reads lists the questions for d, or n times when n is positive, and
// checks every reply: status 200 and every seeded question listed.
func (e *readEnv) reads(d time.Duration, n int, rep *report) segment {
	var seg segment
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; n > 0 && i < n || n <= 0 && time.Now().Before(deadline); i++ {
		t0 := time.Now()
		resp := e.h.HandleWire("", wire.NewRequest("GET", "/questions"))
		lat := us(time.Since(t0))
		seg.attempted++
		if resp.Status != 200 {
			seg.failed++
			rep.problem("GET /questions: %d %s", resp.Status, resp.Body)
			continue
		}
		if got := strings.Count(string(resp.Body), "<li id="); got != askbotQuestions {
			seg.failed++
			rep.problem("GET /questions listed %d questions, want %d", got, askbotQuestions)
			continue
		}
		seg.ops++
		seg.lat = append(seg.lat, lat)
	}
	seg.elapsed = time.Since(start)
	return seg
}

func runAskbotRead(o options) (*report, error) {
	rep := &report{metrics: map[string]float64{}, env: readEnvironment("")}
	if o.trace {
		return traceAskbotRead(o, rep)
	}
	var cpu, wall []float64
	var e *readEnv
	for k := 0; k < askbotSetups; k++ {
		clock := startSetup()
		env, err := newReadEnv(true, o.seed, nil)
		if err != nil {
			return nil, err
		}
		c, w := clock.stop()
		cpu, wall = append(cpu, c.Seconds()), append(wall, w.Seconds())
		e = env
	}
	setupMetric(rep, cpu, wall, fmt.Sprintf("each builds three services and posts %d questions", askbotQuestions))
	warm := e.reads(o.dur(0.1), o.ops/10, rep)
	m0 := phaseStart()
	seg := e.reads(o.dur(1), o.ops, rep)
	m1 := phaseEnd()
	runtime.KeepAlive(e) // the heap reading must include the deployment
	rep.attempted, rep.failed = warm.attempted+seg.attempted, warm.failed+seg.failed
	costMetrics(rep, m0, m1, seg.ops)
	rep.notef("operations: %d reads, %d of %d failed (failed_frac %.4f)",
		seg.ops, rep.failed, rep.attempted, ratio(float64(rep.failed), float64(rep.attempted)))
	wallOf(seg.ops, seg.lat, seg.elapsed).note(rep)
	rep.notef("no repairs and no WAL on this workload: repair latency and disk_kb_per_op do not apply")
	return rep, nil
}

// traceAskbotRead is the traced run: the Table 4 read protocol, an
// untraced segment and a traced one.
func traceAskbotRead(o options, rep *report) (*report, error) {
	m := rep.metrics
	tr := newTracer()
	e, err := newReadEnv(true, o.seed, tr)
	if err != nil {
		return nil, err
	}
	bare, err := newReadEnv(false, o.seed, nil)
	if err != nil {
		return nil, err
	}
	pass := func(env *readEnv) func(int) (int, time.Duration) {
		return func(int) (int, time.Duration) {
			seg := env.reads(o.dur(0.05), o.ops/4, rep)
			return seg.ops, seg.elapsed
		}
	}
	pass(bare)(0)
	pass(e)(0)
	bareRate, aireRate := interleave(6, pass(bare), pass(e))
	m["app.bare_ops_s"] = bareRate
	m["app.aire_overhead_pct"] = 100 * (1 - aireRate/bareRate)
	rep.notef("Table 4 read row, interleaved passes: bare %.1f reads/s, Aire %.1f reads/s, overhead %.1f%% (paper: 19%%)", bareRate, aireRate, m["app.aire_overhead_pct"])

	r0 := readMem()
	b := e.reads(o.dur(0.5), o.ops, rep)
	r1 := readMem()
	runtimeMetrics(m, r0, r1, b.ops)
	wallOf(b.ops, b.lat, b.elapsed).store(m)

	ctrls := []*core.Controller{e.bench.Ctrl}
	c0 := readCounters(ctrls)
	tr.on.Store(true)
	c := e.reads(o.dur(1), o.ops, rep)
	tr.on.Store(false)
	c1 := readCounters(ctrls)
	rep.attempted, rep.failed = b.attempted+c.attempted, b.failed+c.failed

	tr.analyse(m)
	counterMetrics(m, c0, c1, c.ops, 0)
	for _, k := range []string{"transport.calls_per_op", "wal.fsyncs_per_op", "wal.disk_kb_per_op", "pump.queue_depth.max",
		"persist.recover_s", "repair.p50_ms", "repair.p99_ms", "repair.samples"} {
		m[k] = 0
	}
	m["shard.op_skew"] = 1
	m["trace.overhead_pct"] = 100 * (1 - ratio(ratio(float64(c.ops), c.elapsed.Seconds()), ratio(float64(b.ops), b.elapsed.Seconds())))
	rep.notef("traced segment: %d reads, %d spans; transport, WAL, pump, shard router and warp are bypassed and report 0", c.ops, len(tr.spans))
	if err := writeSpans(tr, "askbot-read", o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// scenarioRoutes are the routes the Table 5 scenario sends, per service.
var scenarioRoutes = map[string][]route{
	"oauth":  {{"POST", "/signup"}, {"POST", "/authorize"}, {"POST", "/verify_email"}, {"GET", "/token_user"}, {"POST", "/admin/config"}},
	"askbot": {{"POST", "/register"}, {"POST", "/ask"}, {"GET", "/questions"}, {"POST", "/admin/daily_email"}},
	"dpaste": {{"POST", "/paste"}, {"GET", "/download"}},
}

// iteration is one run of the Table 5 scenario.
type iteration struct {
	// setup is the set-up's user-mode CPU time, setupWall its duration.
	setup, setupWall time.Duration
	normal, repair   time.Duration
	client           *clientLog
	// repaired is set when the repair reached every affected service and
	// Verify found nothing of the attack left.
	repaired bool
	// heapKB, userUS and sysUS are the live-heap growth and the CPU time
	// of the traffic and the repair, per client request.
	heapKB, userUS, sysUS float64
	before, after         counters
}

// scenario runs the attack, the legitimate traffic, the repair and the
// verification once. Client requests and the repair carriers the services
// apply are observed at each service's bus boundary.
func scenario(seed int64, tr *tracer, rep *report) (*iteration, error) {
	it := &iteration{client: &clientLog{}}
	clock := startSetup()
	s, err := harness.NewAskbotScenario(scenarioUsers, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// The seed moves the frozen application clock within one day.
	s.TB.FreezeTime(1_380_000_000 + seed%86_400)
	applied := &applyLog{}
	var ctrls []*core.Controller
	for _, name := range []string{"oauth", "askbot", "dpaste"} {
		c := s.TB.Ctrls[name]
		ctrls = append(ctrls, c)
		tr.wrapRoutes(c.Svc, scenarioRoutes[name]...)
		s.TB.Bus.Register(name, &boundary{svc: name, h: c, tr: tr, applied: applied, client: it.client})
	}
	it.setup, it.setupWall = clock.stop()

	it.before = readCounters(ctrls)
	m0 := phaseStart()
	it.client.setOn(true)
	t1 := time.Now()
	if err := s.PreRegister(scenarioUsers); err != nil {
		return nil, err
	}
	if err := s.RunAttack(); err != nil {
		return nil, err
	}
	if err := s.RunLegitTraffic(scenarioUsers, scenarioPosts); err != nil {
		return nil, err
	}
	it.normal = time.Since(t1)
	it.client.setOn(false)

	id := tr.begin(span{Name: "scenario.repair", Svc: "oauth", Op: s.ConfigReqID, Parent: -1})
	r0 := time.Now()
	err = s.Repair()
	r1 := time.Now()
	tr.end(id, "", err == nil)
	if err != nil {
		return nil, err
	}
	m1 := phaseEnd()
	it.after = readCounters(ctrls)
	it.heapKB = heapKBPerOp(m0, m1, len(it.client.lat))
	it.userUS = userUSPerOp(m0, m1, len(it.client.lat))
	it.sysUS = sysUSPerOp(m0, m1, len(it.client.lat))

	// The cancelled misconfiguration reaches Askbot, which then repairs the
	// crossposted snippet on Dpaste: both must have applied a carrier.
	it.repaired = true
	last := r0
	reached := map[string]bool{}
	for _, a := range applied.since(0) {
		if a.at.Before(r0) || a.at.After(r1) {
			rep.problem("%s applied a repair carrier outside the repair", a.svc)
			it.repaired = false
			continue
		}
		reached[a.svc] = true
		if a.at.After(last) {
			last = a.at
		}
	}
	for _, svc := range []string{"askbot", "dpaste"} {
		if !reached[svc] {
			rep.problem("the repair never reached %s", svc)
			it.repaired = false
		}
	}
	it.repair = last.Sub(r0)
	for _, p := range s.Verify() {
		rep.problem("verify: %s", p)
		it.repaired = false
	}
	return it, nil
}

// scenarios repeats the scenario for d, or n times when n is positive.
func scenarios(seed int64, tr *tracer, d time.Duration, n int, rep *report) ([]*iteration, error) {
	var its []*iteration
	start := time.Now()
	for n > 0 && len(its) < n || n <= 0 && (len(its) == 0 || time.Since(start) < d) {
		it, err := scenario(seed, tr, rep)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		rep.attempted += it.client.attempted + 1
		rep.failed += it.client.failed
		if !it.repaired {
			rep.failed++
		}
	}
	return its, nil
}

// summary is the end-to-end view of a set of scenario iterations.
type summary struct {
	ops                   int
	lat, setups, repairs  []float64
	setupWalls            []float64
	heapKB, userUS, sysUS []float64
	normal                time.Duration
}

func (s summary) wall() wall { return wallOf(s.ops, s.lat, s.normal) }

func summarize(its []*iteration) summary {
	var s summary
	for _, it := range its {
		s.ops += len(it.client.lat)
		s.lat = append(s.lat, it.client.lat...)
		s.setups = append(s.setups, it.setup.Seconds())
		s.setupWalls = append(s.setupWalls, it.setupWall.Seconds())
		s.repairs = append(s.repairs, float64(it.repair)/1e6)
		s.heapKB = append(s.heapKB, it.heapKB)
		s.userUS = append(s.userUS, it.userUS)
		s.sysUS = append(s.sysUS, it.sysUS)
		s.normal += it.normal
	}
	return s
}

func runAskbotRepair(o options) (*report, error) {
	rep := &report{metrics: map[string]float64{}, env: readEnvironment("")}
	m := rep.metrics
	if o.trace {
		return traceAskbotRepair(o, rep)
	}
	its, err := scenarios(o.seed, nil, o.dur(1), o.ops, rep)
	if err != nil {
		return nil, err
	}
	s := summarize(its)
	setupMetric(rep, s.setups, s.setupWalls, fmt.Sprintf("one per iteration, each builds three services and seeds %d accounts", scenarioUsers+2))
	m["user_cpu_us_per_op"] = median(s.userUS)
	m["heap_kb_per_op"] = median(s.heapKB)
	rep.notef("%d scenario iterations (%d users x %d posts + attack); every metric is a median over iterations", len(its), scenarioUsers, scenarioPosts)
	rep.notef("operations: %d client requests, %d repairs, %d of %d failed (failed_frac %.4f)",
		s.ops, len(its), rep.failed, rep.attempted, ratio(float64(rep.failed), float64(rep.attempted)))
	rep.notef("user_cpu_us_per_op and heap_kb_per_op count the legitimate traffic, the attack and the repair, per client request")
	rep.notef("system CPU: %.1f us per operation (not gated: it moves with the host's I/O and scheduling)", median(s.sysUS))
	s.wall().note(rep)
	rep.notef("repair latency: p50 %.3f ms over %d repairs (p99 needs 1000)", median(s.repairs), len(s.repairs))
	rep.notef("no WAL on this workload: disk_kb_per_op does not apply")
	return rep, nil
}

// traceAskbotRepair is the traced run: untraced iterations, then traced
// ones.
func traceAskbotRepair(o options, rep *report) (*report, error) {
	m := rep.metrics
	tr := newTracer()
	r0 := readMem()
	b, err := scenarios(o.seed, tr, o.dur(0.5), o.ops, rep)
	if err != nil {
		return nil, err
	}
	r1 := readMem()
	bs := summarize(b)
	runtimeMetrics(m, r0, r1, bs.ops)
	bs.wall().store(m)
	m["repair.p50_ms"] = median(bs.repairs)
	m["repair.p99_ms"] = 0
	m["repair.samples"] = float64(len(bs.repairs))

	tr.on.Store(true)
	c, err := scenarios(o.seed, tr, o.dur(1), o.ops, rep)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	cs := summarize(c)
	tr.analyse(m)
	// Per-iteration counters: every iteration is a fresh deployment, so
	// the first one's deltas are the scenario's.
	it := c[0]
	counterMetrics(m, it.before, it.after, len(it.client.lat), 1)
	m["warp.local_repair_ms"] = 0
	for _, it := range c {
		m["warp.local_repair_ms"] += float64(it.after.localRepair-it.before.localRepair) / 1e6 / float64(len(c))
	}
	for _, k := range []string{"transport.calls_per_op", "wal.fsyncs_per_op", "wal.disk_kb_per_op", "pump.queue_depth.max",
		"persist.recover_s", "app.bare_ops_s", "app.aire_overhead_pct"} {
		m[k] = 0
	}
	m["shard.op_skew"] = 1
	m["trace.overhead_pct"] = 100 * (1 - ratio(ratio(float64(cs.ops), cs.normal.Seconds()), ratio(float64(bs.ops), bs.normal.Seconds())))
	rep.notef("untraced: %d iterations, repair p50 %.3f ms; traced: %d iterations, %d spans", len(b), median(bs.repairs), len(c), len(tr.spans))
	rep.notef("warp re-executed %.0f of %d requests and %.0f model ops per repair; messages per repair %.0f",
		m["warp.reexec_requests"], it.after.totalReqs, m["warp.reexec_model_ops"], m["core.msgs_per_repair"])
	rep.notef("transport, WAL, pump and shard router are bypassed (in-process bus, synchronous settle) and report 0")
	if err := writeSpans(tr, "askbot-repair", o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
