package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aire/internal/core"
	"aire/internal/transport"
	"aire/internal/web"
	"aire/internal/wire"
)

// spanHeader carries the caller's span index across one hop so the
// callee's span can name its parent. The boundary wrapper strips it before
// the request reaches the controller, so nothing a service logs changes.
const spanHeader = "X-Perfbench-Span"

// span is one timed interval at a layer boundary.
type span struct {
	Name string `json:"name"`
	Svc  string `json:"svc,omitempty"`
	// Peer is the other service: the caller of a handled request ("" for
	// an external client) or the callee of an outbound call.
	Peer string `json:"peer,omitempty"`
	Path string `json:"path,omitempty"`
	// Op is the operation's ID: the key the client generated, or the
	// Aire-Request-Id a repair carrier names.
	Op string `json:"op,omitempty"`
	// RID is the Aire request ID the service assigned (handled requests)
	// or the callee returned (outbound calls).
	RID    string `json:"rid,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OK     bool   `json:"ok"`
	// Self is the duration minus the time the span's children cover.
	Self int64 `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) contains(o span) bool { return s.Start <= o.Start && o.End <= s.End }

// tracer keeps every span of a run in memory; nothing is dropped. A nil
// tracer records nothing, and a tracer records only while on is set.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens s and returns its index, or -1 when not recording.
func (t *tracer) begin(s span) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	s.Start = t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// end closes the span begun as id; rid, when set, is stored on it.
func (t *tracer) end(id int, rid string, ok bool) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id]
	s.End, s.OK = end, ok
	if rid != "" {
		s.RID = rid
	}
	t.mu.Unlock()
}

// hook returns a latency observer for wal.Options.OnAppend/OnSync that
// records the observed interval as a span.
func (t *tracer) hook(name, svc string) func(time.Duration) {
	return func(d time.Duration) {
		if !t.on.Load() {
			return
		}
		end := t.now()
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Svc: svc, Start: end - int64(d), End: end, Parent: -1, OK: true})
		t.mu.Unlock()
	}
}

// serveHTTP wraps the http.Handler that transport.NewHTTPHandler built for
// svc, recording an http.serve span around the whole adapter.
func (t *tracer) serveHTTP(svc string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := atoiOr(r.Header.Get(spanHeader), -1)
		id := t.begin(span{Name: "http.serve", Svc: svc, Path: r.URL.Path, Parent: parent})
		if id >= 0 {
			r.Header.Set(spanHeader, strconv.Itoa(id))
		}
		h.ServeHTTP(w, r)
		t.end(id, "", true)
	})
}

type route struct{ method, path string }

// wrapRoutes re-registers the named routes of svc with a wrapper that
// records an app.handler span around the application handler.
func (t *tracer) wrapRoutes(svc *web.Service, routes ...route) {
	if t == nil {
		return
	}
	for _, rt := range routes {
		h, ok := svc.Router.Lookup(rt.method, rt.path)
		if !ok {
			continue
		}
		name, path := svc.Name, rt.path
		svc.Router.Handle(rt.method, rt.path, func(c *web.Ctx) (resp wire.Response) {
			id := t.begin(span{Name: "app.handler", Svc: name, Path: path, Op: c.Form("key"), Parent: -1})
			defer func() { t.end(id, c.ReqID(), resp.Status > 0 && resp.Status < 400) }()
			return h(c)
		})
	}
}

// isCarrier reports whether path is one a repair message arrives on.
func isCarrier(path string) bool { return path == "/aire/repair" || path == "/aire/notify" }

// applyLog records every repair carrier a service applied, as seen at
// its handler boundary.
type applyLog struct {
	mu   sync.Mutex
	recs []applied
}

type applied struct {
	svc, rid string
	at       time.Time
}

func (l *applyLog) add(svc, rid string) {
	at := time.Now()
	l.mu.Lock()
	l.recs = append(l.recs, applied{svc: svc, rid: rid, at: at})
	l.mu.Unlock()
}

// since returns the records added after the first n.
func (l *applyLog) since(n int) []applied {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]applied(nil), l.recs[n:]...)
}

func (l *applyLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// clientLog times the requests external clients send to a service, where
// the client calls the service in-process.
type clientLog struct {
	mu        sync.Mutex
	on        bool
	lat       []float64 // µs
	attempted int
	failed    int
}

func (l *clientLog) add(d time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return
	}
	l.attempted++
	if !ok {
		l.failed++
		return
	}
	l.lat = append(l.lat, us(d))
}

func (l *clientLog) setOn(on bool) {
	l.mu.Lock()
	l.on = on
	l.mu.Unlock()
}

// boundary wraps one service's transport.Handler where the HTTP adapter
// or the bus hands it a request. Each part is optional: tr records
// core.handle spans, applied observes the repair carriers the service
// applied, and client times requests from external clients.
type boundary struct {
	svc     string
	h       transport.Handler
	tr      *tracer
	applied *applyLog
	client  *clientLog
}

func (b *boundary) HandleWire(from string, req wire.Request) wire.Response {
	parent := -1
	if v, ok := req.Header[spanHeader]; ok {
		parent = atoiOr(v, -1)
		delete(req.Header, spanHeader)
	}
	id := b.tr.begin(span{Name: "core.handle", Svc: b.svc, Peer: from, Path: req.Path, Op: req.Form["key"], Parent: parent})
	carrier := isCarrier(req.Path)
	var t0 time.Time
	if b.client != nil && from == "" && !carrier {
		t0 = time.Now()
	}
	resp := b.h.HandleWire(from, req)
	if !t0.IsZero() {
		b.client.add(time.Since(t0), resp.OK())
	}
	if b.applied != nil && carrier && resp.OK() {
		b.applied.add(b.svc, req.Header[wire.HdrRequestID])
	}
	b.tr.end(id, resp.Header[wire.HdrRequestID], resp.OK())
	return resp
}

// tracedCaller wraps the core.Caller handed to core.NewController: live
// outbound calls become core.outbound spans, repair carriers the pump
// sends become pump.carrier_call spans.
type tracedCaller struct {
	tr    *tracer
	inner core.Caller
}

func (c tracedCaller) Call(from, to string, req wire.Request) (wire.Response, error) {
	name, op := "core.outbound", req.Form["key"]
	if isCarrier(req.Path) {
		name, op = "pump.carrier_call", req.Header[wire.HdrRequestID]
	}
	id := c.tr.begin(span{Name: name, Svc: from, Peer: to, Path: req.Path, Op: op, Parent: -1})
	if id >= 0 {
		req = req.WithHeader(spanHeader, strconv.Itoa(id)) // a copy: the controller's request stays as it was
	}
	resp, err := c.inner.Call(from, to, req)
	c.tr.end(id, resp.Header[wire.HdrRequestID], err == nil && resp.OK())
	return resp, err
}

// analyse resolves the spans and stores their per-layer metrics in m; it
// returns how many HTTP requests the services served and how many fsyncs
// the WAL issued.
func (t *tracer) analyse(m map[string]float64) (serves, fsyncs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolve()
	return t.spanMetrics(m)
}

// resolve links the parents that are only known after the run and
// computes every span's self time. Spans still open are closed at their
// start.
func (t *tracer) resolve() {
	sp := t.spans
	byRID := map[string][]int{}    // normal requests' core.handle spans, by the ID the service assigned
	carriers := map[string][]int{} // per service: repair carriers it handled and repairs it ran
	handlers := map[string][]int{} // per service: app.handler spans, which Svc.Mu keeps from overlapping
	for i := range sp {
		if sp[i].End == 0 {
			sp[i].End = sp[i].Start
		}
		s := sp[i]
		switch s.Name {
		case "core.handle":
			if isCarrier(s.Path) {
				carriers[s.Svc] = append(carriers[s.Svc], i)
			} else if s.RID != "" {
				byRID[s.RID] = append(byRID[s.RID], i)
			}
		case "scenario.repair":
			carriers[s.Svc] = append(carriers[s.Svc], i)
		case "app.handler":
			handlers[s.Svc] = append(handlers[s.Svc], i)
		}
	}
	for _, h := range handlers {
		sort.Slice(h, func(a, b int) bool { return sp[h[a]].Start < sp[h[b]].Start })
	}
	containing := func(cands []int, s span) int {
		for _, p := range cands {
			if sp[p].contains(s) {
				return p
			}
		}
		return -1
	}
	// handlerOf finds the handler of svc running when s ran.
	handlerOf := func(svc string, s span) int {
		h := handlers[svc]
		k := sort.Search(len(h), func(k int) bool { return sp[h[k]].Start > s.Start }) - 1
		if k >= 0 && sp[h[k]].contains(s) {
			return h[k]
		}
		return -1
	}
	for i := range sp {
		s := &sp[i]
		switch {
		case s.Name == "app.handler":
			if s.Parent = containing(byRID[s.RID], *s); s.Parent < 0 {
				// A re-execution during repair: it runs inside a carrier
				// the service handled, or inside a repair it ran itself.
				s.Parent = containing(carriers[s.Svc], *s)
			}
		case s.Name == "core.outbound":
			s.Parent = handlerOf(s.Svc, *s)
		case s.Name == "core.handle" && s.Parent < 0 && s.Peer != "":
			// A call another service's handler made over the in-process
			// bus, where no header carries the parent.
			s.Parent = handlerOf(s.Peer, *s)
		}
	}
	kids := make(map[int][][2]int64)
	for _, s := range sp {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range sp {
		sp[i].Self = sp[i].dur() - covered(kids[i], sp[i].Start, sp[i].End)
	}
}

// covered is how much of [lo, hi] the intervals cover together.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// spanMetrics stores in m the per-layer numbers read off the spans of a
// traced segment, latencies in µs, and returns how many HTTP requests the
// services served and how many fsyncs the WAL issued.
func (t *tracer) spanMetrics(m map[string]float64) (serves, fsyncs int) {
	sp := t.spans
	var client, adapter, pre, post, self, outbound, carrierHandle, carrierCall, walAppend, walSync []float64
	var carrierServes, carrierCalls, carrierOK int
	for _, s := range sp {
		d := float64(s.dur()) / 1e3
		switch s.Name {
		case "client.call":
			if !isCarrier(s.Path) {
				client = append(client, d)
			}
		case "http.serve":
			serves++
			if s.Parent >= 0 && sp[s.Parent].Name == "pump.carrier_call" {
				carrierServes++ // a repair carrier the pump delivered
			}
			adapter = append(adapter, float64(s.Self)/1e3)
		case "app.handler":
			if s.Parent < 0 {
				continue
			}
			p := sp[s.Parent]
			if p.Name != "core.handle" || isCarrier(p.Path) || p.Peer != "" {
				continue // a re-execution, or a request from another service
			}
			pre = append(pre, float64(s.Start-p.Start)/1e3)
			post = append(post, float64(p.End-s.End)/1e3)
			self = append(self, float64(s.Self)/1e3)
		case "core.outbound":
			outbound = append(outbound, d)
		case "core.handle":
			if isCarrier(s.Path) && s.Peer != "" {
				carrierHandle = append(carrierHandle, d)
			}
		case "pump.carrier_call":
			carrierCalls++
			if s.OK {
				carrierOK++
			}
			carrierCall = append(carrierCall, d)
		case "wal.append":
			walAppend = append(walAppend, d)
		case "wal.fsync":
			walSync = append(walSync, d)
		}
	}
	m["transport.client_call_us.p50"] = percentile(client, 0.50)
	m["transport.client_call_us.p99"] = percentile(client, 0.99)
	m["transport.adapter_self_us.p50"] = percentile(adapter, 0.50)
	m["transport.carrier_share"] = ratio(float64(carrierServes), float64(serves))
	m["core.pre_handler_us.p50"] = percentile(pre, 0.50)
	m["core.pre_handler_us.p99"] = percentile(pre, 0.99)
	m["core.post_handler_us.p50"] = percentile(post, 0.50)
	m["core.post_handler_us.p99"] = percentile(post, 0.99)
	m["core.outbound_us.p50"] = percentile(outbound, 0.50)
	m["core.carrier_handle_us.p50"] = percentile(carrierHandle, 0.50)
	m["core.carrier_handle_us.p99"] = percentile(carrierHandle, 0.99)
	m["pump.carrier_call_us.p50"] = percentile(carrierCall, 0.50)
	m["pump.carrier_call_us.p99"] = percentile(carrierCall, 0.99)
	m["pump.delivered_frac"] = ratio(float64(carrierOK), float64(carrierCalls))
	m["app.handler_self_us.p50"] = percentile(self, 0.50)
	m["wal.append_us.p50"] = percentile(walAppend, 0.50)
	m["wal.append_us.p99"] = percentile(walAppend, 0.99)
	m["wal.fsync_us.p50"] = percentile(walSync, 0.50)
	m["wal.fsync_us.p99"] = percentile(walSync, 0.99)
	return serves, len(walSync)
}

// write stores the spans as JSON lines after one header line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func atoiOr(s string, def int) int {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	return def
}
