// Package core implements the Aire repair controller — the paper's primary
// contribution (§2.2, §3, §4).
//
// One Controller fronts each web service. During normal operation it
// intercepts every incoming request and outgoing call, assigns Aire
// identifiers, and maintains the repair log. When repair is requested —
// locally by an administrator, or remotely through the repair API of
// Table 1 — it runs Warp-style local repair, and queues repair messages for
// affected peers in per-service outgoing queues that survive peer downtime
// (asynchronous repair, §3). Access control for every repair message is
// delegated to the application through the authorize/notify/retry interface
// of Table 2 (§4).
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"aire/internal/audit"
	"aire/internal/deliver"
	"aire/internal/obs"
	"aire/internal/orm"
	"aire/internal/repairlog"
	"aire/internal/sched"
	"aire/internal/transport"
	"aire/internal/warp"
	"aire/internal/web"
	"aire/internal/wire"
)

// App is the contract between Aire and the web service it protects
// (Table 2, plus route/model registration).
type App interface {
	// Name is the service's identity on the transport.
	Name() string
	// Register installs the application's models and routes on the service.
	Register(svc *web.Service)
	// Authorize decides whether a repair message is allowed (Table 2). The
	// application inspects the original and repaired payloads, the carrier
	// request (which holds the repair message's credentials), and a
	// read-only snapshot of the database at the original request's
	// execution time (§4). Authorize runs under the service lock so the
	// snapshots it reads are consistent even while repair or the pump is
	// active: it must be fast and must not call back into the service or
	// controller (no requests, no ApplyLocal) — read only from ac.
	Authorize(ac AuthzRequest) bool
}

// Notifier is optionally implemented by applications that want repair
// problem notifications pushed to them (Table 2's notify function);
// notifications are always also retrievable from Controller.Notifications.
type Notifier interface {
	Notify(n Notification)
}

// AuthzRequest carries everything an application's Authorize needs.
type AuthzRequest struct {
	// Kind is the repair operation: replace, delete, create, or
	// replace_response.
	Kind warp.OutKind
	// From is the transport-authenticated sender of the repair message.
	From string
	// OriginalFrom is the transport-authenticated sender of the original
	// request being repaired ("" for external clients or create).
	OriginalFrom string
	// Original is the request being repaired (zero for create).
	Original wire.Request
	// OriginalResp is its logged response (zero for create).
	OriginalResp wire.Response
	// Repaired is the corrected request (replace/create).
	Repaired wire.Request
	// RepairedResp is the corrected response (replace_response).
	RepairedResp wire.Response
	// Carrier is the repair API request itself; its headers and form carry
	// the repair credentials.
	Carrier wire.Request
	// Snapshot reads the database as of the original request's execution
	// time (§4: "read-only access to a snapshot of Aire's versioned
	// database at the time when the original request executed").
	Snapshot *orm.Tx
	// Now reads the database at the present time, for policies that check
	// currently-valid credentials (§7.2: expired tokens reject repair until
	// refreshed).
	Now *orm.Tx
}

// Notification reports a repair problem to the application (Table 2 notify).
type Notification struct {
	// MsgID identifies the queued repair message ("" for local notices).
	MsgID string
	// Kind classifies the problem: "unreachable", "rejected",
	// "unauthorized", "gone", "no-propagation", "compensation", or "leak".
	Kind string
	// Target is the peer service involved.
	Target string
	// RepairType is the repair operation involved.
	RepairType string
	// Detail is a human-readable description.
	Detail string
}

// Caller abstracts the transport (the in-memory bus or the HTTP adapter).
type Caller interface {
	Call(from, to string, req wire.Request) (wire.Response, error)
}

// Config tunes a controller.
type Config struct {
	// Engine configures the local repair engine.
	Engine warp.Config
	// MaxAttempts is how many failed delivery attempts a queued repair
	// message endures before it is parked and the application notified
	// (it can still be revived with Retry).
	MaxAttempts int
	// BatchIncoming, when true, queues incoming repair requests and applies
	// them together on ProcessIncoming (§3.2: "Aire also aggregates
	// incoming repair messages in an incoming queue"). When false, each
	// incoming repair is applied immediately.
	BatchIncoming bool
	// PumpWorkers bounds how many peers the background pump delivers to
	// concurrently (0 means a small default). Batches to the same peer are
	// never concurrent: per-peer FIFO order is preserved.
	PumpWorkers int
	// BatchSize caps how many consecutive messages to one peer a single
	// background pump pass carries (0 means a default). Flush is not
	// capped: one synchronous pass attempts every deliverable message.
	BatchSize int
	// BatchPolicy, when non-nil, sizes each peer's claim adaptively from
	// its backlog (see AdaptiveBatch) instead of the fixed BatchSize. The
	// background pump snapshots per-peer backlogs, asks the policy for a
	// limit per peer at a dedicated scheduler decision point
	// ("batch-policy"), and claims under those limits. Flush ignores it.
	BatchPolicy BatchPolicy
	// Admission bounds the share of pump capacity repair cascades may
	// consume so a repair storm cannot starve user-visible traffic (see
	// Admission). The zero value disables admission control. Flush ignores
	// it.
	Admission Admission
	// PumpInterval paces the background pump's periodic passes — the ones
	// that retry peers whose backoff delay has elapsed (0 means a default).
	PumpInterval time.Duration
	// Backoff, when enabled, retries unreachable peers on an exponential
	// schedule instead of parking their messages after MaxAttempts. The
	// zero value keeps the legacy park-and-Retry behavior. Backoff is a
	// background-pump feature: synchronous Flush/Settle passes also honor
	// the schedule, skipping peers whose retry window has not elapsed, so
	// serial deployments that enable Backoff must keep flushing past a
	// no-progress pass (or run StartPump) to drain those peers.
	Backoff Backoff
	// Clock supplies the time used for backoff scheduling (nil means
	// time.Now). Tests inject a fake clock for deterministic backoff.
	Clock func() time.Time
	// DisableDedupInbox turns off the peer-side exactly-once inbox
	// (internal/deliver): incoming repair deliveries are then handled
	// at-least-once, as the original protocol did. Exists so tests and the
	// simulator can demonstrate the stale-redelivery and duplicate-create
	// hazards the inbox closes.
	DisableDedupInbox bool
	// Sched is the concurrency substrate the background pump runs on (nil
	// means real goroutines — sched.Goroutines()). The deterministic
	// simulator injects internal/dsched here so pump workers, backoff
	// sleeps, and shutdown interleave under a seeded schedule.
	Sched sched.Scheduler
	// FaultUngatedReconcile (fault injection, tests only): reconcile
	// delivery outcomes without the per-message generation gate,
	// reintroducing the pre-PR-1 race where a message superseded while a
	// delivery of its old content was in flight is reconciled as if the
	// old content were still the queued one — the superseding repair is
	// silently dropped. Exists so the deterministic scheduler can prove it
	// rediscovers the historical bug; never set it outside tests.
	FaultUngatedReconcile bool
	// Obs, when non-nil, attaches the repair-plane observability registry
	// (internal/obs): the controller publishes counters, latency
	// histograms, and wave-trace spans into it. Leave nil to disable:
	// every instrumented site then reduces to a nil check with zero
	// allocations (BenchmarkObsOverhead), and — because wave-trace
	// context is protocol state minted and persisted unconditionally —
	// an obs-on run takes byte-identical schedules to an obs-off run.
	Obs *obs.Registry
	// FaultSplitRepairCommit (fault injection, tests only): commit a
	// repair's WAL entry without its queue effects and inbox outcome,
	// reintroducing the historical split-entry windows — a crash after the
	// repair entry but before the standalone q-set/in-commit entries
	// recovers a repaired service whose downstream messages were lost, or
	// (crashing between the queue effects and the inbox commit) re-applies
	// the redelivered repair and double-queues its downstream messages.
	// Exists so the double-queue regression test can prove the atomic
	// entry closes the window; never set it outside tests.
	FaultSplitRepairCommit bool
	// Topology, when non-nil, is the shared key→shard map for every
	// service in the deployment (shard.go). A controller with a topology
	// resolves repair carriers bound for a sharded peer to the owning
	// shard's transport name (peerDest), stamps wire.HdrShard, and — when
	// it is itself a shard — refuses carriers addressed to a sibling.
	// Must be set before recovery so WAL replay rebuilds version vectors
	// under the same per-(peer, shard) keys the live path uses. Default
	// nil: no shard resolution, no new headers, no new yield points, and
	// existing scheduler digests stay byte-identical.
	Topology *ShardTopology
	// StrictIndexes verifies vdb/repairlog secondary-index coherence at
	// the start of every repair wave (the carried ROADMAP
	// coherence-at-repair-start debt): a corrupted or stale index fails
	// the repair loudly instead of silently walking the wrong slice.
	// Pure reads under Svc.Mu — no yields, no IDs, no rng — so scheduler
	// digests are unchanged either way. Default off; the simulation
	// harness turns it on.
	StrictIndexes bool
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{Engine: warp.DefaultConfig(), MaxAttempts: 3}
}

// PendingMsg is a repair message in the outgoing queue.
type PendingMsg struct {
	// MsgID identifies the message for notify/retry.
	MsgID string
	// DeliveryID is the message's durable delivery identity, stamped on
	// every delivery attempt as wire.HdrDeliveryID so the peer's dedup
	// inbox recognizes re-deliveries. It is stable across attempts and
	// content revisions, persisted with the queue, and minted from the
	// service's persisted ID counter so it survives crash-restart without
	// colliding.
	DeliveryID string `json:"delivery_id,omitempty"`
	// Msg is the repair operation to deliver.
	Msg warp.OutMsg
	// Attempts counts failed delivery attempts.
	Attempts int
	// Held marks a message parked after repeated failure or an
	// authorization error; only Retry revives it.
	Held bool
	// LastErr describes the most recent failure.
	LastErr string
	// Gen counts content changes (queue collapsing, Retry). A delivery in
	// flight reconciles only against the generation it claimed, so a
	// message superseded mid-flight stays queued for another pass; the
	// claimed generation is also stamped on the wire (wire.HdrGeneration)
	// so the peer can discard a delayed copy of superseded content. It is
	// persisted so generations stay monotonic across crash-restart.
	Gen uint64 `json:"gen,omitempty"`
	// TraceID / TraceHop are the repair-wave trace context this message
	// carries (wire.HdrTraceID / wire.HdrTraceHop): the wave minted at
	// the cascade's origin and the hop depth this message's delivery
	// represents (origin repair = hop 0, the messages it emits = hop 1).
	// Persisted with the queue so a wave's shape survives crash-recovery.
	// Observability-only: never consulted for repair semantics or dedup.
	TraceID  string `json:"trace_id,omitempty"`
	TraceHop int    `json:"trace_hop,omitempty"`
	// token is the response-repair token minted for a replace_response
	// (reused across delivery attempts).
	token string
	// nacked records that this attempt's response carried a gap NACK
	// (wire.HdrNackSeq). Set only on a delivery pass's private snapshot,
	// read at reconcile; never persisted.
	nacked bool
	// inflight marks a message claimed by a delivery pass; guarded by qmu.
	inflight bool
	// queued marks a live queue entry (cleared on delivery and Drop), so
	// reconciliation checks membership in O(1); guarded by qmu.
	queued bool
}

// Stats counts controller activity.
type Stats struct {
	Requests      int64
	RepairsRun    int64
	MsgsQueued    int64
	MsgsDelivered int64
	MsgsFailed    int64
	// DupDeliveries counts incoming repair deliveries re-acknowledged
	// without re-applying (the dedup inbox recognized the delivery).
	DupDeliveries int64
	// StaleDeliveries counts incoming deliveries acknowledged and
	// discarded because they carried a superseded content generation.
	StaleDeliveries int64
	// InboxCommits counts exactly-once inbox outcomes committed for
	// applied incoming deliveries. Unlike MsgsDelivered/MsgsFailed it
	// counts work on the receive side, so a harness quiescing on progress
	// sees a fault class that applies repairs without producing local
	// delivery outcomes (the carried ROADMAP quiesce-widening debt).
	InboxCommits int64
	// BatchApplies counts ProcessIncoming batches applied (batch-incoming
	// mode): receive-side progress that precedes any delivery outcome.
	BatchApplies int64
}

type tokenEntry struct {
	audience string // service allowed to fetch the payload
	payload  []byte
}

// Controller is the Aire runtime for one service.
type Controller struct {
	Svc     *web.Service
	AppImpl App
	Net     Caller
	Cfg     Config
	Engine  *warp.Engine

	qmu    sync.Mutex
	qcond  *sync.Cond // broadcast whenever qlive drops to 0 (WaitQueueEmpty)
	queue  []*PendingMsg
	qlive  int // entries with queued=true (the queue slice may briefly hold dead ones)
	nextID int
	peers  map[string]*peerState // per-peer delivery health, guarded by qmu
	// vectors is the sender-side version-vector state per destination peer
	// (vectors.go). Guarded by qmu.
	vectors map[string]*peerVector
	// liveCalls counts in-flight live (non-repair) outbound calls per peer;
	// admission control trickles repair delivery to peers that are actively
	// serving the live workload. Guarded by qmu.
	liveCalls map[string]int
	// cascadeInflight counts claimed-but-unreconciled cascade-class batches;
	// admission's MaxShare budget is enforced against it at claim time.
	// Guarded by qmu.
	cascadeInflight int

	// sd is the resolved concurrency substrate (Cfg.Sched, or production
	// goroutines); immutable after NewController.
	sd sched.Scheduler

	// topo is the resolved shard topology (Cfg.Topology); nil means no
	// shard resolution anywhere on the delivery path. Immutable after
	// NewController.
	topo *ShardTopology

	// met caches the obs handles (core/obs.go); immutable after
	// NewController. All-nil when Cfg.Obs is nil.
	met ctrlMetrics

	pumpMu     sync.Mutex
	pumpCancel context.CancelFunc
	pumpDone   chan struct{}
	pumpPacer  sched.Pacer // active pump's pacer; wakePump's target

	tokmu     sync.Mutex
	tokens    map[string]tokenEntry
	mailboxes map[string][]string // polling client -> undelivered tokens

	// dedup is the peer-side exactly-once inbox for incoming repair
	// deliveries (internal/deliver); gated by Cfg.DisableDedupInbox.
	dedup *deliver.Inbox

	inmu  sync.Mutex
	inbox []queuedAction
	inseq uint64 // accept sequence of the newest inbox entry ever; guarded by inmu

	nmu           sync.Mutex
	notifications []Notification

	smu   sync.Mutex
	stats Stats

	// walst mirrors committed mutations into a write-ahead log (wal.go).
	walst walState

	events eventHub

	rmu            sync.Mutex
	repairedReqs   int
	repairedOps    int
	lastTotalReqs  int
	lastTotalOps   int
	repairDuration time.Duration
}

// NewController builds the Aire runtime for app, delivering over net.
func NewController(app App, net Caller, cfg Config) *Controller {
	svc := web.NewService(app.Name())
	app.Register(svc)
	c := &Controller{
		Svc:       svc,
		AppImpl:   app,
		Net:       net,
		Cfg:       cfg,
		Engine:    &warp.Engine{Svc: svc, Cfg: cfg.Engine},
		tokens:    make(map[string]tokenEntry),
		mailboxes: make(map[string][]string),
		dedup:     deliver.NewInbox(),
		vectors:   make(map[string]*peerVector),
		peers:     make(map[string]*peerState),
		liveCalls: make(map[string]int),
		sd:        cfg.Sched,
		topo:      cfg.Topology,
	}
	if c.sd == nil {
		c.sd = sched.Goroutines()
	}
	c.met = newCtrlMetrics(cfg.Obs, app.Name())
	c.qcond = sync.NewCond(&c.qmu)
	return c
}

// Obs returns the controller's observability registry (nil when disabled).
// Storage-layer helpers (internal/persist) use it to wire WAL and
// checkpoint latency into the same registry.
func (c *Controller) Obs() *obs.Registry { return c.Cfg.Obs }

// traceCtx is the repair-wave trace context an apply runs under: the wave
// ID minted at the cascade's origin and the hop depth this apply
// represents (origin = hop 0). The zero value means "no incoming context";
// applyActionsGated then mints a fresh wave. Trace context is protocol
// state, not an obs feature: it is parsed, minted, stamped, and persisted
// unconditionally, so instrumented and uninstrumented runs consume
// identical ID sequences and take byte-identical schedules.
type traceCtx struct {
	wave string
	hop  int
}

// traceFromCarrier reads the wave context a repair-plane carrier rode in
// with (stamped by the sender's stampDelivery).
func traceFromCarrier(req wire.Request) traceCtx {
	tc := traceCtx{wave: req.Header[wire.HdrTraceID]}
	if tc.wave != "" {
		tc.hop, _ = strconv.Atoi(req.Header[wire.HdrTraceHop])
	}
	return tc
}

// HandleWire implements transport.Handler: repair API paths are handled by
// the controller itself; everything else is normal application traffic.
// Repair-plane carriers run two protocol preambles first: the body
// checksum (a corrupted payload is refused loudly, not misapplied) and the
// announced-vector observation, whose gap verdict is NACKed on the
// response so the sender can re-offer the lost delivery without waiting
// out backoff.
func (c *Controller) HandleWire(from string, req wire.Request) wire.Response {
	var resp wire.Response
	switch req.Path {
	case "/aire/repair", "/aire/notify":
		// A carrier stamped for a sibling shard must never be absorbed
		// here: its delivery ID would commit into the wrong shard's dedup
		// inbox and the real destination would never see the repair. Fail
		// loudly and retryably so a (buggy) misroute surfaces instead of
		// converging to a wrong world.
		if want := req.Header[wire.HdrShard]; want != "" && want != c.Svc.Name {
			return wire.NewResponse(500, "aire: carrier addressed to shard "+want+" delivered to "+c.Svc.Name)
		}
		if bad := c.verifyCarrierBody(req); bad != nil {
			return *bad
		}
		nack, missing := c.observeCarrierVector(from, req)
		if req.Path == "/aire/repair" {
			resp = c.handleRepair(from, req)
		} else {
			resp = c.handleNotify(from, req)
		}
		if nack {
			if resp.Header == nil {
				resp.Header = map[string]string{}
			}
			resp.Header[wire.HdrNackSeq] = strconv.FormatUint(missing, 10)
		}
	case "/aire/fetch_repair":
		resp = c.handleFetchRepair(from, req)
	case "/aire/poll":
		resp = c.handlePoll(from, req)
	default:
		resp = c.handleNormal(from, req)
	}
	return resp
}

var _ transport.Handler = (*Controller)(nil)

// handleNormal executes one live request: assign identifiers, run the
// handler with full interception, commit the record and effects.
func (c *Controller) handleNormal(from string, req wire.Request) wire.Response {
	// Deferred LIFO: walCommit (writes the entry, under the lock), then
	// Svc.Mu unlocks, then walSettle runs the owed fsync outside every
	// lock — still before the response reaches the client.
	defer c.walSettle()
	c.Svc.Mu.Lock()
	defer c.Svc.Mu.Unlock()
	// The request's store writes and log append form one commit: they land
	// in the WAL as a single entry, applied all-or-nothing on recovery.
	c.walBegin("exec")
	defer c.walCommit()
	c.smu.Lock()
	c.stats.Requests++
	c.smu.Unlock()
	c.met.requests.Inc()

	rec := &repairlog.Record{
		ID:           c.Svc.IDs.Request(),
		TS:           c.Svc.Clock.Next(),
		From:         from,
		ClientRespID: req.Header[wire.HdrResponseID],
		NotifierURL:  req.Header[wire.HdrNotifierURL],
		Req:          req,
	}
	exec := &web.Exec{Svc: c.Svc, Rec: rec, Mode: web.Normal, Outbound: c.outboundNormal}
	resp := exec.Run()
	if resp.Header == nil {
		resp.Header = map[string]string{}
	}
	resp.Header[wire.HdrRequestID] = rec.ID
	rec.Resp = resp
	if err := c.Svc.Log.Append(rec); err != nil {
		return wire.NewResponse(500, "aire: "+err.Error())
	}
	for _, ef := range rec.Effects {
		c.Svc.PerformEffect(ef)
	}
	c.emit(EvRequest, rec.ID, "%s %s from=%q -> %d", req.Method, req.Path, from, resp.Status)
	return resp
}

// outboundNormal sends a live outgoing call with Aire headers attached
// (§3.1) and records the identifiers both sides assigned.
//
// Both copies are ownership boundaries, not defensive habit: req belongs to
// the handler, which may reuse its maps after the call, so the record keeps
// its own copy; and over the in-process bus resp is the callee's own
// response value, whose Header map the callee's log record also holds, so
// the handler gets a private copy it is free to mutate.
func (c *Controller) outboundNormal(seq int, target string, req wire.Request) (wire.Response, repairlog.Call) {
	respID := c.Svc.IDs.Response()
	out := req.WithHeader(
		wire.HdrResponseID, respID,
		wire.HdrNotifierURL, transport.NotifierURL(c.Svc.Name),
	)
	call := repairlog.Call{Target: target, RespID: respID, Req: req.Clone()}
	c.beginLiveCall(target)
	resp, err := c.Net.Call(c.Svc.Name, target, out)
	c.endLiveCall(target)
	if err != nil {
		resp = wire.NewResponse(wire.StatusTimeout, "aire: peer unavailable: "+err.Error())
		call.Failed = true
	} else {
		call.RemoteReqID = resp.Header[wire.HdrRequestID]
	}
	call.Resp = resp
	return resp.Clone(), call
}

// handleRepair services the repair API of Table 1 (replace, delete, create
// arrive here; replace_response uses the notify/fetch handshake). Carriers
// naming their delivery (wire.HdrDeliveryID) pass through the exactly-once
// dedup inbox first: duplicates and superseded generations are acknowledged
// without touching the log — in particular, a re-delivered create returns
// the originally minted request ID instead of minting a second one.
func (c *Controller) handleRepair(from string, req wire.Request) wire.Response {
	gate, acked := c.gateDelivery(from, req)
	if acked != nil {
		return *acked
	}
	resp := c.applyRepairRequest(from, req, &gate)
	if resp.OK() {
		gate.commit(resp.Header[wire.HdrRequestID])
	} else {
		gate.rollback()
	}
	return resp
}

// applyRepairRequest is handleRepair's at-least-once body: authorize and
// apply one replace/delete/create carrier. In batch-incoming mode the gate
// travels with the queued action (ProcessIncoming commits it at apply
// time) and is deactivated here, so the caller's commit-on-202 is a no-op.
func (c *Controller) applyRepairRequest(from string, req wire.Request, gate *deliveryGate) wire.Response {
	op := warp.OutKind(req.Header[wire.HdrRepair])
	targetID := req.Header[wire.HdrRequestID]
	tc := traceFromCarrier(req)

	var action warp.Action
	var ac AuthzRequest
	ac.Kind = op
	ac.From = from
	ac.Carrier = req

	// Svc.Mu is held from the log lookup through Authorize: local repair
	// mutates log records and rolls the store back under this lock, and
	// repair messages arrive concurrently with it once the peer pumps in
	// the background — the policy must not observe a mid-repair store.
	c.Svc.Mu.Lock()
	ac.Now = orm.Snapshot(c.Svc.Store, c.Svc.Schema, c.Svc.Clock.Now())

	switch op {
	case warp.OutReplace, warp.OutDelete:
		rec, ok := c.Svc.Log.Get(targetID)
		if !ok {
			gc := c.Svc.Log.GCBefore()
			c.Svc.Mu.Unlock()
			if gc > 0 {
				return wire.NewResponse(410, "aire: request log garbage-collected; repair permanently unavailable")
			}
			return wire.NewResponse(404, "aire: no such request "+targetID)
		}
		ac.Original = rec.Req.Clone()
		ac.OriginalResp = rec.Resp.Clone()
		ac.OriginalFrom = rec.From
		ac.Snapshot = orm.Snapshot(c.Svc.Store, c.Svc.Schema, rec.TS)
		if op == warp.OutDelete {
			action = warp.Action{Kind: warp.CancelReq, ReqID: targetID}
		} else {
			newReq, err := wire.DecodeRequest(req.Body)
			if err != nil {
				c.Svc.Mu.Unlock()
				return wire.NewResponse(400, "aire: bad replace payload: "+err.Error())
			}
			ac.Repaired = newReq
			action = warp.Action{
				Kind: warp.ReplaceReq, ReqID: targetID, NewReq: newReq,
				From: from, ClientRespID: req.Header[wire.HdrResponseID], NotifierURL: req.Header[wire.HdrNotifierURL],
			}
		}

	case warp.OutCreate:
		newReq, err := wire.DecodeRequest(req.Body)
		if err != nil {
			c.Svc.Mu.Unlock()
			return wire.NewResponse(400, "aire: bad create payload: "+err.Error())
		}
		ac.Repaired = newReq
		ac.Snapshot = orm.Snapshot(c.Svc.Store, c.Svc.Schema, c.Svc.Clock.Now())
		action = warp.Action{
			Kind: warp.CreateReq, NewReq: newReq,
			BeforeID: req.Form["before_id"], AfterID: req.Form["after_id"],
			From: from, ClientRespID: req.Header[wire.HdrResponseID], NotifierURL: req.Header[wire.HdrNotifierURL],
		}

	default:
		c.Svc.Mu.Unlock()
		return wire.NewResponse(400, "aire: unknown repair operation "+string(op))
	}

	// Access control is the application's decision (§4).
	authorized := c.AppImpl.Authorize(ac)
	c.Svc.Mu.Unlock()
	if !authorized {
		c.emit(EvRepairDenied, targetID, "%s from %q denied by policy", op, from)
		return wire.NewResponse(403, "aire: repair not authorized")
	}

	if c.Cfg.BatchIncoming {
		c.enqueueIncoming(action, gate, tc)
		return wire.NewResponse(202, "aire: repair queued")
	}

	res, err := c.applyActionsGated([]warp.Action{action}, gate, tc)
	if err != nil {
		if errors.Is(err, warp.ErrGarbageCollected) {
			return wire.NewResponse(410, "aire: "+err.Error())
		}
		return wire.NewResponse(400, "aire: "+err.Error())
	}

	resp := wire.NewResponse(200, fmt.Sprintf("aire: repaired %d/%d requests", res.RepairedRequests, res.TotalRequests))
	// Tell the sender which local request the repair settled on: for create
	// that is the freshly minted request ID; for replace/delete the
	// existing one. The sender records it for future repairs.
	if len(res.CreatedIDs) > 0 {
		resp.Header[wire.HdrRequestID] = res.CreatedIDs[0]
	} else {
		resp.Header[wire.HdrRequestID] = targetID
	}
	return resp
}

// handleNotify receives a response-repair token (§3.1): the client fetches
// the actual replace_response from the server named in the token delivery,
// authenticating the server in the process (on the bus, by name resolution;
// over TLS, by certificate). Notify deliveries carry delivery identity like
// repair calls do, so a re-delivered notify whose acknowledgment was lost
// is re-acked without re-fetching or re-applying.
func (c *Controller) handleNotify(from string, req wire.Request) wire.Response {
	gate, acked := c.gateDelivery(from, req)
	if acked != nil {
		return *acked
	}
	resp := c.applyNotify(from, req, &gate)
	if resp.OK() {
		gate.commit("")
	} else {
		gate.rollback()
	}
	return resp
}

// applyNotify is handleNotify's at-least-once body: fetch the corrected
// response named by the token and apply it. See applyRepairRequest for the
// gate's batch-incoming hand-off.
func (c *Controller) applyNotify(from string, req wire.Request, gate *deliveryGate) wire.Response {
	token := req.Form["token"]
	server := req.Form["server"]
	if token == "" || server == "" {
		return wire.NewResponse(400, "aire: notify requires token and server")
	}
	fetch := wire.NewRequest("POST", "/aire/fetch_repair").WithForm("token", token)
	fresp, err := c.Net.Call(c.Svc.Name, server, fetch)
	if err != nil {
		return wire.NewResponse(503, "aire: cannot fetch repair from "+server)
	}
	if !fresp.OK() {
		return wire.NewResponse(502, "aire: fetch_repair failed: "+string(fresp.Body))
	}
	var payload respRepairPayload
	if err := json.Unmarshal(fresp.Body, &payload); err != nil {
		return wire.NewResponse(502, "aire: bad fetch_repair payload")
	}

	newResp, err := wire.DecodeResponse(payload.Resp)
	if err != nil {
		return wire.NewResponse(400, "aire: bad replace_response body")
	}
	// Svc.Mu is held from the log lookup through Authorize: see
	// handleRepair — local repair mutates records and the store under this
	// lock, concurrently with incoming notify deliveries. The lookup
	// itself is an O(1) probe of the log's response-ID index, so holding
	// the service lock here no longer costs a full log scan per delivery.
	c.Svc.Mu.Lock()
	rec, i, ok := c.Svc.Log.FindByCallRespID(payload.RespID)
	if !ok {
		c.Svc.Mu.Unlock()
		return wire.NewResponse(404, "aire: unknown response "+payload.RespID)
	}
	// The server may only repair responses it itself produced. Call
	// records name the peer by its unqualified service name, while a
	// sharded producer notifies under its shard-qualified name — any
	// shard of the recorded target is the same producing service.
	if rec.Calls[i].Target != server && rec.Calls[i].Target != ShardBaseName(server) {
		c.Svc.Mu.Unlock()
		return wire.NewResponse(403, "aire: response "+payload.RespID+" was not produced by "+server)
	}
	ac := AuthzRequest{
		Kind:         warp.OutReplaceResponse,
		From:         server,
		Original:     rec.Calls[i].Req.Clone(),
		OriginalResp: rec.Calls[i].Resp.Clone(),
		RepairedResp: newResp,
		Carrier:      req,
		Snapshot:     orm.Snapshot(c.Svc.Store, c.Svc.Schema, rec.TS),
		Now:          orm.Snapshot(c.Svc.Store, c.Svc.Schema, c.Svc.Clock.Now()),
	}
	authorized := c.AppImpl.Authorize(ac)
	c.Svc.Mu.Unlock()
	if !authorized {
		return wire.NewResponse(403, "aire: replace_response not authorized")
	}

	action := warp.Action{
		Kind: warp.ReplaceCallResp, RespID: payload.RespID,
		NewResp: newResp, RemoteReqID: payload.RemoteReqID,
	}
	// The notify carrier, not the fetched payload, carries the wave
	// context: the token handshake is one hop of the wave.
	tc := traceFromCarrier(req)
	if c.Cfg.BatchIncoming {
		c.enqueueIncoming(action, gate, tc)
		return wire.NewResponse(202, "aire: repair queued")
	}
	if _, err := c.applyActionsGated([]warp.Action{action}, nil, tc); err != nil {
		return wire.NewResponse(400, "aire: "+err.Error())
	}
	return wire.NewResponse(200, "aire: response repaired")
}

type respRepairPayload struct {
	RespID      string `json:"resp_id"`
	RemoteReqID string `json:"remote_req_id"`
	Resp        []byte `json:"resp"`
}

// handleFetchRepair serves a queued replace_response to the client that was
// notified (§3.1's second step). Tokens with an empty audience were parked
// for a polling client and act as bearer capabilities.
func (c *Controller) handleFetchRepair(from string, req wire.Request) wire.Response {
	token := req.Form["token"]
	c.tokmu.Lock()
	entry, ok := c.tokens[token]
	if ok && entry.audience == from || ok && entry.audience == "" {
		delete(c.tokens, token)
	}
	c.tokmu.Unlock()
	if !ok {
		return wire.NewResponse(404, "aire: unknown repair token")
	}
	if entry.audience != "" && entry.audience != from {
		return wire.NewResponse(403, "aire: token not addressed to "+from)
	}
	return wire.Response{Status: 200, Header: map[string]string{}, Body: entry.payload}
}

// handlePoll returns (and clears) the response-repair tokens parked for a
// browser-style client that supplied a poll:// notifier URL. The client
// fetches each token's payload via /aire/fetch_repair.
func (c *Controller) handlePoll(from string, req wire.Request) wire.Response {
	clientID := req.Form["client_id"]
	if clientID == "" {
		return wire.NewResponse(400, "aire: poll requires client_id")
	}
	c.tokmu.Lock()
	tokens := c.mailboxes[clientID]
	delete(c.mailboxes, clientID)
	c.tokmu.Unlock()
	body, err := json.Marshal(tokens)
	if err != nil {
		return wire.NewResponse(500, "aire: "+err.Error())
	}
	return wire.Response{Status: 200, Header: map[string]string{}, Body: body}
}

// applyActions runs local repair and queues the resulting repair messages.
// The repair's store/log mutations and its queue effects commit as ONE WAL
// entry (see applyActionsGated), so a crash-recovered service never holds
// the repaired state without the downstream messages it produced.
func (c *Controller) applyActions(actions []warp.Action) (*warp.Result, error) {
	return c.applyActionsGated(actions, nil, traceCtx{})
}

// applyActionsGated runs local repair with everything the repair implies —
// the store/log mutations, the q-set ops of the downstream messages it
// queues, and (when a delivery gate is supplied) the gate's exactly-once
// inbox outcome — folded into ONE WAL entry. Replay is then all-or-nothing:
// either the delivery fully happened (inbox committed, so a redelivery is
// re-acknowledged; messages queued exactly once) or none of it did (the
// redelivery re-applies cleanly). The historical split-entry behavior — the
// documented double-queue/lost-cascade crash windows — is preserved behind
// Config.FaultSplitRepairCommit for the regression test.
func (c *Controller) applyActionsGated(actions []warp.Action, gate *deliveryGate, tc traceCtx) (*warp.Result, error) {
	// No incoming wave context: this repair originates a cascade. The wave
	// is minted unconditionally (obs-on and obs-off runs must consume the
	// same ID sequence) from the persisted counter, so it stays unique
	// across crash-restart like every other identifier.
	if tc.wave == "" {
		tc = traceCtx{wave: c.Svc.IDs.Wave(), hop: 0}
	}
	if c.Cfg.FaultSplitRepairCommit {
		// Historical ordering: repair entry, then standalone q-set entries,
		// with the gate left for the caller to commit afterwards.
		c.Svc.Mu.Lock()
		if err := c.checkIndexesLocked(); err != nil {
			c.Svc.Mu.Unlock()
			return nil, err
		}
		c.walBegin("repair")
		res, err := c.Engine.Repair(actions)
		c.walCommit()
		c.Svc.Mu.Unlock()
		c.walSettle()
		if err != nil {
			return nil, err
		}
		c.finishRepair(actions, res, false, tc)
		return res, nil
	}
	c.Svc.Mu.Lock()
	if err := c.checkIndexesLocked(); err != nil {
		// The gate (if any) stays active: the caller's rollback-on-error
		// answers the sender retryably, exactly as if the repair never ran.
		c.Svc.Mu.Unlock()
		return nil, err
	}
	c.walBegin("repair")
	res, err := c.Engine.Repair(actions)
	if err != nil {
		if gate != nil {
			// Take ownership of the gate (the caller's rollback-on-error
			// becomes a no-op) so its outcome lands inside this entry.
			gate.rollbackEmit(true)
			gate.active = false
		}
		c.walCommit()
		c.Svc.Mu.Unlock()
		c.walSettle()
		return nil, err
	}
	// Queue effects join the open batch (qmu nests inside Svc.Mu), then the
	// gate's inbox commit — with the minted request ID as the outcome for
	// creates — lands in the same entry. Ownership of the gate transfers
	// here: the caller's commit-on-OK becomes a no-op.
	c.enqueueJoin(res.Msgs, true, tc)
	if gate != nil {
		outcome := ""
		if len(res.CreatedIDs) > 0 {
			outcome = res.CreatedIDs[0]
		}
		gate.commitEmit(outcome, true)
		gate.active = false
	}
	c.walCommit()
	c.Svc.Mu.Unlock()
	c.walSettle()
	c.finishRepair(actions, res, true, tc)
	return res, nil
}

// checkIndexesLocked is the repair-wave-start coherence guard: when
// Config.StrictIndexes is set it cross-checks the store's and the repair
// log's secondary indexes against their primary state and refuses to start
// the wave on any divergence. The indexes drive which records a repair
// visits (the inverted-dependency walk) and which call a replace_response
// lands on (respIdx); running a wave over a drifted index repairs the wrong
// slice silently, so a loud pre-wave failure is strictly better. Pure
// reads — no yields, no IDs, no rng, no WAL traffic — so runs with the
// guard on and off execute identical schedules. Caller holds Svc.Mu.
func (c *Controller) checkIndexesLocked() error {
	if !c.Cfg.StrictIndexes {
		return nil
	}
	if err := c.Svc.Store.VerifyIndexes(); err != nil {
		return fmt.Errorf("aire: %s: store index incoherent at repair-wave start: %w", c.Svc.Name, err)
	}
	if err := c.Svc.Log.VerifyIndexes(); err != nil {
		return fmt.Errorf("aire: %s: repair-log index incoherent at repair-wave start: %w", c.Svc.Name, err)
	}
	return nil
}

// finishRepair does a completed local repair's unlocked bookkeeping:
// counters, notifications, and — unless the caller already queued them
// inside its WAL batch (enqueued) — the outbound messages.
func (c *Controller) finishRepair(actions []warp.Action, res *warp.Result, enqueued bool, tc traceCtx) {
	c.smu.Lock()
	c.stats.RepairsRun++
	c.smu.Unlock()
	c.rmu.Lock()
	c.repairedReqs += res.RepairedRequests
	c.repairedOps += res.RepairedModelOps
	c.lastTotalReqs = res.TotalRequests
	c.lastTotalOps = res.TotalModelOps
	c.repairDuration += res.Duration
	c.rmu.Unlock()
	c.met.repairsRun.Inc()
	c.met.repairNS.ObserveNS(int64(res.Duration))
	if c.met.reg != nil {
		// One span per warp phase, laid out back-to-back ending now; the
		// phase durations come from the engine's own wall clock, the span
		// endpoints from the controller clock (virtual under -sched).
		end := c.now().UnixNano()
		for i := len(res.PhaseDurations) - 1; i >= 0; i-- {
			start := end - int64(res.PhaseDurations[i])
			c.met.ring.Record(obs.Span{
				Wave: tc.wave, Hop: tc.hop, Service: c.Svc.Name,
				Kind: obs.SpanRepair, Subject: warp.RepairPhases[i],
				StartNS: start, EndNS: end,
			})
			end = start
		}
	}
	if !enqueued {
		c.enqueue(res.Msgs, tc)
	}
	for _, n := range res.Notices {
		c.notify(Notification{Kind: string(n.Kind), Detail: n.Detail, RepairType: "local"})
	}
	c.emit(EvRepairApplied, fmt.Sprintf("%d action(s)", len(actions)),
		"re-executed %d/%d requests, queued %d message(s)", res.RepairedRequests, res.TotalRequests, len(res.Msgs))
}

// ApplyLocal lets a local administrator (or application code) initiate
// repair directly — e.g. cancelling the attack request that started an
// intrusion (§2: "asks Aire to cancel the attacker's request").
func (c *Controller) ApplyLocal(actions ...warp.Action) (*warp.Result, error) {
	return c.applyActions(actions)
}

// queuedAction is one batched incoming repair action plus the delivery
// gate that admitted it: the gate's reservation is held until the batch
// applies, so a redelivery in the meantime is answered retryably instead
// of being acked for an apply that has not happened. With a WAL attached,
// acceptance is logged (batch-accept) and persisted snapshots carry the
// pending batch, so the 202 ack no longer races a crash: accepted actions
// are recovered and applied by the next ProcessIncoming.
type queuedAction struct {
	// seq is the accept sequence (Controller.inseq at admission): the
	// entry's durable identity, matched by replayed batch-drain watermarks.
	seq    uint64
	action warp.Action
	gate   deliveryGate
	// wave / hop are the accepted carrier's trace context, persisted with
	// the batch-accept op so a recovered batch keeps its wave identity.
	wave string
	hop  int
}

// enqueueIncoming stashes an admitted action in the incoming batch queue,
// taking ownership of its delivery gate (the caller's commit/rollback
// become no-ops). The acceptance is WAL-logged inside the same critical
// section, so accepted actions survive a crash before ProcessIncoming —
// closing the batch-mode durability window the 202 ack used to open.
func (c *Controller) enqueueIncoming(action warp.Action, gate *deliveryGate, tc traceCtx) {
	c.inmu.Lock()
	c.inseq++
	seq := c.inseq
	c.inbox = append(c.inbox, queuedAction{seq: seq, action: action, gate: *gate, wave: tc.wave, hop: tc.hop})
	if c.walAttached() {
		c.walEmit("batch", mustOp("batch-accept", batchAcceptOp{
			Seq: seq, Action: action, Origin: gate.origin, ID: gate.id, Gen: gate.gen, Once: gate.once,
			Wave: tc.wave, Hop: tc.hop,
		}), false)
	}
	c.inmu.Unlock()
	gate.active = false
}

// ProcessIncoming applies all batched incoming repair actions as one local
// repair (§3.2) and returns the result (nil if the inbox was empty). The
// actions' delivery gates commit here — with the minted request ID as the
// outcome for creates — or roll back if the batch fails, so the senders'
// redeliveries are re-applied rather than falsely acknowledged.
func (c *Controller) ProcessIncoming() (*warp.Result, error) {
	if c.Cfg.StrictIndexes {
		// Check before draining the inbox: on failure the accepted batch
		// stays pending (and WAL-persisted), so nothing is silently lost
		// behind the loud error.
		c.Svc.Mu.Lock()
		err := c.checkIndexesLocked()
		c.Svc.Mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	c.inmu.Lock()
	queued := c.inbox
	c.inbox = nil
	c.inmu.Unlock()
	if len(queued) == 0 {
		return nil, nil
	}
	actions := make([]warp.Action, len(queued))
	drainIDs := make([]string, 0, len(queued))
	// The batch applies under the deepest trace context among its actions
	// (the conservative choice: the batch's emitted messages belong to the
	// deepest wave that fed it; a batch mixing waves attributes the whole
	// apply to that one). A batch with no traced action originates a wave.
	var tc traceCtx
	for i, q := range queued {
		actions[i] = q.action
		if q.gate.id != "" {
			drainIDs = append(drainIDs, q.gate.id)
		}
		if q.wave != "" && (tc.wave == "" || q.hop > tc.hop) {
			tc = traceCtx{wave: q.wave, hop: q.hop}
		}
	}
	if tc.wave == "" {
		tc = traceCtx{wave: c.Svc.IDs.Wave(), hop: 0}
	}
	// Accept seqs ascend in inbox order, so the last entry's seq is the
	// drain watermark: replay removes entries at or below it and nothing
	// accepted afterwards.
	drainUpTo := queued[len(queued)-1].seq
	// The whole batch — the repair's mutations, the gates' inbox outcomes,
	// and the drain of the accepted actions — commits as ONE WAL entry, so
	// a recovered service has either the applied batch or the still-pending
	// accepted actions, never half of each.
	c.Svc.Mu.Lock()
	c.walBegin("batch")
	res, err := c.Engine.Repair(actions)
	if err != nil {
		for _, q := range queued {
			q.gate.rollbackEmit(true)
		}
		c.walEmit("batch", mustOp("batch-drain", batchDrainOp{UpToSeq: drainUpTo, N: len(queued), IDs: drainIDs}), true)
		c.walCommit()
		c.Svc.Mu.Unlock()
		c.walSettle()
		return nil, err
	}
	created := 0
	for _, q := range queued {
		outcome := ""
		if q.action.Kind == warp.CreateReq && created < len(res.CreatedIDs) {
			outcome = res.CreatedIDs[created]
			created++
		}
		q.gate.commitEmit(outcome, true)
	}
	// The queue effects of the batch's repair join the same entry: a
	// recovered service must not hold the applied batch (inbox committed,
	// actions drained) without the downstream messages it produced. The
	// historical split — queue effects as separate entries after the batch
	// commit, i.e. the documented lost-cascade crash window — is preserved
	// behind Config.FaultSplitRepairCommit for the regression test.
	enqueued := !c.Cfg.FaultSplitRepairCommit
	if enqueued {
		c.enqueueJoin(res.Msgs, true, tc)
	}
	c.walEmit("batch", mustOp("batch-drain", batchDrainOp{UpToSeq: drainUpTo, N: len(queued), IDs: drainIDs}), true)
	c.walCommit()
	c.Svc.Mu.Unlock()
	c.walSettle()
	c.smu.Lock()
	c.stats.BatchApplies++
	c.smu.Unlock()
	c.met.batchApplies.Inc()
	c.finishRepair(actions, res, enqueued, tc)
	return res, nil
}

// InboxLen reports how many incoming repair actions are waiting (batch mode).
func (c *Controller) InboxLen() int {
	c.inmu.Lock()
	defer c.inmu.Unlock()
	return len(c.inbox)
}

// notify records a notification and forwards it to the application if it
// implements Notifier (Table 2).
func (c *Controller) notify(n Notification) {
	c.nmu.Lock()
	c.notifications = append(c.notifications, n)
	c.nmu.Unlock()
	if an, ok := c.AppImpl.(Notifier); ok {
		an.Notify(n)
	}
}

// Notifications returns all recorded notifications.
func (c *Controller) Notifications() []Notification {
	c.nmu.Lock()
	defer c.nmu.Unlock()
	return append([]Notification(nil), c.notifications...)
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats {
	c.smu.Lock()
	defer c.smu.Unlock()
	return c.stats
}

// RepairCounts reports cumulative repair work (the first two rows of
// Table 5): requests and model operations repaired across all local repairs,
// against the totals observed at the most recent repair.
func (c *Controller) RepairCounts() (repairedReqs, totalReqs, repairedOps, totalOps int) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.repairedReqs, c.lastTotalReqs, c.repairedOps, c.lastTotalOps
}

// RepairDuration reports the cumulative wall time spent in local repair
// (Table 5's "Local repair time").
func (c *Controller) RepairDuration() time.Duration {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.repairDuration
}

// AuditGraph builds the cross-request dependency graph of this service's
// repair log — the tooling an administrator uses to find what an intrusion
// touched before invoking repair (§2).
func (c *Controller) AuditGraph() *audit.Graph {
	c.Svc.Mu.Lock()
	defer c.Svc.Mu.Unlock()
	return audit.Build(c.Svc.Log)
}

// BlastRadius lists every local request and remote call transitively
// influenced by reqID, per the audit dependency graph.
func (c *Controller) BlastRadius(reqID string) []string {
	return c.AuditGraph().Descendants(reqID)
}

// GC garbage-collects repair logs and database versions older than beforeTS
// (§9). Repairs naming garbage-collected requests are afterwards refused
// with status 410 and the requesting peer notifies its administrator. The
// dedup inbox is collected with the same horizon: entries for deliveries
// applied before it are dropped, their sequence covered by the per-origin
// watermark so late duplicates stay deduplicated.
func (c *Controller) GC(beforeTS int64) {
	c.Svc.Mu.Lock()
	c.walBegin("gc")
	c.Svc.Log.GC(beforeTS)
	c.Svc.Store.GC(beforeTS)
	c.dedup.GC(beforeTS)
	if c.walAttached() {
		c.walEmit("gc", mustOp("in-gc", inGCOp{BeforeTS: beforeTS}), true)
	}
	c.walCommit()
	c.Svc.Mu.Unlock()
	c.walSettle()
}
