package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"aire/internal/obs"
	"aire/internal/sched"
	"aire/internal/transport"
	"aire/internal/warp"
)

// This file implements the repair pump: the delivery engine behind the
// outgoing queue. A production deployment pumps queues continuously in the
// background (§3: repair propagates asynchronously and must ride out slow
// and offline peers), so delivery is organized around three ideas:
//
//   - Partitioning. The queue is partitioned by destination peer. Messages
//     to the same peer form one batch, delivered in FIFO order on a single
//     worker (the paper's per-service ordering requirement); batches to
//     distinct peers are independent and may run concurrently.
//
//   - Claim/reconcile. A delivery pass claims messages under qmu, delivers
//     against private snapshots with no locks held, and reconciles each
//     outcome under qmu. Retry, Drop, and queue collapsing may run at any
//     point in between: each PendingMsg carries a generation counter, and a
//     reconcile only applies to the generation it claimed — a message whose
//     content was superseded mid-flight simply stays queued for another
//     pass.
//
//   - Backoff. With Config.Backoff enabled, an unreachable peer is retried
//     on an exponential schedule read from an injectable clock instead of
//     parking its messages after MaxAttempts. Messages stay live; the
//     administrator is still notified once per outage.
//
// Flush runs exactly one synchronous pass, delivering batches serially in
// queue order — deterministic, for tests and Settle. StartPump runs passes
// continuously with a bounded worker pool, fanning batches out to distinct
// peers concurrently.

// Backoff configures the exponential retry schedule for unreachable peers.
// The zero value disables backoff, restoring the legacy behavior: each
// message is attempted every pass and parked (Held) after
// Config.MaxAttempts failures.
type Backoff struct {
	// Base is the delay after a peer's first failed delivery. Base > 0
	// enables backoff.
	Base time.Duration
	// Max caps the delay (0 means no cap).
	Max time.Duration
	// Factor multiplies the delay after each consecutive failure
	// (values < 1 are treated as 2).
	Factor float64
}

// Enabled reports whether backoff gating is active.
func (b Backoff) Enabled() bool { return b.Base > 0 }

// Delay returns the retry delay after n consecutive failures (n >= 1).
func (b Backoff) Delay(n int) time.Duration {
	if !b.Enabled() || n < 1 {
		return 0
	}
	f := b.Factor
	if f < 1 {
		f = 2
	}
	d := float64(b.Base)
	for i := 1; i < n; i++ {
		d *= f
		if b.Max > 0 && d >= float64(b.Max) {
			return b.Max
		}
		if d >= float64(math.MaxInt64) {
			// Uncapped schedules must not overflow time.Duration into a
			// negative delay that would disable the gate.
			return time.Duration(math.MaxInt64)
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		return b.Max
	}
	return time.Duration(d)
}

// DefaultBackoff returns the backoff schedule used by the production pump:
// 50ms doubling to a 5s cap. Pair it with StartPump — synchronous
// Settle/Flush loops honor the retry windows and may quiesce early while a
// peer backs off (see Settle's doc).
func DefaultBackoff() Backoff {
	return Backoff{Base: 50 * time.Millisecond, Max: 5 * time.Second, Factor: 2}
}

// Pump tuning defaults (Config fields left zero).
const (
	defaultPumpWorkers  = 4
	defaultBatchSize    = 16
	defaultPumpInterval = 25 * time.Millisecond
)

func (c *Controller) pumpWorkers() int {
	if c.Cfg.PumpWorkers > 0 {
		return c.Cfg.PumpWorkers
	}
	return defaultPumpWorkers
}

func (c *Controller) batchSize() int {
	if c.Cfg.BatchSize > 0 {
		return c.Cfg.BatchSize
	}
	return defaultBatchSize
}

func (c *Controller) pumpInterval() time.Duration {
	if c.Cfg.PumpInterval > 0 {
		return c.Cfg.PumpInterval
	}
	return defaultPumpInterval
}

// now reads the controller's clock (Config.Clock, or the wall clock).
func (c *Controller) now() time.Time {
	if c.Cfg.Clock != nil {
		return c.Cfg.Clock()
	}
	return time.Now()
}

// peerState tracks delivery health for one destination peer. Guarded by qmu.
type peerState struct {
	// inflight marks a claimed batch not yet reconciled; at most one batch
	// per peer is in flight, which is what preserves per-peer FIFO order.
	inflight bool
	// failures counts consecutive retryable delivery failures.
	failures int
	// nextTry gates delivery attempts while backing off.
	nextTry time.Time
	// notified marks that the administrator was told about this outage
	// (reset when the peer becomes reachable again).
	notified bool
	// limit is the per-peer claim limit the last claim used — the adaptive
	// batch policy's growth state. It survives successful reconciles while
	// the peer still has backlog and resets (entry deleted) once the peer
	// drains, which is exactly the policy's shrink-to-idle behavior.
	limit int
}

// peerKey names the destination a repair message is delivered to: the target
// service for repair calls, the notifier's host service (or polling client)
// for replace_response.
func peerKey(m warp.OutMsg) string {
	if m.Kind == warp.OutReplaceResponse {
		if clientID, ok := transport.ParsePollNotifierURL(m.NotifierURL); ok {
			return "poll://" + clientID
		}
		if svc, _, err := transport.ParseNotifierURL(m.NotifierURL); err == nil {
			return svc
		}
		return m.NotifierURL
	}
	return m.Target
}

// claimedBatch is one peer's slice of the queue, claimed for delivery.
type claimedBatch struct {
	peer string
	ptrs []*PendingMsg // live queue entries (reconciled under qmu)
	snap []PendingMsg  // private copies delivered without locks
	gens []uint64      // generation of each entry at claim time
	// limit is the batch's claim cap (0 = unbounded), resolved per peer.
	limit int
	// cascade marks a cascade-class batch (first message is a repair
	// carrier, not a replace_response); it holds one unit of the admission
	// MaxShare budget until the batch reconciles.
	cascade bool
}

// beginLiveCall / endLiveCall bracket one live (non-repair) outbound call
// to a peer; admission control reads the count at claim time to trickle
// repair delivery to peers that are actively serving live traffic. No-ops
// unless admission is enabled, keeping the live hot path lock-free.
func (c *Controller) beginLiveCall(peer string) {
	if !c.Cfg.Admission.Enabled() {
		return
	}
	c.qmu.Lock()
	c.liveCalls[peer]++
	c.qmu.Unlock()
}

func (c *Controller) endLiveCall(peer string) {
	if !c.Cfg.Admission.Enabled() {
		return
	}
	c.qmu.Lock()
	if c.liveCalls[peer]--; c.liveCalls[peer] <= 0 {
		delete(c.liveCalls, peer)
	}
	c.qmu.Unlock()
}

// peerBacklogs snapshots, for every peer with deliverable messages, how
// many are queued for it and the claim limit its previous batch used — the
// inputs the batch policy sizes the next claim from. Skipped peers
// (in-flight batch, backing off) are included: their limits are computed
// but unused this pass, which keeps the snapshot cheap and the policy
// stateless.
func (c *Controller) peerBacklogs() map[string][2]int {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	m := map[string][2]int{}
	for _, p := range c.queue {
		if !p.queued || p.Held || p.inflight {
			continue
		}
		k := c.peerDest(p.Msg)
		v := m[k]
		v[0]++
		m[k] = v
	}
	for k, v := range m {
		if ps := c.peers[k]; ps != nil {
			v[1] = ps.limit
			m[k] = v
		}
	}
	return m
}

// batchLimits asks the configured batch policy for a per-peer claim limit.
// Called with no locks held — the limits are advisory caps applied at claim
// time, not a reservation.
func (c *Controller) batchLimits(backlogs map[string][2]int) map[string]int {
	pol := c.Cfg.BatchPolicy
	if pol == nil {
		return nil
	}
	limits := make(map[string]int, len(backlogs))
	for peer, v := range backlogs {
		limits[peer] = pol.Limit(v[0], v[1])
	}
	return limits
}

// claimBatches partitions the deliverable queue by peer and claims up to a
// per-peer limit of messages, preserving queue (FIFO) order within each
// batch. The limit for a peer is perPeer[peer] when present, else limit
// (0 = unbounded). Held messages, messages already in flight, peers with a
// batch in flight, and peers still backing off are skipped. With admit set
// (background pump passes only), the admission budgets also apply: peers
// with live outbound calls in flight are capped at Admission.Burst, and a
// new cascade-class batch is skipped entirely while the cascade worker
// budget is exhausted and response-class messages are waiting. Batches are
// returned in queue order of their first message.
func (c *Controller) claimBatches(limit int, perPeer map[string]int, admit bool) []*claimedBatch {
	now := c.now()
	adm := c.Cfg.Admission
	admit = admit && adm.Enabled()
	c.qmu.Lock()
	defer c.qmu.Unlock()
	// The MaxShare budget only bites while user-visible (response-class)
	// messages are actually waiting; one pre-pass answers that.
	respWaiting := false
	if admit && adm.MaxShare > 0 {
		for _, p := range c.queue {
			if p.queued && !p.Held && !p.inflight && p.Msg.Kind == warp.OutReplaceResponse {
				respWaiting = true
				break
			}
		}
	}
	var order []*claimedBatch
	byPeer := map[string]*claimedBatch{}
	skipPeer := map[string]bool{}
	for _, p := range c.queue {
		if !p.queued || p.Held || p.inflight {
			continue
		}
		peer := c.peerDest(p.Msg)
		if skipPeer[peer] {
			continue
		}
		cl, ok := byPeer[peer]
		if !ok {
			ps := c.peers[peer]
			if ps == nil {
				ps = &peerState{}
				c.peers[peer] = ps
			}
			if ps.inflight || (c.Cfg.Backoff.Enabled() && now.Before(ps.nextTry)) {
				skipPeer[peer] = true
				continue
			}
			cascade := p.Msg.Kind != warp.OutReplaceResponse
			if admit && cascade && respWaiting && c.cascadeInflight >= adm.maxCascade(c.pumpWorkers()) {
				// Cascade budget exhausted while responses wait: leave this
				// peer for a later pass so the reserved workers stay free
				// for the user-visible plane.
				skipPeer[peer] = true
				continue
			}
			l := limit
			if pl, ok := perPeer[peer]; ok {
				l = pl
			}
			if admit && adm.Burst > 0 && c.liveCalls[peer] > 0 && (l <= 0 || l > adm.Burst) {
				// The peer is serving our live traffic right now: trickle.
				l = adm.Burst
			}
			ps.inflight = true
			ps.limit = l
			if cascade && admit {
				c.cascadeInflight++
			}
			cl = &claimedBatch{peer: peer, limit: l, cascade: cascade && admit}
			byPeer[peer] = cl
			order = append(order, cl)
		}
		if cl.limit > 0 && len(cl.ptrs) >= cl.limit {
			continue
		}
		p.inflight = true
		cl.ptrs = append(cl.ptrs, p)
		cl.snap = append(cl.snap, *p)
		cl.gens = append(cl.gens, p.Gen)
	}
	for _, cl := range order {
		ids := make([]string, len(cl.ptrs))
		for i, p := range cl.ptrs {
			ids[i] = p.MsgID
		}
		c.walEmitClaimLocked(cl.peer, ids)
	}
	if c.met.reg != nil {
		claimNS := c.now().UnixNano()
		for _, cl := range order {
			for i := range cl.snap {
				s := &cl.snap[i]
				if s.TraceID == "" {
					continue
				}
				c.met.ring.Record(obs.Span{
					Wave: s.TraceID, Hop: s.TraceHop, Service: c.Svc.Name,
					Kind: obs.SpanClaim, Subject: s.DeliveryID, Peer: cl.peer,
					StartNS: claimNS, EndNS: claimNS,
				})
			}
		}
	}
	return order
}

// peerHasQueuedLocked reports whether any live queue entry is bound for the
// named peer.
func (c *Controller) peerHasQueuedLocked(peer string) bool {
	for _, q := range c.queue {
		if q.queued && c.peerDest(q.Msg) == peer {
			return true
		}
	}
	return false
}

// compactLocked drops dead entries (queued=false: delivered, gone) from the
// queue slice in one pass. Reconciliation only clears the flag, so a
// delivery pass costs one compaction per batch rather than one O(n) splice
// per delivered message.
func (c *Controller) compactLocked() {
	kept := c.queue[:0]
	for _, q := range c.queue {
		if q.queued {
			kept = append(kept, q)
		}
	}
	for i := len(kept); i < len(c.queue); i++ {
		c.queue[i] = nil
	}
	c.queue = kept
}

// deliverBatch delivers one claimed batch in FIFO order and reconciles each
// outcome. A peer-level failure (transport error: the peer is unreachable,
// so later messages would only repeat it) aborts the remainder of the batch
// and either advances the peer's backoff schedule or, with backoff
// disabled, charges a failed attempt to every remaining claimed message,
// parking those that exhaust MaxAttempts. A message-level failure (the peer
// answered, but with an unexpected status for this one message) charges
// only that message and the batch continues — one poisoned message must not
// block the peer's queue. Returns how many messages were delivered and
// removed.
func (c *Controller) deliverBatch(cl *claimedBatch) (delivered int) {
	var notes []Notification
	var heldMsgs []PendingMsg // parked in the final reconcile; emitted unlocked
	removed := 0              // dead entries this batch left in the queue slice
	failedAt := -1
	var failErr string

	for i := range cl.ptrs {
		c.sd.Yield()       // schedule point: about to deliver one claimed message
		snap := cl.snap[i] // private copy; deliver mutates LastErr/token
		// Span window around the wire call; pure clock reads either side,
		// no yields — instrumentation must not add schedule points.
		var dlvStart int64
		if c.met.reg != nil {
			dlvStart = c.now().UnixNano()
		}
		st := c.deliver(&snap)
		if c.met.reg != nil {
			dlvEnd := c.now().UnixNano()
			c.met.deliverNS.ObserveNS(dlvEnd - dlvStart)
			if snap.TraceID != "" {
				c.met.ring.Record(obs.Span{
					Wave: snap.TraceID, Hop: snap.TraceHop, Service: c.Svc.Name,
					Kind: obs.SpanDeliver, Subject: snap.DeliveryID, Peer: cl.peer,
					StartNS: dlvStart, EndNS: dlvEnd,
				})
			}
		}
		heldAttempts := 0

		// Gap NACKs get their own labeled decision point.
		if snap.nacked {
			c.sd.YieldNamed("vv-reoffer") // schedule point: peer NACKed a gap
		}

		c.sd.Yield() // schedule point: delivered, not yet reconciled
		c.qmu.Lock()
		p := cl.ptrs[i]
		// p.queued: still a live entry (it may have been Dropped since it
		// was claimed). fresh: the delivered content is still the queued
		// content. If a collapse or Retry replaced it mid-flight, the new
		// content must still go out, so the entry stays queued whatever
		// happened to the old one — and its reset LastErr is preserved.
		live := p.queued
		fresh := live && (p.Gen == cl.gens[i] || c.Cfg.FaultUngatedReconcile)
		if live {
			// Tokens are per-response and deliberately reused across
			// attempts and content revisions.
			p.token = snap.token
		}
		if fresh {
			p.LastErr = snap.LastErr
		}
		switch st {
		case deliverOK:
			if fresh {
				p.queued = false
				c.queueShrunkLocked()
				c.vvResolveLocked(cl.peer, p.DeliveryID)
				c.walEmitQDelLocked(p.MsgID)
				removed++
				delivered++
			} else if live {
				p.inflight = false
			}
		case deliverGone:
			if fresh {
				p.queued = false
				c.queueShrunkLocked()
				c.vvResolveLocked(cl.peer, p.DeliveryID)
				c.walEmitQDelLocked(p.MsgID)
				removed++
			} else if live {
				p.inflight = false
			}
		case deliverDenied:
			if live {
				if fresh {
					p.Held = true
					c.walEmitQSetLocked(p)
				}
				p.inflight = false
			}
		case deliverRetryMsg:
			// The peer is up but rejected this one message; charge it alone
			// and keep the batch going.
			if live {
				if fresh {
					p.Attempts++
					if p.Attempts >= c.Cfg.MaxAttempts {
						p.Held = true
						heldAttempts = p.Attempts
					}
					c.walEmitQSetLocked(p)
				}
				p.inflight = false
			}
		case deliverRetry:
			failedAt = i
			failErr = snap.LastErr
		}
		if snap.nacked {
			// The peer answered with a gap NACK: it is alive and missing a
			// delivery we still hold. Clear its backoff window and mark the
			// vector for re-offer stamping so the next pass (woken below)
			// re-delivers immediately instead of waiting out the schedule.
			c.vvNackLocked(cl.peer)
		}
		c.qmu.Unlock()

		// Reconcile span: the moment the claimed outcome was applied to the
		// queue entry. Subject stays the DeliveryID so obs.Waves can pair it
		// with the enqueue span for per-hop latency.
		if c.met.reg != nil && snap.TraceID != "" {
			recNS := c.now().UnixNano()
			c.met.ring.Record(obs.Span{
				Wave: snap.TraceID, Hop: snap.TraceHop, Service: c.Svc.Name,
				Kind: obs.SpanReconcile, Subject: snap.DeliveryID, Peer: cl.peer,
				StartNS: recNS, EndNS: recNS,
			})
		}

		switch st {
		case deliverOK:
			// Stale (superseded-in-flight) deliveries stay queued and land
			// again; count only the fresh one so stats match queue
			// accounting and the delivered return value.
			if fresh {
				c.smu.Lock()
				c.stats.MsgsDelivered++
				c.smu.Unlock()
				c.met.msgsDelivered.Inc()
				c.emit(EvMsgDelivered, snap.MsgID, "%s delivered to %s", snap.Msg.Kind, snap.Msg.Target)
			}
		case deliverGone:
			// Superseded-in-flight content stays queued for redelivery —
			// only a fresh outcome is terminal and worth reporting.
			if fresh {
				c.smu.Lock()
				c.stats.MsgsFailed++
				c.smu.Unlock()
				c.met.msgsFailed.Inc()
				notes = append(notes, Notification{
					MsgID: snap.MsgID, Kind: "gone", Target: snap.Msg.Target, RepairType: string(snap.Msg.Kind),
					Detail: "peer reports the request's logs were garbage-collected; repair is permanently unavailable: " + snap.LastErr,
				})
			}
		case deliverDenied:
			if fresh {
				c.emit(EvMsgHeld, snap.MsgID, "%s to %s held: unauthorized", snap.Msg.Kind, snap.Msg.Target)
				notes = append(notes, Notification{
					MsgID: snap.MsgID, Kind: "unauthorized", Target: snap.Msg.Target, RepairType: string(snap.Msg.Kind),
					Detail: "peer rejected repair message as unauthorized; refresh credentials and Retry: " + snap.LastErr,
				})
			}
		case deliverRetryMsg:
			if heldAttempts > 0 {
				// The peer is up; it rejected this one message. Distinct
				// from "unreachable" so the administrator debugs the
				// message, not connectivity.
				c.emit(EvMsgHeld, snap.MsgID, "%s to %s held: rejected after %d attempts", snap.Msg.Kind, snap.Msg.Target, heldAttempts)
				notes = append(notes, Notification{
					MsgID: snap.MsgID, Kind: "rejected", Target: snap.Msg.Target, RepairType: string(snap.Msg.Kind),
					Detail: fmt.Sprintf("peer rejected this message %d times; message held for Retry: %s", heldAttempts, snap.LastErr),
				})
			}
		}
		if st == deliverRetry {
			break
		}
	}

	c.sd.Yield() // schedule point: batch done, peer state not yet reconciled
	c.qmu.Lock()
	if removed > 0 {
		c.compactLocked()
	}
	if cl.cascade {
		c.cascadeInflight--
	}
	ps := c.peers[cl.peer]
	if failedAt >= 0 {
		ps.failures++
		if c.Cfg.Backoff.Enabled() {
			// Unreachable peers back off; their messages stay live. The
			// outage is tracked per peer (ps.failures), not charged to each
			// message's Attempts — otherwise a long outage would exhaust
			// every message's MaxAttempts budget and the first message-level
			// failure after recovery would park it instantly.
			ps.nextTry = c.now().Add(c.Cfg.Backoff.Delay(ps.failures))
			for j := failedAt; j < len(cl.ptrs); j++ {
				p := cl.ptrs[j]
				if !p.queued {
					continue
				}
				p.inflight = false
				if p.Gen == cl.gens[j] {
					p.LastErr = failErr
					c.walEmitQSetLocked(p)
				}
			}
			if ps.failures >= c.Cfg.MaxAttempts && !ps.notified {
				ps.notified = true
				notes = append(notes, Notification{
					Kind: "unreachable", Target: cl.peer, RepairType: string(cl.snap[failedAt].Msg.Kind),
					Detail: fmt.Sprintf("peer unreachable after %d attempts; retrying with backoff: %s", ps.failures, failErr),
				})
			}
		} else {
			// Legacy behavior: every remaining claimed message is charged a
			// failed attempt and parked once it exhausts MaxAttempts.
			for j := failedAt; j < len(cl.ptrs); j++ {
				p := cl.ptrs[j]
				if !p.queued {
					continue
				}
				p.inflight = false
				if p.Gen != cl.gens[j] && !c.Cfg.FaultUngatedReconcile {
					continue
				}
				p.Attempts++
				p.LastErr = failErr
				if p.Attempts >= c.Cfg.MaxAttempts {
					p.Held = true
					heldMsgs = append(heldMsgs, *p)
					notes = append(notes, Notification{
						MsgID: p.MsgID, Kind: "unreachable", Target: p.Msg.Target, RepairType: string(p.Msg.Kind),
						Detail: fmt.Sprintf("peer unreachable after %d attempts; message held for Retry: %s", p.Attempts, failErr),
					})
				}
				c.walEmitQSetLocked(p)
			}
		}
		ps.inflight = false
		// Backoff state is only meaningful while the peer still has
		// messages; if everything it had was dropped or terminated, drop
		// the bookkeeping too.
		if !c.peerHasQueuedLocked(cl.peer) {
			delete(c.peers, cl.peer)
		}
	} else {
		// The peer is healthy and its batch reconciled. While it still has
		// backlog, keep the entry (cleared to health) so the adaptive batch
		// limit carries into the next claim; once drained, drop it — the
		// zero state is equivalent to no entry, so per-peer bookkeeping
		// (e.g. one-shot poll:// clients) cannot accumulate forever, and the
		// batch limit resets to the policy's idle floor.
		ps.inflight = false
		ps.failures = 0
		ps.nextTry = time.Time{}
		ps.notified = false
		// A fully healthy reconcile means any gap the peer NACKed has been
		// re-offered; stop stamping the recovery mark.
		c.vvClearReofferLocked(cl.peer)
		if !c.peerHasQueuedLocked(cl.peer) {
			delete(c.peers, cl.peer)
		}
	}
	c.qmu.Unlock()

	for _, h := range heldMsgs {
		c.emit(EvMsgHeld, h.MsgID, "%s to %s held: unreachable after %d attempts", h.Msg.Kind, h.Msg.Target, h.Attempts)
	}
	for _, n := range notes {
		c.notify(n)
	}
	return delivered
}

// queueShrunkLocked records one live entry leaving the queue and wakes
// WaitQueueEmpty waiters when the last one goes. Callers hold qmu.
func (c *Controller) queueShrunkLocked() {
	c.qlive--
	c.met.queueDepth.Set(int64(c.qlive))
	if c.qlive == 0 {
		c.qcond.Broadcast()
	}
}

// WaitQueueEmpty blocks until the outgoing queue has no live messages (held
// or not) or the timeout elapses, reporting whether it emptied. It is the
// race-free way to wait out the background pump — tests and shutdown paths
// use it instead of sleep-polling QueueLen.
func (c *Controller) WaitQueueEmpty(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	expired := false
	timer := time.AfterFunc(timeout, func() {
		c.qmu.Lock()
		expired = true
		c.qmu.Unlock()
		c.qcond.Broadcast()
	})
	defer timer.Stop()
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for c.qlive > 0 && !expired && time.Now().Before(deadline) {
		c.qcond.Wait()
	}
	return c.qlive == 0
}

// Flush attempts one synchronous delivery pass over the outgoing queue and
// reports how many messages were delivered and how many remain. Batches are
// delivered serially in queue order, so Flush (and Settle on top of it) is
// deterministic; the background pump started with StartPump runs the same
// passes with batches to distinct peers in flight concurrently. Messages to
// unavailable peers stay queued (§3: asynchronous repair); messages refused
// as unauthorized or permanently unavailable are parked or dropped with an
// application notification. With Config.Backoff enabled, peers inside
// their retry window are skipped — delivered can be 0 while remaining > 0;
// such messages drain on a later pass (or pump tick) once the window
// elapses.
func (c *Controller) Flush() (delivered, remaining int) {
	// Unbounded claim: one Flush attempts every deliverable message, as the
	// legacy serial Flush did; BatchSize, BatchPolicy, and Admission only
	// shape the background pump.
	for _, cl := range c.claimBatches(0, nil, false) {
		delivered += c.deliverBatch(cl)
	}
	return delivered, c.QueueLen()
}

// releaseBatches hands claimed-but-undispatched batches back to the queue:
// entries and peers are marked not-inflight so a later pass (or Flush) can
// claim them again. Used when the pump shuts down while waiting for a
// worker slot.
func (c *Controller) releaseBatches(batches []*claimedBatch) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for _, cl := range batches {
		for _, p := range cl.ptrs {
			p.inflight = false
		}
		if ps := c.peers[cl.peer]; ps != nil {
			ps.inflight = false
		}
		if cl.cascade {
			c.cascadeInflight--
		}
	}
}

// wakePump nudges the background pump (non-blocking; no-op when the pump is
// not running). Callers may hold qmu: the pacer's Wake latches a flag (or
// does a non-blocking buffered send) and never blocks.
func (c *Controller) wakePump() {
	c.pumpMu.Lock()
	pacer := c.pumpPacer
	c.pumpMu.Unlock()
	if pacer != nil {
		pacer.Wake()
	}
}

// StartPump launches the background repair pump: a goroutine that delivers
// the outgoing queue continuously — on every enqueue, Retry, and at
// PumpInterval for backoff retries — fanning deliveries to distinct peers
// out over PumpWorkers concurrent workers while preserving per-peer FIFO
// order. With Config.BatchIncoming set, the pump also applies the incoming
// queue each pass (§3.2). The pump runs until ctx is cancelled or StopPump
// is called; either way the controller can StartPump again afterwards. It
// returns an error if the pump is already running.
func (c *Controller) StartPump(ctx context.Context) error {
	c.pumpMu.Lock()
	defer c.pumpMu.Unlock()
	if c.pumpCancel != nil {
		return fmt.Errorf("core: pump already running on %s", c.Svc.Name)
	}
	ctx, cancel := context.WithCancel(ctx)
	c.pumpCancel = cancel
	done := make(chan struct{})
	c.pumpDone = done
	pacer := c.sd.NewPacer(c.pumpInterval())
	c.pumpPacer = pacer
	c.sd.Go("pump:"+c.Svc.Name, func() { c.pumpLoop(ctx, done, pacer) })
	return nil
}

// StopPump stops the background pump and waits for in-flight deliveries to
// reconcile. It is a no-op if the pump is not running.
func (c *Controller) StopPump() {
	c.pumpMu.Lock()
	cancel, done := c.pumpCancel, c.pumpDone
	c.pumpCancel, c.pumpDone, c.pumpPacer = nil, nil, nil
	c.pumpMu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-done
}

// PumpRunning reports whether the background pump is active.
func (c *Controller) PumpRunning() bool {
	c.pumpMu.Lock()
	defer c.pumpMu.Unlock()
	return c.pumpCancel != nil
}

// StartPumps starts the background pump of every given controller and
// returns a stop function that shuts them all down again (waiting for
// in-flight deliveries to reconcile). If any pump fails to start — it is
// already running — the pumps started so far are stopped and the error
// returned.
func StartPumps(ctx context.Context, ctrls ...*Controller) (stop func(), err error) {
	for i, c := range ctrls {
		if err := c.StartPump(ctx); err != nil {
			for _, started := range ctrls[:i] {
				started.StopPump()
			}
			return nil, err
		}
	}
	return func() {
		for _, c := range ctrls {
			c.StopPump()
		}
	}, nil
}

// pumpLoop runs delivery passes continuously. Unlike Flush, a pass does
// not barrier on its batches: each claimed batch is handed to a worker
// slot and the loop immediately moves on, so one peer hanging for a full
// transport timeout cannot freeze delivery to other peers, periodic
// backoff retries, or StopPump's ability to decline further work. The
// per-peer and per-message inflight flags already make overlapping passes
// safe — claimBatches skips anything a slow worker still holds. StopPump
// still waits for workers holding claimed batches to reconcile.
//
// Every concurrency primitive comes from the controller's scheduler
// (Config.Sched): in production these are real goroutines, a channel
// semaphore, and a wall-clock ticker; under the deterministic simulator
// (internal/dsched) the same loop runs as a cooperative task whose worker
// interleavings and sleeps are chosen by a seeded schedule.
func (c *Controller) pumpLoop(ctx context.Context, done chan struct{}, pacer sched.Pacer) {
	wg := c.sd.NewGroup()
	defer func() {
		// Wait out in-flight deliveries so StopPump's "reconciled" promise
		// holds, then detach the lifecycle state so PumpRunning turns false
		// and StartPump works again without requiring a StopPump on an
		// already-dead pump. Detach before closing done: a waiter woken by
		// done must observe the pump as fully stopped.
		wg.Wait()
		pacer.Stop()
		c.pumpMu.Lock()
		if c.pumpDone == done {
			c.pumpCancel = nil
			c.pumpDone = nil
			c.pumpPacer = nil
		}
		c.pumpMu.Unlock()
		close(done)
	}()
	sem := c.sd.NewSem(c.pumpWorkers())
	for {
		c.sd.Yield() // schedule point: a pass is about to claim
		// Decide per-peer claim limits (adaptive batching) and admission
		// caps before claiming. Each decision sits at its own labeled yield
		// point, outside every lock, so the deterministic scheduler can
		// interleave enqueues, supersedes, and other pumps between the
		// snapshot and the claim that acts on it — the limits are advisory
		// caps, so any such race is benign.
		var limits map[string]int
		if c.Cfg.BatchPolicy != nil {
			backlogs := c.peerBacklogs()
			c.sd.YieldNamed("batch-policy") // schedule point: batch sizes decided
			limits = c.batchLimits(backlogs)
		}
		if c.Cfg.Admission.Enabled() {
			c.sd.YieldNamed("admission") // schedule point: admission caps about to apply
		}
		batches := c.claimBatches(c.batchSize(), limits, true)
		for i, cl := range batches {
			if !sem.Acquire(ctx) {
				// Shutting down with every worker busy: hand the remaining
				// claims back so nothing is stranded inflight.
				c.releaseBatches(batches[i:])
				return
			}
			wg.Add(1)
			cl := cl
			c.sd.Go("worker:"+c.Svc.Name+"->"+cl.peer, func() {
				defer wg.Done()
				c.deliverBatch(cl)
				sem.Release()
				// Capacity freed and (likely) a peer drained: nudge the
				// loop so that peer's next FIFO batch goes out promptly.
				c.wakePump()
			})
		}
		if c.Cfg.BatchIncoming {
			c.ProcessIncoming()
		}
		if !pacer.Wait(ctx) {
			return
		}
	}
}
