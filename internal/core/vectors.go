package core

import (
	"sort"
	"strconv"
	"time"

	"aire/internal/deliver"
	"aire/internal/obs"
	"aire/internal/wire"
)

// This file is the sender side of the anti-entropy version-vector layer
// (the receive side lives in deliver.Inbox). Every delivery ID the
// controller mints carries a sequence from the service's shared monotonic
// counter ("svc-dlv-N"), so for each destination peer the controller can
// announce, on every stamped carrier:
//
//   - Aire-Acked-Seq: the highest sequence S such that every delivery this
//     service ever addressed to the peer with sequence <= S has been
//     resolved (acknowledged, gone, or dropped). Sequences are sparse per
//     peer — other peers consume counter values in between — but that is
//     exactly what makes the announcement cheap: the acked prefix is
//     min(outstanding)-1, or the frontier when nothing is outstanding.
//   - Aire-Frontier-Seq: the highest sequence ever addressed to the peer.
//
// The receiver compacts dedup-inbox entries at or below the acked prefix
// (they can never be asked about again) and classifies arrivals inside it
// as duplicates without consulting an entry; it detects gaps — a
// wholly-lost delivery none of whose retries ever arrived — against the
// announced vector and answers with Aire-Nack-Seq on the response. A NACK
// makes the sender clear the peer's backoff window and stamp Aire-Reoffer
// on subsequent attempts: the anti-entropy path that recovers a lost
// delivery without waiting out the exponential backoff horizon.
//
// Sender vectors are derived state: outstanding sequences mirror the
// outgoing queue exactly (issued when a delivery ID enters the queue,
// resolved when its message permanently leaves), and the delivery counter
// is persisted, so crash-recovery rebuilds them from the replayed queue —
// no sender-side WAL op is needed, and a freshly minted sequence always
// announces an acked prefix covering everything resolved before the crash.
// Receiver vectors ARE persisted (deliver.OriginDump acked/frontier plus
// the in-vv WAL op) so compaction never forgets an unacked delivery.

// peerVector is the sender's vector state for one destination peer.
// Guarded by qmu, like the queue it mirrors.
type peerVector struct {
	// out holds the sequences of queued (unresolved) deliveries to the peer.
	out map[uint64]bool
	// frontier is the highest sequence ever issued to the peer.
	frontier uint64
	// reoffer is set when the peer NACKed a gap and cleared once a batch to
	// the peer reconciles fully healthy; while set, stamped carriers carry
	// wire.HdrReoffer so the transport fabric (and the simulator's lostwave
	// fault class) treats them as anti-entropy recovery traffic.
	reoffer bool
}

// vvIssueLocked records a delivery ID entering the queue bound for peer.
// Idempotent (out is a set), so WAL replay's q-set upserts are safe.
// Caller holds qmu.
func (c *Controller) vvIssueLocked(peer, deliveryID string) {
	seq := deliver.Seq(deliveryID)
	if seq == 0 {
		return
	}
	pv := c.vectors[peer]
	if pv == nil {
		pv = &peerVector{out: map[uint64]bool{}}
		c.vectors[peer] = pv
	}
	pv.out[seq] = true
	if seq > pv.frontier {
		pv.frontier = seq
	}
}

// vvResolveLocked records a delivery permanently leaving the queue
// (delivered, gone, or dropped), advancing the peer's acked prefix.
// Caller holds qmu.
func (c *Controller) vvResolveLocked(peer, deliveryID string) {
	seq := deliver.Seq(deliveryID)
	if seq == 0 {
		return
	}
	if pv := c.vectors[peer]; pv != nil {
		delete(pv.out, seq)
	}
}

// announcement computes the (acked, frontier, reoffer) triple the next
// carrier to peer stamps. The acked prefix is min(outstanding)-1, or the
// frontier when nothing is outstanding.
//
// Re-offer stamping has two triggers. The fast one is a peer NACK
// (pv.reoffer): the receiver proved it is missing a delivery, so the very
// next attempt is marked recovery traffic. The slow one is the sender's own
// backoff horizon: once the peer's consecutive transport failures cross
// MaxAttempts, every carrier is stamped a re-offer unilaterally — the
// sender cannot distinguish an unreachable peer from a transport silently
// discarding this delivery's every retry, and a lost delivery at the head
// of the per-peer FIFO blocks the later carriers whose announcements would
// have revealed its gap, so no NACK can arrive to trigger the fast path.
// Caller holds qmu.
func (pv *peerVector) announcement(ps *peerState, maxAttempts int) (acked, frontier uint64, reoffer bool) {
	acked = pv.frontier
	for seq := range pv.out {
		if seq <= acked {
			acked = seq - 1
		}
	}
	reoffer = pv.reoffer || (ps != nil && ps.failures >= maxAttempts)
	return acked, pv.frontier, reoffer
}

// vvAnnouncement is the announcement for a carrier bound for peer. ok is
// false when nothing was ever issued to the peer — the carrier then
// announces nothing, so a receiver never sees a zero vector it might
// misread as "everything below my sequence is acked".
func (c *Controller) vvAnnouncement(peer string) (acked, frontier uint64, reoffer, ok bool) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	pv := c.vectors[peer]
	if pv == nil || pv.frontier == 0 {
		return 0, 0, false, false
	}
	acked, frontier, reoffer = pv.announcement(c.peers[peer], c.Cfg.MaxAttempts)
	return acked, frontier, reoffer, true
}

// vvNackLocked reacts to a peer's gap NACK: the peer proved it is alive
// and missing a delivery, so waiting out the backoff window would only
// delay recovery. Clear the window, mark the vector for re-offer stamping,
// and nudge the pump. Caller holds qmu.
func (c *Controller) vvNackLocked(peer string) {
	pv := c.vectors[peer]
	if pv == nil {
		return
	}
	pv.reoffer = true
	if ps := c.peers[peer]; ps != nil {
		ps.failures = 0
		ps.nextTry = time.Time{}
		ps.notified = false
	}
	c.met.vvReoffers.Inc()
	c.wakePump()
}

// vvClearReofferLocked drops the re-offer mark after a fully healthy batch
// reconcile — the gap the peer reported has been re-delivered (or resolved
// another way), so subsequent carriers go back to normal stamping. Caller
// holds qmu.
func (c *Controller) vvClearReofferLocked(peer string) {
	if pv := c.vectors[peer]; pv != nil {
		pv.reoffer = false
	}
}

// ---- receive side ----------------------------------------------------------

// verifyCarrierBody checks a carrier's body checksum (wire.HdrBodySum,
// stamped by stampDelivery on every repair-plane carrier with a payload).
// A mismatch means the body was corrupted in flight; the delivery is
// refused loudly and retryably (503 → the sender backs the peer off and a
// retry re-sends clean bytes) instead of being silently misapplied.
func (c *Controller) verifyCarrierBody(req wire.Request) *wire.Response {
	sum := req.Header[wire.HdrBodySum]
	if sum == "" || sum == wire.BodySum(req.Body) {
		return nil
	}
	c.met.corruptRejects.Inc()
	c.spanInboxVerdict(req, req.Header[wire.HdrDeliveryID], "corrupt")
	c.emit(EvDupDelivery, req.Header[wire.HdrDeliveryID],
		"carrier body checksum mismatch (want %s); delivery refused", sum)
	resp := wire.NewResponse(503, "aire: carrier body checksum mismatch; retry")
	return &resp
}

// observeCarrierVector feeds a carrier's announced version vector into the
// dedup inbox: compaction of the acked prefix, monotonic vector advance
// (WAL-logged so recovery never regresses below a compaction), and gap
// detection. Returns whether the receiver should NACK, and the first
// sequence it believes is missing (forensic; presence is the signal).
func (c *Controller) observeCarrierVector(from string, req wire.Request) (nack bool, missing uint64) {
	if c.Cfg.DisableDedupInbox {
		return false, 0
	}
	ackedHdr := req.Header[wire.HdrAckedSeq]
	if ackedHdr == "" {
		return false, 0
	}
	origin := from
	if origin == "" {
		origin = req.Header[wire.HdrOrigin]
	}
	if origin == "" {
		return false, 0
	}
	acked, _ := strconv.ParseUint(ackedHdr, 10, 64)
	frontier, _ := strconv.ParseUint(req.Header[wire.HdrFrontierSeq], 10, 64)
	curSeq := deliver.Seq(req.Header[wire.HdrDeliveryID])
	vo := c.dedup.ObserveVector(origin, acked, frontier, curSeq)
	if vo.Compacted > 0 {
		c.met.vvCompacted.Add(int64(vo.Compacted))
	}
	if vo.Advanced && c.walAttached() {
		c.walEmit("inbox", mustOp("in-vv", inVVOp{Origin: origin, Acked: acked, Frontier: frontier}), false)
	}
	if vo.Gap {
		c.met.vvGapNacks.Inc()
		c.spanVVGap(req, origin, vo.Acked+1)
		return true, vo.Acked + 1
	}
	return false, 0
}

// spanVVGap records one gap-detection span, correlated to the carrier's
// wave. No-op with obs disabled.
func (c *Controller) spanVVGap(req wire.Request, origin string, missing uint64) {
	if c.met.reg == nil {
		return
	}
	wave := req.Header[wire.HdrTraceID]
	hop := 0
	if wave != "" {
		hop, _ = strconv.Atoi(req.Header[wire.HdrTraceHop])
	}
	now := c.now().UnixNano()
	c.met.ring.Record(obs.Span{
		Wave: wave, Hop: hop, Service: c.Svc.Name,
		Kind: obs.SpanInbox, Subject: "gap-nack", Peer: origin + "#" + strconv.FormatUint(missing, 10),
		StartNS: now, EndNS: now,
	})
}

// InboxHighWater reports the dedup inbox's high-water entry count — the
// compaction memory bound the vector tests assert on.
func (c *Controller) InboxHighWater() int { return c.dedup.HighWater() }

// PeerVectorDump is one destination peer's sender-side vector state as seen
// by debug surfaces (aireserve's /aire/debug/vectors).
type PeerVectorDump struct {
	Peer string `json:"peer"`
	// Acked is the prefix the next carrier to the peer would announce.
	Acked uint64 `json:"acked"`
	// Frontier is the highest sequence ever issued to the peer.
	Frontier uint64 `json:"frontier"`
	// Outstanding counts queued (unresolved) deliveries to the peer.
	Outstanding int `json:"outstanding"`
	// Reoffer reports that the next carriers will be stamped as
	// anti-entropy recovery traffic (peer NACK or backoff horizon).
	Reoffer bool `json:"reoffer"`
}

// VectorDump snapshots the sender-side version vectors for every peer,
// sorted by peer name.
func (c *Controller) VectorDump() []PeerVectorDump {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	names := make([]string, 0, len(c.vectors))
	for name := range c.vectors {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]PeerVectorDump, 0, len(names))
	for _, name := range names {
		pv := c.vectors[name]
		acked, frontier, reoffer := pv.announcement(c.peers[name], c.Cfg.MaxAttempts)
		out = append(out, PeerVectorDump{
			Peer: name, Acked: acked, Frontier: frontier,
			Outstanding: len(pv.out), Reoffer: reoffer,
		})
	}
	return out
}
