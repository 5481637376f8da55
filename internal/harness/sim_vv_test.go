package harness

// Anti-entropy acceptance tests: the version-vector layer's lost-delivery
// recovery, its exactly-once guarantee with a dedup inbox bounded by ack
// compaction alone, corruption rejection, and crash-kills landing inside the claim
// window. The lostwave profile's curse (simnet.FaultPlan.Lost with
// LostTicks 0) silently discards a delivery and every one of its retries
// for the whole run, so backoff-driven redelivery is structurally useless:
// only a carrier stamped Aire-Reoffer — which only the vector layer ever
// stamps — gets through. That is the fault class the paper's at-least-once
// retry argument is silent about, and the one these tests pin down.

import (
	"reflect"
	"strings"
	"testing"
)

// lostwaveConfig is the lostwave profile, optionally with the fault
// fabric stripping the vector announcement (simnet.FaultPlan.StripVectors).
func lostwaveConfig(t *testing.T, seed int64, strip bool) SimConfig {
	t.Helper()
	cfg, err := SimProfileConfig("lostwave")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = seed
	cfg.Faults.StripVectors = strip
	return cfg
}

// TestLostWaveStallsWithoutVectors is the teeth check: with the fabric
// stripping every vector announcement, NACK and re-offer mark, the
// lostwave curse genuinely defeats convergence — the run fails to quiesce
// within MaxRounds even though every round elapses the full backoff
// schedule (each idle round advances the virtual clock past Backoff.Max,
// so ~100 rounds is far beyond the backoff horizon). The identical
// schedule replays verbatim, and turning the strip off makes the same seed
// converge — proving the recovery is the vector layer's NACK/re-offer
// path, not luck.
func TestLostWaveStallsWithoutVectors(t *testing.T) {
	const seed = 1
	cfg := lostwaveConfig(t, seed, true)
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatalf("seed %d converged with vectors stripped; the lostwave curse has lost its teeth", seed)
	}
	stalled := false
	for _, f := range res.Failures {
		if strings.Contains(f, "did not quiesce") {
			stalled = true
		}
	}
	if !stalled {
		t.Fatalf("seed %d failed, but not by stalling past the backoff horizon: %v", seed, res.Failures)
	}
	t.Logf("vectors-stripped stall demonstrated (replay: go run ./cmd/airesim -profile lostwave -novectors -seeds %d -v): %v", seed, res.Failures[0])

	again, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("failing lostwave schedule did not replay identically")
	}

	fixed, err := RunSim(lostwaveConfig(t, seed, false))
	if err != nil {
		t.Fatal(err)
	}
	if !fixed.Passed {
		t.Fatalf("seed %d fails even with vectors announced: %v", seed, fixed.Failures)
	}
	if fixed.Rounds >= res.Rounds {
		t.Fatalf("unstripped run quiesced in %d rounds, no better than the stalled run's %d", fixed.Rounds, res.Rounds)
	}
}

// TestLostWaveRecoversEverySeed: lostwave converges across the full
// 20-seed band, serial and scheduled — the wholly-lost delivery is
// recovered in bounded simulated time on every seed where the
// vectors-stripped sweep (see the teeth check above, and
// `airesim -novectors -expect-fail`) demonstrably stalls.
func TestLostWaveRecoversEverySeed(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runSeed(t, "lostwave", seed)
		runSchedSeed(t, "lostwave", seed)
	}
}

// TestTinyInboxExactlyOnce: exactly-once must hold with a dedup inbox
// that has no capacity bound at all — acked-prefix compaction is the only
// thing that releases entries — across seeds 1–20 of the lostwave, crash,
// stale and dupcreate profiles, serial and scheduled. The sender's
// announcements release entries the peer can never be asked about again,
// entries for unresolved deliveries are never dropped, and arrivals inside
// the acked prefix are classified from the vector. The high-water
// assertion is the memory half of the claim: the inbox never balloons,
// because outstanding (unacked) deliveries are bounded by in-flight
// claims, not by run length.
func TestTinyInboxExactlyOnce(t *testing.T) {
	// An absolute bound far below the per-origin delivery counts these
	// profiles generate.
	const highWaterBound = 12
	for _, profile := range []string{"lostwave", "crash", "stale", "dupcreate"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				for _, sched := range []bool{false, true} {
					cfg, err := SimProfileConfig(profile)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Seed = seed
					cfg.ScheduledPump = sched
					res, err := RunSim(cfg)
					if err != nil {
						t.Fatalf("seed %d sched=%v: %v", seed, sched, err)
					}
					if !res.Passed {
						t.Errorf("seed %d sched=%v: exactly-once broke: %v", seed, sched, res.Failures)
					}
					if res.InboxHighWater > highWaterBound {
						t.Errorf("seed %d sched=%v: inbox high-water %d exceeds %d; compaction is not bounding memory", seed, sched, res.InboxHighWater, highWaterBound)
					}
				}
			}
		})
	}
}

// TestKillInsideClaimWindow: crash events kill the crashed service's pump
// and worker tasks at whatever yield point they are parked — including a
// worker inside the claim window, its delivery sent but not reconciled,
// its deferred cleanup never run — and the service is rebuilt purely from
// checkpoint + WAL replay. Exactly-once must hold anyway: the replayed
// queue re-derives the sender's vectors, the peer's persisted inbox
// absorbs the orphaned delivery's redelivery, and the oracle's create
// workload would expose any double-mint. The sweep must actually kill at
// least one *worker* (not just parked pump loops) or the claim-window
// claim is untested — dsched records every kill in the schedule trace.
func TestKillInsideClaimWindow(t *testing.T) {
	base := SimConfig{
		Services: 3, Topology: "chain", Repairs: 5, Rerepairs: 2, Creates: 2,
		CrashRate: 0.15, ScheduledPump: true,
		WAL: true, WALFsync: "every", WALPowerLoss: true,
		killCrashes: true,
	}
	workerKills, pumpKills := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		cfg := base
		cfg.Seed = seed
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Passed {
			t.Errorf("seed %d: kill-crash run failed the oracle: %v", seed, res.Failures)
		}
		for _, step := range res.SchedTrace {
			if strings.HasPrefix(step, "kill:worker:") {
				workerKills++
			}
			if strings.HasPrefix(step, "kill:pump:") {
				pumpKills++
			}
		}
	}
	if pumpKills == 0 {
		t.Fatal("no crash event killed a pump task across 12 seeds; kill-crashes are not firing")
	}
	if workerKills == 0 {
		t.Fatal("no crash event caught a delivery worker inside the claim window across 12 seeds; the test is vacuous")
	}
	t.Logf("killed %d pump tasks and %d in-claim-window workers across 12 seeds, all converged", pumpKills, workerKills)
}

// TestVVSchedDigestDeterminism: a scheduled lostwave run is a pure
// function of its seed, and the obs registry is digest-neutral over the
// new instrumentation (gap spans, vv counters) exactly as it is over the
// old. The obs run must also show the anti-entropy machinery actually
// firing — compactions always, and across the seed band at least one gap
// NACK answered with a sender re-offer (the fast path; the slow
// backoff-horizon escalation is covered by every lostwave recovery).
func TestVVSchedDigestDeterminism(t *testing.T) {
	sawNack, sawReoffer, sawCompaction := false, false, false
	for seed := int64(1); seed <= 10; seed++ {
		cfg := lostwaveConfig(t, seed, false)
		cfg.ScheduledPump = true
		r1, err1 := RunSim(cfg)
		r2, err2 := RunSim(cfg)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: %v / %v", seed, err1, err2)
		}
		if r1.StateDigest != r2.StateDigest || !reflect.DeepEqual(r1.SchedTrace, r2.SchedTrace) {
			t.Fatalf("seed %d: scheduled lostwave run is not deterministic", seed)
		}
		obsCfg := cfg
		obsCfg.Obs = true
		ro, err := RunSim(obsCfg)
		if err != nil {
			t.Fatalf("seed %d (obs): %v", seed, err)
		}
		if ro.StateDigest != r1.StateDigest || ro.SchedSteps != r1.SchedSteps {
			t.Errorf("seed %d: obs changed the lostwave digest (%x vs %x) or steps (%d vs %d)",
				seed, ro.StateDigest, r1.StateDigest, ro.SchedSteps, r1.SchedSteps)
		}
		for name, v := range ro.ObsMetrics.Counters {
			if v == 0 {
				continue
			}
			switch {
			case strings.HasSuffix(name, ".vv_gap_nacks"):
				sawNack = true
			case strings.HasSuffix(name, ".vv_reoffers"):
				sawReoffer = true
			case strings.HasSuffix(name, ".vv_compacted"):
				sawCompaction = true
			}
		}
	}
	if !sawCompaction {
		t.Error("no seed recorded an acked-prefix compaction; the vector layer is not releasing inbox entries")
	}
	if !sawNack || !sawReoffer {
		t.Errorf("gap-NACK fast path never fired across 10 lostwave seeds (nack=%v reoffer=%v)", sawNack, sawReoffer)
	}
}

// TestCorruptCarriersRejectedLoudly: the corrupt profile's byte-flipped
// bodies must be refused by the checksum (visible as corrupt_rejects in
// the metrics) and never applied — every seed converges because the 503
// drives a clean retry. A corrupted body that slipped through would
// surface as oracle divergence (the flipped byte lands in a stored value).
func TestCorruptCarriersRejectedLoudly(t *testing.T) {
	rejects := int64(0)
	for seed := int64(1); seed <= 10; seed++ {
		cfg, err := SimProfileConfig("corrupt")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = seed
		cfg.Obs = true
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Passed {
			t.Errorf("seed %d: corrupt profile diverged: %v", seed, res.Failures)
		}
		for name, v := range res.ObsMetrics.Counters {
			if strings.HasSuffix(name, ".corrupt_rejects") {
				rejects += v
			}
		}
	}
	if rejects == 0 {
		t.Error("no corrupted carrier was ever rejected across 10 seeds; the checksum gate is not in the path")
	}
	t.Logf("%d corrupted carriers rejected by checksum across 10 seeds", rejects)
}
