package harness

import (
	"strings"
	"testing"
)

// TestShardN1DigestsPinned pins the unsharded path: with Shards unset (0)
// or 1, the full StateDigest — state lines, fault trace, scheduler steps,
// scheduler trace — must stay byte-identical to the digests these
// seed/profile combinations produced before the shard layer existed. Any
// drift here means the shard refactor perturbed the legacy code path. The
// mixed pins are the digests of that pre-shard path with version vectors
// on, which became unconditional after the pins were first taken.
func TestShardN1DigestsPinned(t *testing.T) {
	cases := []struct {
		prof  string
		seed  int64
		sched bool
		want  uint64
	}{
		{"mixed", 7, false, 9846801934082458047},
		{"mixed", 7, true, 3232967748548286238},
		{"lostwave", 3, false, 7605751958774188957},
		{"lostwave", 3, true, 5345738023838111687},
		{"crash", 5, false, 11845775653790173362},
	}
	for _, tc := range cases {
		for _, shards := range []int{0, 1} {
			cfg, err := SimProfileConfig(tc.prof)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = tc.seed
			cfg.ScheduledPump = tc.sched
			cfg.Shards = shards
			res, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.StateDigest != tc.want {
				t.Errorf("%s s%d sched=%v shards=%d: digest %d, want pre-shard digest %d",
					tc.prof, tc.seed, tc.sched, shards, res.StateDigest, tc.want)
			}
		}
	}
}

// TestShardInvariantDigest is the tentpole's convergence gate: the same
// seed and workload must converge to the same oracle state (the state-only
// OracleDigest — shard layout is an implementation detail, so the full
// StateDigest legitimately differs across N) for N ∈ {1, 2, 4} under every
// fault profile, serial and under the deterministic scheduler.
func TestShardInvariantDigest(t *testing.T) {
	type mode struct {
		seed  int64
		sched bool
	}
	modes := []mode{{1, false}, {2, false}, {3, false}, {1, true}}
	for _, prof := range SimProfileNames() {
		for _, m := range modes {
			var ref uint64
			for _, shards := range []int{1, 2, 4} {
				cfg, err := SimProfileConfig(prof)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Seed = m.seed
				cfg.ScheduledPump = m.sched
				cfg.Shards = shards
				res, err := RunSim(cfg)
				if err != nil {
					t.Fatalf("%s s%d sched=%v shards=%d: %v", prof, m.seed, m.sched, shards, err)
				}
				if !res.Passed {
					t.Errorf("%s s%d sched=%v shards=%d: did not converge: %v",
						prof, m.seed, m.sched, shards, res.Failures)
					continue
				}
				if shards == 1 {
					ref = res.OracleDigest
				} else if res.OracleDigest != ref {
					t.Errorf("%s s%d sched=%v: oracle digest diverges across shard counts: N=1 %d, N=%d %d",
						prof, m.seed, m.sched, ref, shards, res.OracleDigest)
				}
			}
		}
	}
}

// TestShardSchedTraceYieldLabels checks the shard layer's dsched yield
// discipline: the router's admission point and the sender's gate resolution
// surface as named entries in the schedule trace when the world is sharded,
// and stay absent (so existing seed digests are untouched) when it is not.
func TestShardSchedTraceYieldLabels(t *testing.T) {
	cfg, err := SimProfileConfig("mixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	cfg.ScheduledPump = true
	cfg.Shards = 4
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := strings.Join(res.SchedTrace, "\n")
	for _, label := range []string{"@shard-route", "@shard-gate"} {
		if !strings.Contains(trace, label) {
			t.Errorf("schedule trace has no %q yield point (world sharded)", label)
		}
	}

	cfg.Shards = 1
	res, err = RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace = strings.Join(res.SchedTrace, "\n")
	for _, label := range []string{"@shard-route", "@shard-gate"} {
		if strings.Contains(trace, label) {
			t.Errorf("schedule trace contains %q although the world is unsharded", label)
		}
	}
}
