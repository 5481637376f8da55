package main

import (
	"encoding/json"
	"os"
	"testing"
)

// traced makes one traced run of w with a fixed number of operations per
// segment and fails the test on any failed check.
func traced(t *testing.T, w workload, ops int) map[string]float64 {
	t.Helper()
	rep, err := runWorkload(w, options{seed: 7, seconds: 60, trace: true, ops: ops, out: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if len(rep.problems) > 0 || rep.failed > 0 {
		t.Fatalf("%s: %d of %d operations failed; checks: %v", w.name, rep.failed, rep.attempted, rep.problems)
	}
	return rep.metrics
}

func find(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %s", name)
	return workload{}
}

// TestCountsRepeat runs each workload twice with one seed and a fixed
// operation count: the counts a later change may claim must repeat
// exactly.
func TestCountsRepeat(t *testing.T) {
	cases := []struct {
		workload string
		ops      int
		counts   []string
	}{
		{"askbot-read", 40, []string{"repairlog.kb_per_op", "repairlog.index_kb_per_op", "vdb.kb_per_op", "vdb.index_kb_per_op"}},
		{"mirror-write", 100, []string{"core.msgs_per_repair", "warp.reexec_requests", "warp.reexec_model_ops"}},
		{"askbot-repair", 1, []string{"core.msgs_per_repair", "warp.reexec_requests", "warp.reexec_model_ops", "warp.reexec_frac",
			"repairlog.kb_per_op", "vdb.kb_per_op"}},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			w := find(t, c.workload)
			a, b := traced(t, w, c.ops), traced(t, w, c.ops)
			for _, k := range c.counts {
				if a[k] != b[k] {
					t.Errorf("%s differs between two runs with one seed: %v, then %v", k, a[k], b[k])
				}
			}
			if c.workload != "askbot-read" && a["core.msgs_per_repair"] == 0 {
				t.Errorf("no repair messages counted")
			}
		})
	}
}

// TestRepairStormShape checks the property that separates repair-storm
// from mirror-write: carriers are about a quarter of the HTTP requests
// (3 of every 12), and the shard router spreads puts over both shards.
func TestRepairStormShape(t *testing.T) {
	storm := traced(t, find(t, "repair-storm"), 200)
	if share := storm["transport.carrier_share"]; share < 0.2 {
		t.Errorf("repair-storm carrier share %.3f, want about 0.25", share)
	}
	if skew := storm["shard.op_skew"]; skew < 1 || skew > 2 {
		t.Errorf("repair-storm shard skew %.3f, want within [1, 2]", skew)
	}
	if got := storm["core.msgs_per_repair"]; got != mirrorPeers {
		t.Errorf("repair-storm sends %v messages per repair, want one per peer (%d)", got, mirrorPeers)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %v, the program %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
