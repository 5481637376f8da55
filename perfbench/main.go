// Command perfbench is the repository's benchmark. It drives four named
// workloads through the system's public entry points from one process and
// prints one JSON result as the last line of its output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// observability registry and no benchmark spans. With --trace 1 it makes
// the traced run: wrappers around the services' handler boundaries, route
// handlers, outbound callers and WAL hooks record spans, which give the
// per-layer metrics and are written to a span file when the run ends.
// Build and run it with run.sh from the root of a checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef describes one reported metric. Per-layer metrics also name
// their layer and, where one applies, the end-to-end metric and workload
// they should move.
type metricDef struct {
	name, unit, better string
	layer, moves       string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. They are costs rather than wall-clock rates:
// on a shared virtual host the hypervisor steals CPU time from the
// process, and neighbours contend for the disk, which moves throughput,
// latency, set-up duration and system CPU time from run to run by more
// than a change to one layer would, while the process's user-mode CPU
// time stays put. So setup_s is the user-mode CPU time of a set-up and
// user_cpu_us_per_op that of an operation. The wall-clock numbers are
// printed beside them and are per-layer metrics of the traced run
// (wall.*).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "user_cpu_us_per_op", unit: "us", better: "lower"},
	{name: "heap_kb_per_op", unit: "KB", better: "lower"},
}

// perLayer are the metrics of the traced run. A layer a workload bypasses
// reports 0 there.
var perLayer = []metricDef{
	{"transport.client_call_us.p50", "us", "lower", "transport", "wall.op_p50_ms on mirror-write"},
	{"transport.client_call_us.p99", "us", "lower", "transport", "wall.op_p99_ms on mirror-write"},
	{"transport.adapter_self_us.p50", "us", "lower", "transport", "user_cpu_us_per_op on mirror-write"},
	{"transport.calls_per_op", "count", "lower", "transport", "user_cpu_us_per_op on mirror-write"},
	{"transport.carrier_share", "ratio", "lower", "transport", "user_cpu_us_per_op on mirror-write; separates repair-storm from mirror-write"},
	{"core.pre_handler_us.p50", "us", "lower", "core", "wall.op_p99_ms on mirror-write"},
	{"core.pre_handler_us.p99", "us", "lower", "core", "wall.op_p99_ms on mirror-write"},
	{"core.post_handler_us.p50", "us", "lower", "core", "user_cpu_us_per_op on mirror-write and askbot-read"},
	{"core.post_handler_us.p99", "us", "lower", "core", "user_cpu_us_per_op on mirror-write and askbot-read"},
	{"core.outbound_us.p50", "us", "lower", "core", "wall.op_p50_ms on mirror-write"},
	{"core.carrier_handle_us.p50", "us", "lower", "core/deliver", "repair.p50_ms on repair-storm"},
	{"core.carrier_handle_us.p99", "us", "lower", "core/deliver", "repair.p50_ms on repair-storm"},
	{"core.msgs_per_repair", "count", "lower", "core", "repair.p50_ms on repair-storm and askbot-repair"},
	{"pump.carrier_call_us.p50", "us", "lower", "core pump", "repair.p99_ms on repair-storm"},
	{"pump.carrier_call_us.p99", "us", "lower", "core pump", "repair.p99_ms on repair-storm"},
	{"pump.delivered_frac", "ratio", "higher", "core pump", "repair.p99_ms on repair-storm"},
	{"pump.queue_depth.max", "count", "lower", "core pump", "repair.p99_ms on repair-storm"},
	{"deliver.inbox_apply_frac", "ratio", "higher", "deliver", "repair.p50_ms on repair-storm"},
	{"shard.op_skew", "ratio", "lower", "core shard", "wall.ops_s on repair-storm"},
	{"app.handler_self_us.p50", "us", "lower", "web/apps", "user_cpu_us_per_op on askbot-read"},
	{"app.bare_ops_s", "ops/s", "higher", "web/apps, Table 4 baseline without Aire", ""},
	{"app.aire_overhead_pct", "%", "lower", "web/apps, Table 4 overhead (paper: 19% read, 30% write)", ""},
	{"repairlog.kb_per_op", "KB", "lower", "repairlog", "heap_kb_per_op on askbot-read"},
	{"repairlog.index_kb_per_op", "KB", "lower", "repairlog", "heap_kb_per_op on askbot-read"},
	{"vdb.kb_per_op", "KB", "lower", "vdb", "heap_kb_per_op on mirror-write"},
	{"vdb.index_kb_per_op", "KB", "lower", "vdb", "heap_kb_per_op on mirror-write"},
	{"wal.append_us.p50", "us", "lower", "wal", "user_cpu_us_per_op on mirror-write"},
	{"wal.append_us.p99", "us", "lower", "wal", "wall.op_p99_ms on mirror-write"},
	{"wal.fsync_us.p50", "us", "lower", "wal", "wall.ops_s on mirror-write"},
	{"wal.fsync_us.p99", "us", "lower", "wal", "wall.op_p99_ms on mirror-write"},
	{"wal.fsyncs_per_op", "count", "lower", "wal", "wall.ops_s and wall.op_p99_ms on mirror-write"},
	{"wal.disk_kb_per_op", "KB", "lower", "wal, bytes on disk per put", ""},
	{"persist.recover_s", "s", "lower", "persist", "setup_s on mirror-write"},
	{"warp.local_repair_ms", "ms", "lower", "warp", "repair.p50_ms and user_cpu_us_per_op on askbot-repair"},
	{"warp.reexec_requests", "count", "lower", "warp", "repair.p50_ms and user_cpu_us_per_op on askbot-repair"},
	{"warp.reexec_model_ops", "count", "lower", "warp", "repair.p50_ms and user_cpu_us_per_op on askbot-repair"},
	{"warp.reexec_frac", "ratio", "lower", "warp", "repair.p50_ms and user_cpu_us_per_op on askbot-repair"},
	{"repair.p50_ms", "ms", "lower", "repair plane, untraced: repair call to the last peer's application", ""},
	{"repair.p99_ms", "ms", "lower", "repair plane, untraced; 0 below 1000 repairs", ""},
	{"repair.samples", "count", "higher", "repair plane, repairs behind repair.p50_ms/p99_ms", ""},
	{"wall.ops_s", "ops/s", "higher", "end to end, untraced closed-loop throughput", ""},
	{"wall.op_p50_ms", "ms", "lower", "end to end, untraced client round trip", ""},
	{"wall.op_p99_ms", "ms", "lower", "end to end, untraced client round trip", ""},
	{"runtime.allocs_per_op", "count", "lower", "runtime", "user_cpu_us_per_op on askbot-read and mirror-write"},
	{"runtime.alloc_kb_per_op", "KB", "lower", "runtime", "user_cpu_us_per_op on askbot-read and mirror-write"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "runtime", "user_cpu_us_per_op on askbot-read and mirror-write"},
	{"trace.overhead_pct", "%", "lower", "benchmark, traced vs untraced wall.ops_s", ""},
}

// workload is one named traffic mix.
type workload struct {
	name, why string
	run       func(o options) (*report, error)
}

var workloads = []workload{
	{"askbot-read", "Table 4 read row: app handler, vdb scans and repair-log read dependencies do the work; no HTTP, WAL, pump or warp, so it is their bypass workload", runAskbotRead},
	{"mirror-write", "Table 4 write row as aireserve deploys it: HTTP adapter, hub lock across a 3-peer fan-out, log append, vdb put and WAL fsync; carriers are few", runMirror(mirrorWrite)},
	{"repair-storm", "Asynchronous repair plane under load: pump claim and batching, carrier HTTP, dedup inbox and carrier apply, and the shard router; carriers are a quarter or more of calls", runMirror(repairStorm)},
	{"askbot-repair", "Table 5: warp re-executes the affected multi-record slice with vdb historical reads and rollback across three services", runAskbotRepair},
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// ops, when positive, fixes the number of client operations (or
	// scenario iterations) per timed segment instead of its duration.
	ops int
	// out is the directory for WAL directories and span files.
	out string
}

func (o options) dur(frac float64) time.Duration {
	return time.Duration(o.seconds * frac * float64(time.Second))
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	// notes are printed before the metrics: sample counts and the numbers
	// that are reported beside the metrics.
	notes    []string
	env      environment
	spanFile string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run: askbot-read, mirror-write, repair-storm, askbot-repair, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are derived from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
	flag.Parse()
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: out}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var run []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	code := 0
	for _, w := range run {
		rep, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := printReport(w, o, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(rep.problems) > 0 {
			code = 1
		}
	}
	return code
}

func runWorkload(w workload, o options) (*report, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	rep, err := w.run(o)
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, d := range want {
		if _, ok := rep.metrics[d.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	if len(rep.metrics) != len(want) {
		return nil, errors.New("run reported metrics outside its metric set")
	}
	return rep, nil
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(w workload, o options, rep *report) error {
	mode := "end-to-end, tracing off"
	defs := endToEnd
	if o.trace {
		mode = "traced run, per-layer"
		defs = perLayer
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g (%s)\n", w.name, o.seed, o.seconds, mode)
	fmt.Printf("  why: %s\n", w.why)
	fmt.Printf("  env: %s\n", rep.env)
	for _, n := range rep.notes {
		fmt.Printf("  %s\n", n)
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rep.metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		switch {
		case d.moves != "":
			fmt.Printf("  %-30s %14.4f %-6s [%s -> %s]\n", d.name, v, d.unit, d.layer, d.moves)
		case d.layer != "":
			fmt.Printf("  %-30s %14.4f %-6s [%s]\n", d.name, v, d.unit, d.layer)
		default:
			fmt.Printf("  %-30s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if rep.spanFile != "" {
		fmt.Printf("  spans: %s\n", rep.spanFile)
	}
	for _, p := range rep.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeSpans writes the traced run's spans under o.out with a header
// naming the run, its environment and its per-layer metrics, and records
// the file in rep.
func writeSpans(tr *tracer, wl string, o options, rep *report) error {
	path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", wl, o.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	header := map[string]any{
		"workload": wl, "seed": o.seed, "seconds": o.seconds,
		"env": rep.env, "metrics": rep.metrics, "spans": len(tr.spans),
		"format": "one span per line: name, svc, peer, path, op, rid, start_ns and end_ns since the run began, parent (index among the spans, -1 for none), ok, self_ns",
	}
	if err := tr.write(path, header); err != nil {
		return err
	}
	rep.spanFile = path
	return nil
}
