package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"aire/internal/core"
)

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// percentile is the nearest-rank q-quantile of vals (0 when empty).
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of vals (the mean of the two middle ones for
// an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memSnap is a reading of the Go runtime's counters and the process's
// CPU time.
type memSnap struct {
	heap, mallocs, totalAlloc uint64
	gcCPU, totalCPU           float64
	user, sys                 time.Duration
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	snap := memSnap{heap: ms.HeapAlloc, mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc}
	snap.user, snap.sys = processCPU()
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = samples[1].Value.Float64()
	}
	return snap
}

// collect forces two collections, so the heap reading that follows is the
// live heap; the second frees what sync.Pool victim caches kept alive
// through the first.
func collect() {
	runtime.GC()
	runtime.GC()
}

// phaseStart reads the counters as a timed phase begins, after collecting.
func phaseStart() memSnap {
	collect()
	return readMem()
}

// phaseEnd reads the counters as a timed phase ends: CPU time before the
// collection, so the collection's own work stays outside the phase.
func phaseEnd() memSnap {
	user, sys := processCPU()
	collect()
	snap := readMem()
	snap.user, snap.sys = user, sys
	return snap
}

// processCPU is the CPU time the process has used in user and in system
// mode. Time the hypervisor steals from the host's virtual CPUs is in
// neither.
func processCPU() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// setupClock times one set-up from a collected heap: the user-mode CPU
// time it takes, which setup_s reports for the same reason
// user_cpu_us_per_op is user-mode, and its wall-clock duration.
type setupClock struct {
	user time.Duration
	t0   time.Time
}

func startSetup() setupClock {
	collect()
	user, _ := processCPU()
	return setupClock{user: user, t0: time.Now()}
}

// stop returns the set-up's user-mode CPU time and wall-clock duration.
func (c setupClock) stop() (cpu, wall time.Duration) {
	wall = time.Since(c.t0)
	user, _ := processCPU()
	return user - c.user, wall
}

// setupMetric stores setup_s as the median user-mode CPU time of the
// set-ups and notes their median wall-clock duration.
func setupMetric(rep *report, cpu, wall []float64, what string) {
	rep.metrics["setup_s"] = median(cpu)
	rep.notef("setup_s is the median user-mode CPU time of %d set-ups (%s); their median wall-clock time was %.4f s", len(cpu), what, median(wall))
}

// costMetrics stores the end-to-end costs of ops operations done between
// phaseStart a and phaseEnd b, and notes the system CPU time beside them.
func costMetrics(rep *report, a, b memSnap, ops int) {
	rep.metrics["user_cpu_us_per_op"] = userUSPerOp(a, b, ops)
	rep.metrics["heap_kb_per_op"] = heapKBPerOp(a, b, ops)
	rep.notef("system CPU: %.1f us per operation (not gated: it moves with the host's I/O and scheduling)", sysUSPerOp(a, b, ops))
}

// userUSPerOp is the user-mode CPU time per operation: the process's own
// work, which stays put while the host's contention moves wall-clock
// figures and system time.
func userUSPerOp(a, b memSnap, ops int) float64 { return ratio(us(b.user-a.user), float64(ops)) }

func sysUSPerOp(a, b memSnap, ops int) float64 { return ratio(us(b.sys-a.sys), float64(ops)) }

// runtimeMetrics stores the allocation and GC cost of ops operations done
// between a and b.
func runtimeMetrics(m map[string]float64, a, b memSnap, ops int) {
	m["runtime.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), float64(ops))
	m["runtime.alloc_kb_per_op"] = ratio(float64(b.totalAlloc-a.totalAlloc)/1024, float64(ops))
	m["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// heapKBPerOp is the live-heap growth between two collected readings per
// operation.
func heapKBPerOp(a, b memSnap, ops int) float64 {
	return ratio((float64(b.heap)-float64(a.heap))/1024, float64(ops))
}

// counters are the public counters of a set of controllers.
type counters struct {
	logBytes, logIndex, dbBytes, dbIndex int64
	msgs, inboxCommits, dups, stale      int64
	reexecReqs, reexecOps, totalReqs     int
	localRepair                          time.Duration
	requests                             []int64
}

func readCounters(ctrls []*core.Controller) counters {
	var c counters
	for _, ctrl := range ctrls {
		svc := ctrl.Svc
		c.logBytes += svc.Log.AppBytes()
		c.logIndex += svc.Log.IndexBytes()
		c.dbBytes += svc.Store.VersionBytes()
		c.dbIndex += svc.Store.IndexBytes()
		st := ctrl.Stats()
		c.msgs += st.MsgsDelivered
		c.inboxCommits += st.InboxCommits
		c.dups += st.DupDeliveries
		c.stale += st.StaleDeliveries
		c.requests = append(c.requests, st.Requests)
		rr, tr, ro, _ := ctrl.RepairCounts()
		c.reexecReqs += rr
		c.reexecOps += ro
		c.totalReqs += tr
		c.localRepair += ctrl.RepairDuration()
	}
	return c
}

// counterMetrics stores the per-layer metrics read from the counters of
// ops operations and repairs issued between a and b.
func counterMetrics(m map[string]float64, a, b counters, ops, repairs int) {
	kb := func(x, y int64) float64 { return ratio(float64(y-x)/1024, float64(ops)) }
	m["repairlog.kb_per_op"] = kb(a.logBytes, b.logBytes)
	m["repairlog.index_kb_per_op"] = kb(a.logIndex, b.logIndex)
	m["vdb.kb_per_op"] = kb(a.dbBytes, b.dbBytes)
	m["vdb.index_kb_per_op"] = kb(a.dbIndex, b.dbIndex)
	m["core.msgs_per_repair"] = ratio(float64(b.msgs-a.msgs), float64(repairs))
	verdicts := (b.inboxCommits - a.inboxCommits) + (b.dups - a.dups) + (b.stale - a.stale)
	m["deliver.inbox_apply_frac"] = ratio(float64(b.inboxCommits-a.inboxCommits), float64(verdicts))
	m["warp.local_repair_ms"] = ratio(float64(b.localRepair-a.localRepair)/1e6, float64(repairs))
	m["warp.reexec_requests"] = ratio(float64(b.reexecReqs-a.reexecReqs), float64(repairs))
	m["warp.reexec_model_ops"] = ratio(float64(b.reexecOps-a.reexecOps), float64(repairs))
	m["warp.reexec_frac"] = ratio(float64(b.reexecReqs-a.reexecReqs), float64(b.totalReqs))
}

// opSkew is the ratio of the most to the fewest requests any of the
// first n controllers served between a and b.
func opSkew(a, b counters, n int) float64 {
	lo, hi := int64(-1), int64(0)
	for i := 0; i < n; i++ {
		d := b.requests[i] - a.requests[i]
		hi = max(hi, d)
		if lo < 0 || d < lo {
			lo = d
		}
	}
	return ratio(float64(hi), float64(lo))
}

// wall is the wall-clock view of a timed segment: completed operations
// per second and the client round trip's percentiles.
type wall struct {
	ops          int
	opsS         float64
	p50ms, p99ms float64
}

func wallOf(ops int, lat []float64, elapsed time.Duration) wall {
	return wall{ops: ops, opsS: ratio(float64(ops), elapsed.Seconds()),
		p50ms: percentile(lat, 0.50) / 1e3, p99ms: percentile(lat, 0.99) / 1e3}
}

func (w wall) note(rep *report) {
	rep.notef("wall clock: ops_s %.1f ops/s, op_p50_ms %.3f ms, op_p99_ms %.3f ms over %d operations (closed loop, %d clients)",
		w.opsS, w.p50ms, w.p99ms, w.ops, clients())
}

func (w wall) store(m map[string]float64) {
	m["wall.ops_s"], m["wall.op_p50_ms"], m["wall.op_p99_ms"] = w.opsS, w.p50ms, w.p99ms
}

// interleave alternates rounds of bare and Aire passes, swapping which
// side goes first every round, and returns each side's operations per
// second over all its passes.
func interleave(rounds int, bare, aire func(round int) (int, time.Duration)) (bareRate, aireRate float64) {
	var bOps, aOps int
	var bDur, aDur time.Duration
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			n, d := bare(r)
			bOps, bDur = bOps+n, bDur+d
			n, d = aire(r)
			aOps, aDur = aOps+n, aDur+d
		} else {
			n, d := aire(r)
			aOps, aDur = aOps+n, aDur+d
			n, d = bare(r)
			bOps, bDur = bOps+n, bDur+d
		}
	}
	return ratio(float64(bOps), bDur.Seconds()), ratio(float64(aOps), aDur.Seconds())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// splitmix is the SplitMix64 step: a cheap, well-mixed hash for deriving
// inputs from the seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// word returns n pseudo-random letters and digits drawn from h.
func word(h uint64, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		h = splitmix(h)
		b[i] = alphabet[h%uint64(len(alphabet))]
	}
	return string(b)
}

// environment describes where a result was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	WALFS      string `json:"wal_fs,omitempty"`
	Revision   string `json:"vcs_revision,omitempty"`
	Source     string `json:"source_sha256"`
	Note       string `json:"note,omitempty"`
}

func readEnvironment(walDir string) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Source:     sourceDigest("."),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Revision += "+modified"
				}
			}
		}
	}
	if walDir != "" {
		env.WALFS = fsName(walDir)
		env.Note = "WAL fsync latency is what this host's virtualised storage delivers, not a physical device's"
	}
	return env
}

func (e environment) String() string {
	s := fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s", e.NumCPU, e.GOMAXPROCS, e.GoVersion)
	if e.WALFS != "" {
		s += " wal_fs=" + e.WALFS
	}
	if e.Revision != "" {
		s += " commit=" + e.Revision
	}
	s += " source_sha256=" + e.Source[:16]
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}

// fsName names the filesystem holding dir from its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext2/3/4",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	magic := int64(st.Type)
	if n, ok := names[magic]; ok {
		return fmt.Sprintf("%s (statfs magic %#x)", n, magic)
	}
	return fmt.Sprintf("statfs magic %#x", magic)
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories, so a result names the code it measured even where the
// checkout carries no version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
