# Aire — asynchronous intrusion recovery for interconnected web services.
# CI (.github/workflows/ci.yml) runs exactly these targets; run `make ci`
# locally to reproduce the full gate.

GO ?= go

# Fault-injection simulation sweep (internal/simnet + cmd/airesim).
# SIM_SEEDS is "lo:hi" (inclusive) or "3,7,19"; SIM_PROFILE is one of
# `go run ./cmd/airesim -profiles` (drop, duplicate, delay, partition,
# crash, mixed, stale, dupcreate, lostwave, corrupt). CI runs a short
# fixed-seed matrix; longer local sweeps:
#   make sim SIM_PROFILE=mixed SIM_SEEDS=1:1000
# Anti-entropy teeth (ISSUE 9) — the lostwave curse with the fault fabric
# stripping the version-vector headers (simnet.FaultPlan.StripVectors):
#   go run ./cmd/airesim -profile lostwave -novectors -seeds 1:20 -expect-fail
SIM_SEEDS ?= 1:20
SIM_PROFILE ?= mixed
# SIM_SHARDS splits every faulted service N ways behind the key-hash
# router (ISSUE 10); the convergence oracle is shard-count-invariant.
SIM_SHARDS ?= 0

.PHONY: all build test race bench bench-json bench5 bench5-scale bench-obs bench-allocs fmt fmt-fix vet lint ci sim sim-sched durability fuzz-wal

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bench smoke: compile and run every benchmark once (no timing fidelity —
# catches rot, not regressions). Full runs: go test -bench . -benchmem
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Machine-readable repair-scaling trajectory (ISSUE 4): indexed vs
# pre-index repair walk as unrelated traffic grows. CI uploads the JSON as
# a build artifact; regenerate the committed copy with this target.
bench-json:
	$(GO) run ./cmd/airebench -table bench4 -out BENCH_4.json

# Repair-plane-under-load measurement (ISSUE 7): closed-loop mixed
# workload (paced mirror puts + periodic repair cascades) over the real
# HTTP adapter with adaptive batching and admission control. CI runs a
# short non-gating pass and uploads the JSON; regenerate the committed
# copy with this target.
BENCH5_DUR ?= 5s
bench5:
	$(GO) run ./cmd/airebench -table bench5 -dur $(BENCH5_DUR) -out BENCH_5.json

# Hub shard-scaling table (ISSUE 10): the bench5 workload re-run unpaced
# once per shard count, with -opdelay modeling the blocking backend work
# held under each shard's service lock (so lock serialization — the thing
# sharding removes — is what the table measures, not the host's cores).
# Regenerates the committed BENCH_5.json.
bench5-scale:
	$(GO) run ./cmd/airebench -table bench5 -dur $(BENCH5_DUR) -rps -1 -clients 16 -shards 1,2,4 -opdelay 2ms -wal -out BENCH_5.json

# Observability overhead gate (ISSUE 8): the allocation ceiling — with no
# registry configured every instrumentation site must degenerate to a nil
# check (0 allocs/op, asserted hard by TestObsDisabledZeroAlloc) — plus
# the disabled-vs-enabled overhead benchmark for the record.
bench-obs:
	$(GO) test -run TestObsDisabledZeroAlloc ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchmem ./internal/core

# Normal-path allocation gate: committed allocs/op ceilings for one KV put
# through a Controller, without and with a WAL, plus a repair-log Append
# with no change sink that must not encode its record. Counts are
# deterministic and gate; timings are never gated.
bench-allocs:
	$(GO) test -count=1 -run TestNormalPathAllocCeiling -v ./internal/core

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt-fix:
	gofmt -w .

sim:
	$(GO) run ./cmd/airesim -profile $(SIM_PROFILE) -seeds $(SIM_SEEDS) -shards $(SIM_SHARDS)

# Crash-durability gate (ISSUE 6): WAL-backed profiles where every crash
# discards in-memory state and recovers from checkpoint + WAL replay.
# fsync=every + power loss must lose nothing; fsync=interval + process
# kill must still converge. Watch the gate's teeth with:
#   go run ./cmd/airesim -profile crash -seeds 1:20 -fsync none
durability:
	$(GO) run -race ./cmd/airesim -profile crash -seeds $(SIM_SEEDS)
	$(GO) run -race ./cmd/airesim -profile fsynclag -seeds $(SIM_SEEDS)

# WAL corruption + replay fuzzing smoke: deterministic corruption table
# (bit flips, truncations, zeroed CRCs, garbage appends) plus a short
# coverage-guided run over mutated segment bytes. Longer local runs:
#   go test -fuzz FuzzWALReplay -fuzztime 5m ./internal/wal
fuzz-wal:
	$(GO) test -run TestWALCorruption -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal

# Same sweep with repair delivery on the background pump under the
# deterministic scheduler (internal/dsched): concurrent worker
# interleavings, seed-reproducible. A failing seed prints its step count;
# replay with: go run ./cmd/airesim -sched -profile <p> -seeds <seed> -v
sim-sched:
	$(GO) run ./cmd/airesim -sched -profile $(SIM_PROFILE) -seeds $(SIM_SEEDS) -shards $(SIM_SHARDS)

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Both tools are optional locally (skipped
# with a notice when not installed — this repo adds no dependencies);
# CI installs pinned versions and runs them for real in the gate job.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

ci: fmt vet lint build test race bench bench-obs bench-allocs
