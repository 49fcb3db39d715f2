# Stdlib-only Go module; these targets are the whole workflow.
#
# Static-analysis gate workflow: `make vet-lsvd` first proves every
# analyzer against its golden testdata, then runs lsvd-vet over the
# module and compares the JSON findings against vet-baseline.json by
# fingerprint — any finding not in the baseline fails the build. Fix
# the code (preferred), waive a single site with `//lsvd:ignore
# <reason>`, or park the finding via `make vet-lsvd-update-baseline`
# and commit the regenerated baseline so the decision shows up in
# review.

GO ?= go

# Packages whose concurrency is load-bearing (the async destage
# pipeline, the shared read arena, the multi-volume host, the NBD
# worker pool, the cluster attach/failover protocol, and the public API
# the daemon opens its volume through, replication included); `make
# race` runs them and the invariant package under the race detector,
# including the destage stress tests and the pinned-seed torture runs.
# The runtime asserts are compiled into every build, so every run
# checks them.
RACE_PKGS := . ./internal/simdev ./internal/core ./internal/blockstore ./internal/writecache ./internal/nbd ./internal/consistency ./internal/host ./internal/readcache ./internal/replica ./internal/cluster ./internal/testrec

# Native fuzz targets (package,function); fuzz-smoke runs each for
# FUZZTIME and replays the checked-in testdata/fuzz corpora.
FUZZ_TARGETS := \
	./internal/journal,FuzzDecode \
	./internal/journal,FuzzCombine \
	./internal/nbd,FuzzHandshake \
	./internal/nbd,FuzzRequestStream \
	./internal/extmap,FuzzOpsOracle \
	./internal/extmap,FuzzUnmarshalBinary \
	./internal/blockstore,FuzzDecodeCheckpoint \
	./internal/blockstore,FuzzOpenSuffix \
	./internal/readcache,FuzzArenaOracle \
	./internal/writecache,FuzzOpen
FUZZTIME ?= 10s

# Ceiling on `//lsvd:ignore` waivers outside internal/analysis (whose
# testdata seeds them on purpose). vet-lsvd fails above it. The budget
# only ever goes down: delete a waiver, lower this number.
WAIVER_BUDGET := 1

.PHONY: all build fmt vet test race bench-smoke fault gc-torture vet-lsvd vet-lsvd-update-baseline fuzz-smoke check clean

all: check

build:
	$(GO) build ./...

# Formatting gate: fail if any tracked Go file is not gofmt-clean.
# gofmt -l prints paths relative to the CURRENT directory without a
# leading ./, so the reference-repo filter must match `related/`
# anywhere in the path, not just at an anchored start. The analysis
# package additionally holds the simplify bar (gofmt -s): it is the
# code that judges the rest of the tree.
fmt:
	@out=$$(gofmt -l . | grep -vE '(^|/)related/' || true); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	@out=$$(gofmt -s -l internal/analysis cmd/lsvd-vet); \
	if [ -n "$$out" ]; then echo "gofmt -s needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

race:
	LSVD_FAULT_SEED=1 $(GO) test -race $(RACE_PKGS) ./internal/invariant

# Crash searches (DESIGN.md §5): every script runs on one gate under one
# of testrec's two drivers. A torture iteration is a seeded walk
# (Sample), so a seed is one run; the second run sweeps a hostile 35%
# per-op failure rate. Override LSVD_FAULT_{SEED,RATE,ITERS} to explore.
# The cache crash enumeration is the DFS driver (Explore) at bound 0: one
# schedule of a scripted workload, every prefix of its device trace
# opened with each way its unflushed pages can be lost; here it runs
# twenty times under the race detector, its crash points checked in
# parallel. The backend schedule explorer is the same driver over every
# backend PUT, DELETE and range GET: its regression rows (a death while
# a snapshot's drop is owed its super, an owed super failing at open, a
# GC read across a reap, objects landing behind one in flight) run
# twenty times under the race detector beside the other block-store
# races, and the exploration itself runs once at preemption bound 3
# (LSVD_FAULT_PREEMPT; tier-1 runs it too, without the race detector).
# A failing run of either driver prints its row and one line,
# LSVD_REPLAY='{"TestX", seed, []string{choices}}' go test -run
# '^TestX$$' ./internal/pkg, that replays exactly that run; a row of the
# explorer is named TestBackendCrashEnumeration/explore. A walk is a
# function of its seed: TestTortureReplay replays seed 1 of each torture
# from its row and compares the logs, twenty times under the race
# detector, which shuffles every set of goroutines woken together. The fences and
# shutdown race each other's writers: a snapshot and a checkpoint under a
# continuous writer, Close and Kill against parked writers, a commit or a
# wrapping reserve that arrives after the cache is quiesced must be
# refused, and a GC object parked in its PUT must hold back every commit
# behind it while appends go on. The last line is the flake gate: twenty
# shuffled runs of the whole consistency package in one process, zero
# failures.
fault:
	$(GO) test -count=20 -race -run 'TestSecondCrashAfterSuffixCheckpointKeepsPrefix|TestGCObjectRidesThePipeline|TestCleanReopenDeletesNothing|TestDeleteSnapshotFailureKeepsName|TestAbortWaits' ./internal/blockstore
	$(GO) test -count=20 -race -run 'TestBackendCrashEnumeration/regression' ./internal/blockstore
	LSVD_FAULT_PREEMPT=3 $(GO) test -count=1 -race -timeout 60m -run 'TestBackendCrashEnumeration/explore' ./internal/blockstore
	$(GO) test -count=20 -race -timeout 30m -run 'TestCrashEnumeration|TestCommitAfterQuiesceIsRefused' ./internal/writecache
	$(GO) test -count=20 -race -run 'UnderWriter|TestShutdownReleasesParkedWriters|TestDeleteSnapshotWhileSnapshotQueued|TestFullQueueWaitArmsNoTimer|TestRingFullOfUndestageableData|TestReplicaThatFailsEveryPut|TestQueueWaiterGetsPipelineError' ./internal/core
	LSVD_FAULT_SEED=1 $(GO) test -count=20 -race -run TestTortureReplay ./internal/consistency
	LSVD_FAULT_SEED=1 $(GO) test -count=1 -run TestFaultTorture ./internal/consistency
	LSVD_FAULT_SEED=100 LSVD_FAULT_RATE=0.35 LSVD_FAULT_ITERS=8 \
		$(GO) test -count=1 -run TestFaultTorture ./internal/consistency
	LSVD_FAULT_SEED=1 LSVD_FAULT_ITERS=32 \
		$(GO) test -count=1 -run TestCheckpointCrashTorture ./internal/consistency
	LSVD_FAULT_SEED=1 LSVD_FAULT_ITERS=24 \
		$(GO) test -count=1 -run TestReplicaTorture ./internal/consistency
	$(GO) test -shuffle=on -count=20 ./internal/consistency

# The benchmark (benchmark/README.md) is its own module, which the root
# `go test ./...` cannot see: its smoke test runs every workload at a
# small scale against BENCHMARK.json in about six seconds.
bench-smoke:
	cd benchmark && $(GO) test -count=1 ./...

# GC-specific torture: the concurrent-writer fault workload with the
# paced service deliberately kept hungry, asserting per-writer prefix
# consistency plus exact utilization accounting across aborted passes
# and crash recovery. Also runs under `race` via RACE_PKGS; this
# target is the widened standalone sweep.
gc-torture:
	LSVD_FAULT_SEED=1 LSVD_FAULT_ITERS=24 $(GO) test -count=1 -run TestGCTorture ./internal/consistency

# Custom analyzer suite (DESIGN.md §15): prove every analyzer against
# its seeded testdata (zero missed, zero spurious findings), then run
# the built driver over the whole module and gate on vet-baseline.json.
# The gate fails only on findings whose fingerprint is NOT in the
# baseline, so a finding can be parked deliberately (reviewed like
# code) without turning the target red; any NEW finding fails CI.
# After fixing a parked finding, or to park a new one, run
# `make vet-lsvd-update-baseline` and commit the regenerated file.
# Waiving a site instead is rationed by WAIVER_BUDGET.
vet-lsvd:
	$(GO) test -count=1 ./internal/analysis/...
	$(GO) build -o bin/lsvd-vet ./cmd/lsvd-vet
	./bin/lsvd-vet -baseline vet-baseline.json ./...
	@n=$$(grep -r --include='*.go' --exclude-dir=analysis --exclude-dir=.bench_build 'lsvd:ignore' . | wc -l); \
	if [ $$n -gt $(WAIVER_BUDGET) ]; then \
		echo "vet-lsvd: $$n lsvd:ignore waivers exceed WAIVER_BUDGET=$(WAIVER_BUDGET)"; exit 1; \
	fi; echo "vet-lsvd: $$n/$(WAIVER_BUDGET) waivers"

vet-lsvd-update-baseline:
	$(GO) build -o bin/lsvd-vet ./cmd/lsvd-vet
	./bin/lsvd-vet -write-baseline vet-baseline.json ./...

# Replay the checked-in seed corpora, then give each fuzz target
# FUZZTIME of coverage-guided exploration. Every target must have a
# committed corpus under <pkg>/testdata/fuzz/<Fn>/ — an empty corpus
# means the replay step silently proves nothing, so it fails loudly.
# Minimizing a newly covered input is capped at a second: the default
# (a minute) would spend the whole FUZZTIME shrinking the first find.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%,*}; fn=$${t#*,}; dir=$${pkg#./}/testdata/fuzz/$$fn; \
		if [ -z "$$(ls -A $$dir 2>/dev/null)" ]; then \
			echo "fuzz-smoke: no seed corpus in $$dir (run the fuzzer and commit its inputs)"; exit 1; \
		fi; \
	done
	$(GO) test -count=1 -run Fuzz ./internal/journal ./internal/nbd ./internal/extmap ./internal/blockstore ./internal/readcache ./internal/writecache
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%,*}; fn=$${t#*,}; \
		echo "fuzz $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test $$pkg -fuzz="^$$fn$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s; \
	done

check: build fmt vet test race fault gc-torture vet-lsvd fuzz-smoke bench-smoke

clean:
	$(GO) clean -testcache
