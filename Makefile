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
# worker pool, and the cluster attach/failover protocol); `make race`
# runs them under the race detector, including the destage stress
# tests.
RACE_PKGS := ./internal/simdev ./internal/core ./internal/blockstore ./internal/writecache ./internal/nbd ./internal/consistency ./internal/host ./internal/readcache ./internal/replica ./internal/cluster ./internal/testrec

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
	./internal/readcache,FuzzArenaOracle \
	./internal/writecache,FuzzOpen
FUZZTIME ?= 10s

# Ceiling on `//lsvd:ignore` waivers outside internal/analysis (whose
# testdata seeds them on purpose). vet-lsvd fails above it. The budget
# only ever goes down: delete a waiver, lower this number.
WAIVER_BUDGET := 2

.PHONY: all build fmt vet test race bench-smoke fault gc-torture vet-lsvd vet-lsvd-update-baseline check-invariant fuzz-smoke check clean

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
	$(GO) test -race $(RACE_PKGS)

# Recovery torture harness (§3.4 under injected backend faults): the
# pinned seed keeps CI deterministic, the second run sweeps a hostile
# 35% per-op failure rate. Override LSVD_FAULT_{SEED,RATE,ITERS} to
# explore. The crash enumerations open every prefix of a scripted
# workload's trace — the backend's PUTs and DELETEs and every crash
# inside that open; the cache device's writes and flushes with each way
# its unflushed pages can be lost (tier-1 runs each once); here each
# runs twenty times under the race detector, each run a different
# interleaving of the same script; at up to 30 s a cache run on a 2-CPU
# VM, twenty can pass go test's default 10-minute timeout. The fences
# and shutdown race each other's writers the same way: a snapshot and a
# checkpoint under a continuous writer, Close and Kill against parked
# writers, a commit or a wrapping reserve that arrives after the cache
# is quiesced must be refused, and a GC object parked in its PUT must
# hold back every commit behind it while appends go on. The last line
# is the flake gate: twenty shuffled runs of the whole consistency
# package in one process, zero failures.
fault:
	$(GO) test -count=20 -race -run 'TestBackendCrashEnumeration|TestSecondCrashAfterSuffixCheckpointKeepsPrefix|TestGCObjectRidesThePipeline' ./internal/blockstore
	$(GO) test -count=20 -race -timeout 30m -run 'TestCrashEnumeration|TestCommitAfterQuiesceIsRefused' ./internal/writecache
	$(GO) test -count=20 -race -run 'UnderWriter|TestShutdownReleasesParkedWriters|TestDeleteSnapshotWhileSnapshotQueued' ./internal/core
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
# and crash recovery. Also runs under `race` and `check-invariant` via
# RACE_PKGS; this target is the widened standalone sweep.
gc-torture:
	LSVD_FAULT_SEED=1 LSVD_FAULT_ITERS=24 $(GO) test -count=1 -run TestGCTorture ./internal/consistency

# Custom analyzer suite (DESIGN.md §5e): prove every analyzer against
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

# Runtime invariant layer: rebuild with -tags lsvdcheck so the asserts
# are compiled in, then run the fault-torture and concurrency stress
# packages under the race detector. Lock order is checked statically,
# by vet-lsvd.
check-invariant:
	LSVD_FAULT_SEED=1 $(GO) test -count=1 -tags lsvdcheck -race \
		$(RACE_PKGS) ./internal/invariant

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

check: build fmt vet test race fault gc-torture vet-lsvd check-invariant fuzz-smoke bench-smoke

clean:
	$(GO) clean -testcache
