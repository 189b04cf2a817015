# Build/test gates for the repro module. `make check` is the PR gate:
# vet + full tests + race. The race target runs with -short so the
# 200-device determinism test shrinks to an affordable size under the
# race detector; TestParallelismMatchesSerial and the parallel engine
# paths still run with the worker pool enabled, which is the point.

GO ?= go

.PHONY: build vet vet-extra fmt-check lint test race soak cluster-chaos check bench bench-check cover fuzz-smoke loc

# Coverage floor for the caching layer. The pipeline and core packages
# carry the correctness-critical cache keying, so regressions in their
# test coverage fail the build.
COVER_PKGS = ./internal/pipeline/ ./internal/core/
COVER_MIN  = 70.0

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Opt-in vet analyzers beyond the default set: copied-lock values,
# pre-1.22 loop-variable capture, and discarded error-returning calls.
vet-extra:
	$(GO) vet -copylocks -loopclosure -unusedresult ./...

# Go files outside testdata/ and dot-directories (build caches). The lint
# corpus under testdata/ is excluded on purpose: suppresslist puts two
# statements on one line to exercise suppression placement.
GO_FILES = find . -name '.?*' -prune -o -name testdata -prune -o -name '*.go' -print

# fmt-check: fail on any Go file gofmt would rewrite.
fmt-check:
	@out=$$($(GO_FILES) | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

# loc: non-test Go lines per package directory and in total, excluding
# perfbench/ (the benchmark harness, a module of its own).
loc:
	@$(GO_FILES) | grep -v '_test\.go$$' | grep -v '^\./perfbench/' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# gblint: the repo-invariant analyzer suite (DESIGN.md §7). Exits
# nonzero on any finding; suppressions require a written reason.
lint:
	$(GO) run ./cmd/gblint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...
	$(GO) test -race -run 'TestParallelismMatchesSerial|TestPoolConcurrentInterning|TestEditUpdateMatchesCold' ./internal/dataplane/ ./internal/routing/
	$(GO) test -race -run 'TestParallelParseDeterminism|TestIncrementalEquivalence|TestScenarioIncrementalEquivalence|TestCompareWithSharedMatchesPerSource' ./internal/pipeline/ ./internal/core/
	$(GO) test -race -run 'TestChaos|TestCancel' ./internal/faults/
	$(GO) test -race -run 'TestSweepDeterminismAcrossWorkers|TestSweepWorkerKillRequeue' ./internal/sweep/

# Race-gated server soak: mixed concurrent workload against batfishd's
# engine with a persistent cache, then a warm restart over the same
# directory (skipped by -short, so `race` does not run it twice).
soak:
	$(GO) test -race -run TestSoak -count=1 ./internal/server/

# Race-gated cluster chaos suite: 3-member clusters on the 204-device
# fabric. One scenario kills the snapshot owner mid-question (failover
# within the suspicion window, byte-identical answer from the new owner,
# warm start from the shared cache); the other kills the coordinator
# itself mid-question (lease-race promotion within twice the member
# budget, strictly increasing epoch, then a second owner-kill answered
# from the shared cache directory with zero cold parses). The tests carry
# a `race` build tag, so they exist only under the race detector.
cluster-chaos:
	$(GO) test -race -run TestClusterChaos -count=1 ./internal/cluster/

# Short native-fuzzing pass over the vendor parsers (any input must yield
# a device model, never a panic), the HTTP sweep body (never a panic,
# never more workers than GOMAXPROCS), the data-plane artifact decoder
# (an error or a usable result, never a panic), the disk cache's entry
# framing (never a panic; an accepted entry re-frames to the same bytes)
# and the cluster's name-record/manifest decoding (never a panic; only a
# manifest hashing to the record's digest, with a config, is accepted).
# Crashers land in testdata/fuzz/ and reproduce with plain `go test`. The
# server, dataplane, diskcache and cluster targets run alone (-run) so
# their packages' other tests do not precede them.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/vendors/cisco/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/vendors/juniper/
	$(GO) test -run '^FuzzParseSweepBody$$' -fuzz='^FuzzParseSweepBody$$' -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run '^FuzzUnmarshalResult$$' -fuzz='^FuzzUnmarshalResult$$' -fuzztime=$(FUZZTIME) ./internal/dataplane/
	$(GO) test -run '^FuzzVerifyEntry$$' -fuzz='^FuzzVerifyEntry$$' -fuzztime=$(FUZZTIME) ./internal/diskcache/
	$(GO) test -run '^FuzzManifest$$' -fuzz='^FuzzManifest$$' -fuzztime=$(FUZZTIME) ./internal/cluster/

cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t+0 < min+0) { printf "coverage %.1f%% below floor %.1f%%\n", t, min; exit 1 } \
		else { printf "coverage %.1f%% meets floor %.1f%%\n", t, min } }'

check: vet vet-extra fmt-check lint test race soak cluster-chaos fuzz-smoke bench-check

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# bench-check: the perf-regression gate, run live. Each floor is a
# b.Fatalf inside the benchmark that measures it: dev-204 sched-speedup
# at 8 workers and the parse pool's real 2-worker speedup (Parallelism),
# interned vs not-interned cost (Intern), failover p99s, forward overhead
# and heir warm-hit rate (Cluster), the sweep's prune bound (Sweep/plan)
# and decode-over-run (DataPlaneArtifact); GraphBuild runs alongside as
# the graph layer's benchmark. Sweep/k1-links-nodes carries the executed
# sweep's floors (prune ratio, speedup over cold replays); with each class
# simulating only the monitored destinations, on one store-less runtime
# per worker, it peaks near 0.62 GB RSS on a 2-vCPU host
# (EXPERIMENTS E13).
bench-check:
	$(GO) test -run '^$$' -bench '^Benchmark(Parallelism|Intern|Cluster|Sweep|GraphBuild|DataPlaneArtifact)$$' -benchmem .
