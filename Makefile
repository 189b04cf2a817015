# Build/test gates for the repro module. `make check` is the PR gate:
# vet + full tests + race. The race target runs with -short so the
# 200-device determinism test shrinks to an affordable size under the
# race detector; TestParallelismMatchesSerial and the parallel engine
# paths still run with the worker pool enabled, which is the point.

GO ?= go

.PHONY: build vet vet-extra fmt-check lint test race soak cluster-chaos check bench benchjson bench-smoke bench-check cover fuzz-smoke loc

# Coverage floor for the caching/incremental layer. The pipeline and core
# packages carry the correctness-critical cache keying and blast-radius
# logic, so regressions in their test coverage fail the build.
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
	$(GO) test -race -run 'TestParallelismMatchesSerial|TestPoolConcurrentInterning' ./internal/dataplane/ ./internal/routing/
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
# a device model, never a panic) and the HTTP sweep body (never a panic,
# never more workers than GOMAXPROCS). Crashers land in testdata/fuzz/
# and reproduce with plain `go test`. The server target runs alone
# (-run) so the package's end-to-end tests do not precede it.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/vendors/cisco/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/vendors/juniper/
	$(GO) test -run '^FuzzParseSweepBody$$' -fuzz='^FuzzParseSweepBody$$' -fuzztime=$(FUZZTIME) ./internal/server/

cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t+0 < min+0) { printf "coverage %.1f%% below floor %.1f%%\n", t, min; exit 1 } \
		else { printf "coverage %.1f%% meets floor %.1f%%\n", t, min } }'

check: vet vet-extra fmt-check lint test race soak cluster-chaos fuzz-smoke bench-smoke bench-check

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Emit a dated perf snapshot (BENCH_<date>.json) from the benchmarks and
# print per-benchmark deltas against the previous committed snapshot.
benchjson:
	$(GO) test -bench . -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -diff

# bench-smoke: one-iteration pass over the floor-gated benchmarks — the
# parallel fabric simulation and the route-interning pair — and the NET2
# graph-build layer benchmark. Proves they still build, run, and emit
# their metrics without paying for a full `-bench .` sweep; timing floors
# are bench-check's job, on the committed snapshot, where the numbers came
# from enough iterations to be stable.
bench-smoke:
	$(GO) test -bench 'BenchmarkParallelism|BenchmarkIntern|BenchmarkGraphBuild' -benchmem -benchtime 1x -run '^$$' .

# bench-check: the perf-regression gate. Reads the newest committed
# BENCH_*.json and fails if the dev-204 sched-speedup at 8 workers is
# below the floor or interned route churn is slower than non-interned.
SPEEDUP_FLOOR ?= 4.0
bench-check:
	$(GO) run ./cmd/benchjson -check -speedup-floor $(SPEEDUP_FLOOR)
