GO ?= go
FUZZTIME ?= 10s

.PHONY: build test test-portable test-wire test-race fuzz-short fuzz-race bench bench-width bench-kernels bench-arrow bench-eig bench-hop perf obs-check lint loc check

build:
	$(GO) build ./...

# Tier 1: the full unit + integration suite.
test:
	$(GO) test ./...

# Static gates: formatting, go vet over the root and benchmark modules (vet's
# copylocks check covers by-value copies of atomic-bearing structs), and the
# streamvet analyzer suite — all five analyzers over every internal/ and cmd/
# package, failing on any finding; there are no suppressions (see
# internal/analysis and the "Static guarantees" section of DESIGN.md). The
# zero-allocation steady state is held by the AllocsPerRun tests that
# `make test` runs. ./... covers cmd/ too; TestRepoClean (internal/analysis)
# fails if the loader ever stops seeing the commands.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...
	$(GO) run ./cmd/streamvet ./...

# Non-test line budget (internal/analysis/loc_budget.txt): fails when a package, the facade (./api.go) or the
# commands (./cmd) hold more non-test Go and assembly lines than their
# committed count, or when a directory under internal/ has no count. The last
# line is the budgeted internal total (the internal/ packages, without the
# facade and the commands) over the sum of their budgets; it gates nothing.
loc:
	@fail=0; total=0; budget=0; while read -r pkg max; do \
		case "$$pkg" in ''|'#'*) continue;; ./*) path=$$pkg;; *) path=internal/$$pkg;; esac; \
		n=$$(find $$path \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) | xargs cat | wc -l); \
		case "$$pkg" in ./*) ;; *) total=$$((total + n)); budget=$$((budget + max));; esac; \
		if [ "$$n" -gt "$$max" ]; then echo "loc: $$path has $$n non-test lines, budget $$max"; fail=1; \
		else echo "loc: $$path $$n/$$max"; fi; \
	done < internal/analysis/loc_budget.txt; \
	for dir in internal/*/; do pkg=$$(basename $$dir); \
		if ! grep -q "^$$pkg " internal/analysis/loc_budget.txt; then echo "loc: internal/$$pkg has no budget line"; fail=1; fi; \
	done; echo "loc: internal total $$total/$$budget"; exit $$fail

# Tier 1, portable path: the mat kernels, ArrowSym's secular roots and
# TridiagSym's lanes (tred2 and the deferred QL rotations) have AVX2 assembly
# on amd64 and run their Go references everywhere else and on amd64 CPUs
# without AVX2 (one path, chosen at init). The 386 run (native on an x86-64
# Linux host) puts the Go loops, root and tred2/tql2 under the kernel,
# eigensolver and engine suites, including the golden engine digests both
# paths must hit, and the NaN-mask reference under ingest's fuzz and
# allocation tests; the arm64 vet compiles the generic files (the _other.go
# stubs among them) and checks them without running them.
test-portable:
	GOARCH=386 $(GO) test ./internal/mat ./internal/eig ./internal/core ./internal/ingest
	GOARCH=arm64 $(GO) vet ./internal/mat ./internal/eig ./internal/ingest

# Tier 2: the wire layer against real TCP sockets under the race detector —
# loopback edges, reconnect chaos, and the multi-process harness tests that
# re-exec the test binary as worker processes — plus the fault injector,
# which drops and duplicates pooled frames, and the stream runtime every
# graph runs on: one goroutine per operator, with revive, live Metrics reads
# and loop-edge drops racing the operators.
test-wire:
	$(GO) test -race -count=1 ./internal/stream ./internal/wire ./internal/pipeline ./internal/fault

# Fuzz seed-corpus replay under the race detector: plain `go test` replays
# committed corpora without -race, so a corpus input that trips a data race
# (the wire decoder runs against live sockets elsewhere) would slip the gate.
# -run with the fuzz-target names and no -fuzz flag replays seeds only.
fuzz-race:
	$(GO) test -race -count=1 -run '^Fuzz' ./internal/core ./internal/eig ./internal/fault ./internal/mat ./internal/wire

# The one-stop pre-commit target: every static gate plus the full test suite,
# the line budget, the portable-path suite, the race-enabled
# stream/wire/transport suite, the race-mode fuzz-corpus replay and the
# end-to-end observability probe.
check: lint loc test test-portable test-wire fuzz-race obs-check

# Tier 2: the same suite under the race detector (the chaos tests exercise
# panic recovery, revive, and the failure supervisor concurrently), with the
# blocked-kernel property and zero-alloc contracts called out explicitly so a
# scoped run still covers the hot-path guarantees.
test-race:
	$(GO) test -race -run 'Blocked|ZeroAllocs|Workspace|AcrossGOMAXPROCS|Panel|ObserveBlock|TridiagSym|ArrowSym' ./internal/mat ./internal/eig ./internal/core
	$(GO) test -race -count=2 -run 'Chaos' ./...
	$(GO) test -race ./...

# Tier 2: short fuzzing passes over the checkpoint reader, the fault
# injector, the wire codecs, the arrowhead and tridiagonal eigensolvers (each
# path against its Go reference), the binary record reader and the mat
# kernels against their Go references. Each target fuzzes for $(FUZZTIME);
# seed corpora alone run in plain `make test`.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzReadEigensystem$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzInjector$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzFrameCodec$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzSyncMessage$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzArrowSym$$' -fuzztime $(FUZZTIME) ./internal/eig
	$(GO) test -run '^$$' -fuzz '^FuzzTridiagSym$$' -fuzztime $(FUZZTIME) ./internal/eig
	$(GO) test -run '^$$' -fuzz '^FuzzBinaryStream$$' -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzKernelsMatchGoReference$$' -fuzztime $(FUZZTIME) ./internal/mat

bench:
	$(GO) test -bench . -benchtime 1x ./...

# The chunk-width sweep behind mat.BlockSize's weights (DESIGN, "Chunk-width
# cost model"): internal/core's BenchmarkObserveBlock pinned-width lanes on
# one core, eight sweeps run one after another so that host drift spreads
# over every lane.
bench-width:
	@for i in 1 2 3 4 5 6 7 8; do \
		$(GO) test -run '^$$' -bench 'BenchmarkObserveBlock/d-[0-9]+/c-' -cpu 1 -count 1 ./internal/core | grep ns/row; \
	done

# Per-kernel timings of internal/mat's d-long entries (BenchmarkKernels) at
# d = 16, 400 and 1000 on one core, eight counts for medians.
bench-kernels:
	$(GO) test -run '^$$' -bench '^BenchmarkKernels$$' -cpu 1 -count 8 ./internal/mat

# The rank-one row update's eigensolve on one core, eight counts for medians:
# ArrowSym at k = 5 on benchArrow and on engine-shaped arrowheads (on the
# path init selected and on root's scalar path), and the whole d = 16 row
# update it sits in (BenchmarkObserve/d-16).
bench-arrow:
	$(GO) test -run '^$$' -bench '^Benchmark(ArrowSym6|ArrowSymEngine)$$' -cpu 1 -count 8 ./internal/eig
	$(GO) test -run '^$$' -bench '^BenchmarkObserve$$/^d-16$$' -cpu 1 -count 8 .

# The block update's eigensolve on one core: TridiagSym on engine-shaped
# Grams at k = 5, c = 1…16 (n = 6…21), on the path init selected and on the
# Go reference, then the whole d = 400 and d = 1000 chunk of six rows it sits
# in. Eight passes of one count each, so that the two paths alternate and
# host drift spreads over both.
bench-eig:
	@for i in 1 2 3 4 5 6 7 8; do \
		$(GO) test -run '^$$' -bench '^BenchmarkTridiagSymEngine$$' -benchtime 200ms -cpu 1 -count 1 ./internal/eig | grep ns/op; \
	done
	$(GO) test -run '^$$' -bench '^BenchmarkObserveBlock$$/^d-(400|1000)$$/^c-6$$' -cpu 1 -count 8 ./internal/core

# The stream runtime's per-message hop (DESIGN, "Micro-batched transport"):
# frames of one through Split to four sinks, and one message through a
# three-node chain, on one and two cores, eight counts for medians. Then the
# wire hop: frames from a dial edge's send half to an accept edge's receive
# half over loopback TCP, at d = 16 frames of one and d = 400 frames of 64.
bench-hop:
	$(GO) test -run '^$$' -bench '^Benchmark(SplitHop|PipelineHop)$$' -benchmem -cpu 1,2 -count 8 ./internal/stream
	$(GO) test -run '^$$' -bench '^BenchmarkEdgeHop$$' -benchmem -cpu 1,2 -count 8 ./internal/wire

# Performance claims rest on the repo benchmark (BENCHMARK.json, benchmark/
# — see benchmark/README.md), not on the microbenchmarks above. Produce two
# result files with `go run -C benchmark streampca/benchmark` at the two
# commits, in alternating order, then:  make perf OLD=a.json NEW=b.json
perf:
	@test -n "$(OLD)" && test -n "$(NEW)" || { echo "usage: make perf OLD=a.json NEW=b.json"; exit 1; }
	$(GO) run -C benchmark streampca/benchmark compare $(abspath $(OLD)) $(abspath $(NEW))

# End-to-end observability acceptance: build cmd/streampca, run an
# instrumented pipeline with -obs, and validate the JSON snapshot, Prometheus
# text, journal and Chrome trace endpoints over real HTTP, plus the
# /cluster/* view of that single process as a cluster of one node. The -wire
# pass re-runs it against a real 2-worker localhost TCP cluster and validates
# the coordinator's aggregated /cluster/* surface (merged JSON, node-labeled
# Prometheus, skew-corrected merged trace).
obs-check:
	$(GO) run ./cmd/obscheck
	$(GO) run ./cmd/obscheck -wire
