# Impala reproduction — common targets.

GO ?= go

# Coverage ratchet: `make cover-check` fails below this total. The tree sits
# at ~82% — raise the floor as coverage grows, never lower it.
COVER_MIN ?= 80.0

.PHONY: all check build vet fmt-check test test-short test-race bench-build bench-smoke fuzz-smoke bench cover cover-check examples experiments artifact serve smoke-serve smoke-cluster smoke-align clean

all: check

# check is the default CI gate: formatting, compile, static analysis, full
# tests (internal/exp's TestPlans recomputes the plan table against the
# committed BENCH_plans.json), and a race-detector pass over the concurrent
# packages: the simulator (one Compiled shared by pooled concurrent Run
# callers and streams),
# the parallel compile pipeline (worker pools sharing the Espresso cover
# cache, GA fitness evaluation), the capsule-level machine (instrumented
# StepBlock), the observability layer itself (lock-free counters/histograms),
# the serving stack (multi-tenant registry hot-swaps under concurrent
# streams, bounded match pool, artifact codec), the tiered engine (pooled
# cores shared across Run callers, parallel simultaneous-DFA build), the
# sharded engine (concurrent shard construction, pooled lockstep cores), the
# topology placer (deterministic placement under GA worker pools), the
# scored engine (its pooled sessions, one sim.Pool like every form's, shared
# across Run callers, its metrics published per block), and the facade (the
# capsule machine a Machine's first Run builds once, whichever goroutine gets
# there).
check: fmt-check build vet test bench-build bench-smoke fuzz-smoke test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# benchmark/ is a module of its own (the driver builds it with `bash
# benchmark/run.sh`), so `./...` above never compiles it: a refactor of an
# internal API it binds would break the benchmark with every other gate green.
bench-build:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

# The Go benchmarks the hot loops are tuned against (the kernel's low/high/
# sparse engine and session cases, the kernel on the three automata the
# serving benchmark's NFA workloads run — BenchmarkServedKernels, in
# internal/core beside the compile benchmarks — the CSR transition primitive,
# the scored cycle on the DNA mesh — BenchmarkScoredRun, kernel, kernel+lane
# and scored in ns/B — the DFA walker over K = 1, 2, 4 Snort shards and over
# the hamming_tier_match union DFA — BenchmarkDFAWalk, ns/B, table KB and the
# share of cycles walked again after a seam miss — the sharded form's Run tiered
# and untiered at K = 1, 2, 4 — BenchmarkShardedRun — the /match and
# /stream handlers through a null ResponseWriter — BenchmarkMatchHandler and
# BenchmarkStreamHandler, ns/row and allocs/op — and the facade's, LoadMachine
# on four sealed Snort compositions — BenchmarkLoadMachine, ns/op, B/op,
# allocs/op and held-KB) run only when someone asks for them; one iteration
# each keeps them compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim ./internal/core ./internal/bitvec ./internal/score ./internal/dfa ./internal/shard ./internal/server .

# Ten seconds of native fuzzing per target: the artifact boundary (Load,
# walking each section's layout, never panics, stays inside its allocation
# budget, and saves back what it accepts; seeded with the v7 golden files),
# the facade over it (FuzzLoadMachine, the target that covers plan
# consistency, which Load leaves to the unseal checks: seeded with every
# TestLoadRefusesBrokenPlans row, LoadMachine and every domain's
# MachineFromArtifactDomain never panic, a machine saves back the bytes it was
# built from, and a binary one without DFA tables matches what the scalar
# simulator matches), the text
# parsers, the serving wire codec (the encoders write what
# encoding/json writes; the parsers a frontend reads worker replies with never
# panic, stay inside their allocation budget, and accept only what an encoder
# writes), the /match, /stream and /reload handlers (no panic, a
# documented status, an allocation budget linear in the request), the
# scored form's threshold pruning (a thresholded form reports the open
# threshold's reports that clear it, no pruned state is ever active, and the
# pruned automaton validates and prunes to itself), the
# report sort (SortReports orders as slices.SortFunc does), the DFA walker
# (FuzzDFAWalk: a tier DFA with dot-star, anchored and StartEven states over
# at least one session block, chunked, reports and statistics the scalar
# engine's whatever the walker guessed at a seam), the facade's
# match fold (appendMatches makes the rows a map makes of sorted reports and
# leaves the prefix it appends to as it was), the capsule
# placement check (arch.Check refuses exactly what arch.Build refuses, with
# its error, and a machine it accepts reports what the simulator does), and
# the whole pipeline (FuzzPipeline: two short regexes at stride 1, 2 or 4,
# tiered or not, in one shard or two; Match, the capsule Run and a saved and
# reloaded machine's Match each match what the scalar simulator matches over
# the regexes' 8-bit automaton). A
# failure leaves its input under the package's testdata/fuzz, where plain `go
# test` replays it from then on.
define FUZZ
./internal/artifact FuzzLoad
.                   FuzzLoadMachine
./internal/regexc   FuzzCompile
./internal/anml     FuzzParse
./internal/anml     FuzzParseSymbolSet
./internal/espresso FuzzParsePLA
./internal/server   FuzzWireEncode
./internal/server   FuzzWireParse
./internal/server   FuzzMatchHandler
./internal/server   FuzzStreamHandler
./internal/server   FuzzReloadHandler
./internal/score    FuzzThresholdPrune
./internal/sim      FuzzSortReports
./internal/dfa      FuzzDFAWalk
.                   FuzzAppendMatches
./internal/arch     FuzzCheck
.                   FuzzPipeline
endef
export FUZZ

fuzz-smoke:
	@echo "$$FUZZ" | while read pkg target; do \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s || exit 1; done

# benchmark/ is a module of its own, so ./... never reaches it: its tests run
# here too, under -short. TestWorkloads/snort_shard_cluster is skipped: it
# asserts which layer dominates a request's time, and the race detector slows
# the instrumented shard engine past the frontend it is timed against (the
# subtest runs, race-free, in bench-build).
test-race:
	$(GO) test -race ./internal/sim/... ./internal/core/... ./internal/espresso/... ./internal/place/... ./internal/arch/... ./internal/obs/... ./internal/par/... ./internal/server/... ./internal/artifact/... ./internal/dfa/... ./internal/backend/... ./internal/shard/... ./internal/topo/... ./internal/score/... ./internal/workload/... .
	$(GO) -C benchmark test -race -short -skip 'TestWorkloads/snort_shard_cluster' ./...

# bench runs every Go benchmark once through, then rewrites the plan table
# at the default scale, seed and input; internal/exp's TestPlans (part of
# `test`) recomputes it and fails on any row or column that differs.
# DESIGN.md ("The plan table") says what its rows hold.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...
	$(GO) run ./cmd/impala-bench -exp plans -json BENCH_plans.json

# cover prints every package's coverage, the benchmark/ module's apart: it is
# not part of the total cover-check holds to the floor.
cover:
	$(GO) test -cover ./...
	$(GO) -C benchmark test -cover ./...

# cover-check enforces the ratcheted coverage floor and leaves coverage.out
# behind for upload/inspection.
cover-check:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v m="$(COVER_MIN)" 'BEGIN { exit (t+0 < m+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_MIN)% ratchet"; exit 1; }

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/nids
	$(GO) run ./examples/motif
	$(GO) run ./examples/entityresolution
	$(GO) run ./examples/toolchain
	$(GO) run ./examples/alignment

# Regenerate every paper table/figure (writes CSVs under out/).
experiments:
	$(GO) run ./cmd/impala-bench -exp all -scale 0.02 -dump out/

# Compile the demo ruleset into a sealed serving artifact.
artifact:
	@mkdir -p out
	$(GO) run ./cmd/impalac -patterns 'GET /,POST /,User-Agent' -o out/demo.impala
	$(GO) run ./cmd/impala-sim -load out/demo.impala -v

# Build the demo artifact and serve it (Ctrl-C drains and exits).
serve: artifact
	$(GO) run ./cmd/impala-serve -load demo=out/demo.impala -listen :8600 -ops :9090

# End-to-end serving smoke: compile → save → serve → curl match/stream →
# SIGTERM drain (the CI job).
smoke-serve:
	./scripts/smoke_serve.sh

# End-to-end cluster smoke: compile with a topology → 2 domain workers + a
# frontend → fan-out match/stream, and a scored tenant's rows against a single
# process → kill a worker → explicit partial-result degradation → SIGTERM
# drain (the CI job).
smoke-cluster:
	./scripts/smoke_cluster.sh

# Scored-execution smoke: the alignment demo's known read scores through the
# one-shot and streaming paths, plus the impalac -score / impala-sim scored
# artifact round trip (the CI job).
smoke-align:
	./scripts/smoke_align.sh

clean:
	rm -rf out/ coverage.out
