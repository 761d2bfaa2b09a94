GO ?= go

.PHONY: verify build lint test vet race bench benchgate benchsmoke benchcheck fuzz loc golden

# Tier-1 verification gate: build, lint (vet + gofmt), full test suite
# (cmd/cgdqp included), the race detector over every internal package,
# the commands and the whole root package, a 1-iteration pass over the optimizer
# and hash join benchmarks so they cannot rot, the nested benchmark module, which
# compiles against the engine, and last the line count ROADMAP item 12
# tracks.
verify: build lint test race benchsmoke benchcheck loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint: go vet plus a gofmt cleanliness check (no external tools).
lint: vet
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./cmd/...
	$(GO) test -race .

benchsmoke:
	$(GO) test -run NONE -bench Optimize -benchtime 1x .
	$(GO) test -run NONE -bench HashJoin -benchtime 1x -benchmem ./internal/executor

# benchmark/ is a module of its own, invisible to ./... above: vet it
# and run its smoke tests (15-20 s) against this checkout's engine.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# loc: tracked non-test Go outside benchmark/, in lines — the number a
# simplicity PR quotes.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' | xargs cat | wc -l

# golden: re-pin testdata/plans/*.golden from the optimizer's current
# output. Not part of verify: a re-pin is always a stated, reviewed plan
# change — say in the PR which plans moved and why.
golden:
	$(GO) test -run 'TestGoldenPlans' -update .

# The repository's benchmark: all four workloads, end to end, against
# their oracles (see benchmark/README.md), then per-query optimization
# time.
bench:
	bash benchmark/run.sh --workload all
	$(GO) test -run NONE -bench BenchmarkOptimizeTPCH -benchtime 3x -benchmem .

# The regression gate: three timed runs of every workload, judged
# metric by metric against the committed baseline summary (median worse
# than the baseline's by more than its BENCHMARK.json bound fails; a
# spread wider than the bound is "unresolved"). ~10 min. Not part of
# verify: timings only compare on one machine, so re-measure
# testdata/bench/baseline.json there (bash benchmark/run.sh --workload
# all --repeat 3 --out testdata/bench/baseline.json) before trusting it.
benchgate:
	bash benchmark/run.sh --workload all --repeat 3 --out .bench_build/gate.json
	bash benchmark/run.sh compare testdata/bench/baseline.json .bench_build/gate.json

# Short fuzzing pass over the SQL and policy parsers, the compiled
# kernel / interpreter parity harness, the soundness of the predicate
# implication test, the wire-format decoder, the storage engine's page
# and WAL-record decoders and B+ tree, and the LRU against its reference
# model (10s per target).
fuzz:
	$(GO) test -run NONE -fuzz FuzzParseSQL -fuzztime 10s ./internal/sqlparse
	$(GO) test -run NONE -fuzz FuzzParsePolicy -fuzztime 10s ./internal/sqlparse
	$(GO) test -run NONE -fuzz FuzzKernelParity -fuzztime 10s ./internal/expr
	$(GO) test -run NONE -fuzz FuzzImpliesSound -fuzztime 10s ./internal/expr
	$(GO) test -run NONE -fuzz FuzzWireDecode -fuzztime 10s ./internal/network
	$(GO) test -run NONE -fuzz FuzzPageDecode -fuzztime 10s ./internal/store
	$(GO) test -run NONE -fuzz FuzzWALRecord -fuzztime 10s ./internal/store
	$(GO) test -run NONE -fuzz FuzzBTreeOps -fuzztime 10s ./internal/store
	$(GO) test -run NONE -fuzz FuzzLRU -fuzztime 10s ./internal/lru
