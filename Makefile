GO ?= go

.PHONY: verify build lint test vet race bench benchsmoke benchcheck fuzz loc golden

# Tier-1 verification gate: build, lint (vet + gofmt), full test suite
# (cmd/cgdqp included), the race detector over every internal package
# and the whole root package, a 1-iteration pass over the optimizer
# benchmarks so they cannot rot, the nested benchmark module, which
# compiles against the engine, and last the line count ROADMAP item 6
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
	$(GO) test -race ./internal/...
	$(GO) test -race .

benchsmoke:
	$(GO) test -run NONE -bench Optimize -benchtime 1x .

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

# Engine benchmarks. The first step rewrites BENCH_exec.json (inline vs
# goroutine exchanges, tracing off vs on, asserting the tracing-off
# overhead stays under 2%); the second rewrites BENCH_feedback.json (the
# misestimated workload with the feedback loop off vs on, enforcing the
# ship-bytes improvement floor); the third rewrites BENCH_store.json
# (persistent-store access paths at 1M rows/site — full scan vs index
# range vs index-lookup join, cold vs warm buffer pool — enforcing the
# >=10x index-range floor); the rest print per-query numbers.
bench:
	$(GO) test -run TestExecBenchReport -bench-report .
	$(GO) test -run TestFeedbackBenchReport -bench-report .
	$(GO) test -run TestStoreBenchReport -bench-report .
	$(GO) test -run NONE -bench BenchmarkOptimizeTPCH -benchtime 3x -benchmem .
	$(GO) test -run NONE -bench BenchmarkExecSeqVsParallel -benchtime 5x .

# Short fuzzing pass over the SQL and policy parsers, the compiled
# kernel / interpreter parity harness, the wire-format decoder, and the
# storage engine's page decoder and B+ tree (10s per target).
fuzz:
	$(GO) test -run NONE -fuzz FuzzParseSQL -fuzztime 10s ./internal/sqlparse
	$(GO) test -run NONE -fuzz FuzzParsePolicy -fuzztime 10s ./internal/sqlparse
	$(GO) test -run NONE -fuzz FuzzKernelParity -fuzztime 10s ./internal/expr
	$(GO) test -run NONE -fuzz FuzzWireDecode -fuzztime 10s ./internal/network
	$(GO) test -run NONE -fuzz FuzzPageDecode -fuzztime 10s ./internal/store
	$(GO) test -run NONE -fuzz FuzzBTreeOps -fuzztime 10s ./internal/store
