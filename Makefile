# Tier-1 verification gate (see ROADMAP.md). `make check` is what CI runs.

GO ?= go

.PHONY: check fmt build vet test race e2ebench-test bench bench-e2e experiments-check bench-smoke difftest-smoke faults-smoke telemetry-smoke pool-smoke serve-smoke serve-fuzz js-fuzz wasm-fuzz minic-fuzz fuzz

check: fmt vet build race e2ebench-test bench-smoke difftest-smoke faults-smoke telemetry-smoke pool-smoke serve-smoke serve-fuzz js-fuzz wasm-fuzz minic-fuzz

# Formatting gate: every Go file (e2ebench/ included) is gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark (e2ebench/) is its own module; vet it and run
# its offline unit tests (request-list purity, statistics, accounting).
e2ebench-test:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Performance numbers behind BENCH_perf.json: observability overhead
# (nil-tracer guard on the interpreter hot path), wasmvm optimizing-tier
# dispatch (AOT superblocks vs the stack loop), instantiation (cold vs
# snapshot clone, on a small and a 273-page module), the memory
# checksum, the JS front end per stage (lex, parse, compile over the 82 XS
# -O2 kernel builds), and the parallel harness
# grid (compile cache on/off, instance pools fresh and steady-state).
bench:
	$(GO) test -bench 'Interp|RegistryCounter' -benchtime 5x -run xxx ./internal/obsv/
	$(GO) test -bench AOTTier -benchtime 30x -run xxx ./internal/wasmvm/
	$(GO) test -bench SnapshotRestore -benchtime 100x -run xxx ./internal/wasmvm/
	$(GO) test -bench MemChecksum -benchtime 20x -run xxx ./internal/compiler/
	$(GO) test -bench JSFrontEnd -benchtime 10x -run xxx ./internal/jsvm/
	$(GO) test -bench RunCellsMultiProfile -benchtime 5x -run xxx ./internal/harness/

# The end-to-end benchmark on its two workloads: the Table 2 paper
# experiment and a closed loop of never-seen serve requests. Prints every
# end-to-end metric; reports only, not part of check (see e2ebench/README.md).
bench-e2e:
	bash e2ebench/run.sh --workload table2 --seconds 45
	bash e2ebench/run.sh --workload serve-cold --seconds 45

# Regenerates every paper table and figure and diffs the output, with its
# exit code, against the committed experiments_all.txt: any byte that moved
# fails. Takes about 100 s on 2 vCPUs, so not part of check.
experiments-check:
	{ $(GO) run ./cmd/benchtab -exp all; echo "EXITCODE=$$?"; } | diff experiments_all.txt -

# One-iteration sweep of every benchmark so a broken -bench path fails CI
# without waiting for steady-state numbers (baselines live in BENCH_perf.json).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Differential smoke: 200 generated programs from fixed seeds plus every
# committed corpus regression, across the full backend matrix (every tier
# mode on the stack loop and on AOT superblocks, plus pooled runs).
# Deterministic; any divergence fails CI. (The -race gate above reruns a
# reduced range.)
difftest-smoke:
	$(GO) test ./internal/difftest -run 'TestSmoke|TestCorpus|TestKernelOptInvariance' -count=1

# Fault drill: a fixed-seed fault plan that fires each of the four
# non-serve injection points (wasm.stall, js.heap-oom, compiler.pass,
# harness.worker-panic) at least once; each faulted cell runs once and,
# with no exception, either measures byte-identical to its clean run or
# fails with a typed injected error, under the configuration its label
# names. Plus the benchserve admission drills for the other two points
# (serve.admit / serve.shed must surface as typed responses, in-process and
# over HTTP, never hangs). Deterministic (same seed ⇒ same counts and
# outcomes) and race-clean.
faults-smoke:
	$(GO) test ./internal/harness -run TestFaultSmoke -count=1 -race
	$(GO) test ./internal/serve -run 'TestServeFaultDrill|TestServeFaultDrillHTTP' -count=1 -race

# Telemetry smoke: an in-process telemetry server over a real 4-cell sweep,
# with all five endpoints (/metrics, /debug/trace, /debug/profile,
# /debug/cells, /healthz) scraped and checked for well-formedness, plus the
# zero-overhead proof for disabled telemetry.
telemetry-smoke:
	$(GO) test ./internal/telemetry -run TestTelemetrySmoke -count=1
	$(GO) test ./internal/obsv -run 'TestNilTelemetryAllocationFree|TestInstrumentsPreserveVirtualMetrics' -count=1

# Pool drill: snapshot/pool determinism (clones and pooled sweeps
# byte-identical to cold instantiation, Put keeping nothing), linear
# memory that commits on touch (a flat-buffer model, traps at the size,
# instantiation that commits only the data segments), plus concurrent
# checkout under the race detector. require-tests.sh fails the drill when
# an alternative of a -run pattern names no test.
POOL_SMOKE_WASMVM = TestSnapshot|TestPool|TestMemory
POOL_SMOKE_HARNESS = TestPoolSmoke|TestPoolSharedAcrossRuns|TestPoolTelemetry
pool-smoke:
	GO=$(GO) sh require-tests.sh ./internal/wasmvm '$(POOL_SMOKE_WASMVM)'
	GO=$(GO) sh require-tests.sh ./internal/harness '$(POOL_SMOKE_HARNESS)'
	$(GO) test ./internal/wasmvm -run '$(POOL_SMOKE_WASMVM)' -count=1 -race
	$(GO) test ./internal/harness -run '$(POOL_SMOKE_HARNESS)' -count=1 -race

# Serve smoke: the overload-safety and measurement-honesty proofs under
# the race detector (fixed-seed HTTP burst past the queue bound with
# /healthz probed mid-burst, drain-cancels-in-flight, byte-identical
# warm-pool metrics), then an end-to-end benchserve -loadgen -self burst
# that must shed, account for every request, and drain cleanly.
serve-smoke:
	$(GO) test ./internal/serve -run 'TestServeSmoke|TestServeDrainCancelsInFlight|TestServeByteIdentical' -count=1 -race
	$(GO) run ./cmd/benchserve -loadgen -self -requests 60 -rate 300 -queue 4 -serve-workers 2 \
		-loadgen-bench atax,bicg,mvt -loadgen-sizes XS -seed 7 \
		-faults 'wasm.stall:count=6,stall=150ms' -expect-shed

# Input-boundary fuzz: arbitrary bytes through the benchserve /run decoder
# (JSON → request → cell → deadline) must never panic, must return typed
# errors, and must resolve every deadline into (0, max]. No kernel runs.
serve-fuzz:
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzRequestDecode -fuzztime 10s

# Input-boundary fuzz: arbitrary source through the JS engine (parse →
# compile → run under a step limit) must never panic, must fail only with
# typed errors, and must stay within the engine maxima per step. Seeded
# with the kernels' emitted JS; minimizing a new input is capped so the
# short run keeps fuzzing.
js-fuzz:
	$(GO) test ./internal/jsvm -run '^$$' -fuzz FuzzJSRun -fuzztime 10s -fuzzminimizetime 100x

# Input-boundary fuzz: arbitrary bytes through the Wasm front end, as
# wasmrun reads them (decode → validate → instantiate → main under a step
# limit and a small page cap) must never panic and must fail only with
# typed errors; a run that passes cold must report identical virtual
# metrics on a pooled capture and on a snapshot clone. Seeded with the
# kernels' Wasm builds; minimization capped as for js-fuzz.
wasm-fuzz:
	$(GO) test ./internal/wasmvm -run '^$$' -fuzz FuzzWasmDecode -fuzztime 10s -fuzzminimizetime 100x

# Input-boundary fuzz: arbitrary C source through the toolchain, as minicc
# reads it (preprocess → parse → check → IR → optimization at any level →
# Wasm, JS and x86 codegen, either toolchain) must never panic, must fail
# only with compiler.ErrInvalidSource, and must allocate at most 256 MiB
# per compile. Seeded with the kernels and the difftest corpus;
# minimization capped as for js-fuzz.
minic-fuzz:
	$(GO) test ./internal/compiler -run '^$$' -fuzz FuzzMinicParse -fuzztime 10s -fuzzminimizetime 100x

# Open-ended differential fuzzing (not part of check). Override FUZZTIME
# and FUZZ to steer, e.g. make fuzz FUZZ=FuzzDiffOptLevels FUZZTIME=5m.
FUZZTIME ?= 60s
FUZZ ?= FuzzDiffBackends
fuzz:
	$(GO) test ./internal/difftest -fuzz $(FUZZ) -fuzztime $(FUZZTIME)
