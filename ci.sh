#!/bin/sh
# Tier-1 verification gate, for environments without make.
set -eux
# Formatting gate: every Go file (e2ebench/ included) is gofmt-clean.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test -race ./...
# The end-to-end benchmark module: vet plus its offline unit tests.
(cd e2ebench && go vet ./... && go test ./...)
# Bench smoke: every benchmark must still run for one iteration.
go test -run=NONE -bench=. -benchtime=1x ./...
# Differential smoke: 200 fixed-seed generated programs + the regression
# corpus through the cross-backend oracle, without -race (full matrix:
# every tier mode on the stack loop and on AOT superblocks, plus pooled).
go test ./internal/difftest -run 'TestSmoke|TestCorpus|TestKernelOptInvariance' -count=1
# Fault drill: fixed-seed fault plan firing the four non-serve injection
# points (wasm.stall, js.heap-oom, compiler.pass, harness.worker-panic);
# each faulted cell runs once and, with no exception, measures
# byte-identical to its clean run or fails with a typed injected error;
# deterministic and race-clean. The serve drills prove the other two points'
# admission faults (serve.admit/serve.shed) surface as typed responses —
# 503/429 over HTTP — never hangs.
go test ./internal/harness -run TestFaultSmoke -count=1 -race
go test ./internal/serve -run 'TestServeFaultDrill|TestServeFaultDrillHTTP' -count=1 -race
# Telemetry smoke: in-process server over a real sweep, all five endpoints
# well-formed, plus the disabled-telemetry zero-overhead proof.
go test ./internal/telemetry -run TestTelemetrySmoke -count=1
go test ./internal/obsv -run 'TestNilTelemetryAllocationFree|TestInstrumentsPreserveVirtualMetrics' -count=1
# Pool drill: snapshot/pool determinism (clones and pooled sweeps
# byte-identical to cold instantiation), commit-on-touch linear memory, and
# concurrent checkout, race-clean; require-tests.sh fails when an
# alternative of a -run pattern names no test.
sh require-tests.sh ./internal/wasmvm 'TestSnapshot|TestPool|TestMemory'
sh require-tests.sh ./internal/harness 'TestPoolSmoke|TestPoolSharedAcrossRuns|TestPoolTelemetry'
go test ./internal/wasmvm -run 'TestSnapshot|TestPool|TestMemory' -count=1 -race
go test ./internal/harness -run 'TestPoolSmoke|TestPoolSharedAcrossRuns|TestPoolTelemetry' -count=1 -race
# Serve smoke: overload safety (fixed-seed burst past the queue bound must
# shed explicitly while /healthz stays live and every request terminates),
# drain-cancels-in-flight, byte-identical warm-pool metrics, then an
# end-to-end benchserve -loadgen -self burst with the accounting identity.
go test ./internal/serve -run 'TestServeSmoke|TestServeDrainCancelsInFlight|TestServeByteIdentical' -count=1 -race
go run ./cmd/benchserve -loadgen -self -requests 60 -rate 300 -queue 4 -serve-workers 2 \
  -loadgen-bench atax,bicg,mvt -loadgen-sizes XS -seed 7 \
  -faults 'wasm.stall:count=6,stall=150ms' -expect-shed
# Input-boundary fuzz: the benchserve /run decoder never panics, returns
# typed errors, and bounds every deadline; no kernel runs.
go test ./internal/serve -run '^$' -fuzz FuzzRequestDecode -fuzztime 10s
# The JS engine's input boundary: never panics, fails only with typed
# errors, stays within the engine maxima per step.
go test ./internal/jsvm -run '^$' -fuzz FuzzJSRun -fuzztime 10s -fuzzminimizetime 100x
# The Wasm input boundary: never panics, fails only with typed errors, and
# a pooled capture and a snapshot clone match the cold run.
go test ./internal/wasmvm -run '^$' -fuzz FuzzWasmDecode -fuzztime 10s -fuzzminimizetime 100x
# The C front end's input boundary: never panics, fails only with
# compiler.ErrInvalidSource, and allocates at most 256 MiB per compile.
go test ./internal/compiler -run '^$' -fuzz FuzzMinicParse -fuzztime 10s -fuzzminimizetime 100x
