GO ?= go

.PHONY: check vet build test race fuzz-mem trace-demo mem-demo insight-demo telem-demo bench-gate bench-baseline

# check is the tier-1 gate: everything must pass before a merge.
check: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-bearing subsystems — the cluster scheduler, the
# metrics registry, the shared lifecycle pool, the Fireworks invoke
# pipeline, the fault-injection plane, the event journal, the message
# bus, the host memory accountant, the chunked snapshot store, and the
# telemetry sampler/watchdog — additionally run under the race
# detector, as does the insight engine (it reads journals and metrics
# registries that other goroutines still write) and the tail sampler
# (it observes journal appends and drops traces concurrently).
race:
	$(GO) test -race ./internal/cluster/... ./internal/metrics/... ./internal/core/... ./internal/lifecycle/... ./internal/faults/... ./internal/events/... ./internal/msgbus/... ./internal/mem/... ./internal/snapshot/... ./internal/timeseries/... ./internal/workflow/... ./internal/insight/... ./internal/telemetry/...

# fuzz-mem runs the differential page-accounting fuzzer: random op
# sequences against internal/mem's dense page state and a map-based
# reference model, which must agree on every observable after every op.
# FUZZTIME bounds the run.
FUZZTIME ?= 30s
fuzz-mem:
	$(GO) test ./internal/mem -run '^$$' -fuzz '^FuzzPageAccounting$$' -fuzztime $(FUZZTIME)

# trace-demo runs a faulted fwsim demo, dumps its event journal as
# Chrome trace-event JSON, and sanity-checks that the dump parses and
# carries events (cmd/tracecheck). The artifact is Perfetto-loadable.
trace-demo:
	$(GO) run ./cmd/fwsim -metrics text -nodes 3 -invocations 12 -faults seed=7,rate=0.05 -trace-dump trace-demo.json > /dev/null
	$(GO) run ./cmd/tracecheck trace-demo.json
	rm -f trace-demo.json

# bench-gate runs the hot-path benchmarks and compares them against
# the committed baseline (BENCH_simharness.json), failing on
# regression. CI uses a short benchtime; see docs/benchmarking.md for
# the tolerance policy.
bench-gate:
	$(GO) run ./cmd/benchgate -benchtime 200ms -out bench-fresh.json

# bench-baseline refreshes the committed baseline from a longer run on
# the current machine. Commit the resulting BENCH_simharness.json.
bench-baseline:
	$(GO) run ./cmd/benchgate -write -benchtime 1s -count 2

# insight-demo replays the chaos storm through the insight experiment,
# writes the report and service-graph artifacts, and fails on any WARN
# shape check (blame attribution, exemplar resolution, same-seed
# byte-identical reports).
insight-demo:
	mkdir -p insight-demo-artifacts
	$(GO) run ./cmd/fwbench -run insight -artifacts insight-demo-artifacts > insight-demo.log || { cat insight-demo.log; rm -f insight-demo.log; exit 1; }
	cat insight-demo.log
	! grep -q '\[WARN' insight-demo.log
	grep -q 'digraph insight' insight-demo-artifacts/insight-servicegraph.dot
	test -s insight-demo-artifacts/insight-report.json
	rm -f insight-demo.log

# telem-demo runs the tail-sampling experiment — the exposed chaos
# storm with the telemetry governor armed — writes the sampled NDJSON
# journal and coverage-annotated insight report, and fails on any WARN
# shape check (>=5x byte reduction, 100% error/fault/DLQ retention,
# layout-invariant and same-seed byte-identical exports).
telem-demo:
	mkdir -p telem-demo-artifacts
	$(GO) run ./cmd/fwbench -run telem -artifacts telem-demo-artifacts > telem-demo.log || { cat telem-demo.log; rm -f telem-demo.log; exit 1; }
	cat telem-demo.log
	! grep -q '\[WARN' telem-demo.log
	test -s telem-demo-artifacts/telem-sampled.ndjson
	test -s telem-demo-artifacts/telem-insight.json
	rm -f telem-demo.log

# mem-demo runs the memory-timeline experiment (Fig-10 methodology on a
# scaled host), writes its CSV artifacts, and sanity-checks them with
# cmd/memcheck: header shape, the mem_used_bytes series, and strictly
# advancing virtual timestamps.
mem-demo:
	mkdir -p mem-demo-artifacts
	$(GO) run ./cmd/fwbench -run memtl -artifacts mem-demo-artifacts
	$(GO) run ./cmd/memcheck mem-demo-artifacts/memory-timeline-fireworks.csv
	$(GO) run ./cmd/memcheck mem-demo-artifacts/memory-timeline-firecracker.csv
