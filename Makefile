# Convenience entry points mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race lint fmt vet pmlint pmlint-flow trace trace-test bench-baseline perf doctor chaos pulse scope scope-reports fuzz ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = everything CI gates on besides the test suite.
lint: fmt vet pmlint

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# pmlint runs under a 60s budget: the CFG/dominance engine must stay
# cheap enough for every local gate, so a fixpoint regression that blows
# up analysis time fails the build instead of slowly rotting it.
pmlint:
	timeout 60 $(GO) run ./cmd/pmlint ./...

# pmlint-flow is the CI smoke for the path-sensitive ordering rules
# alone (txnpair, quiesceorder, logbeforedata, ackafterdurable,
# deferredunlock): a fast re-check that the flow engine itself loads,
# fixpoints, and proves the tree clean.
pmlint-flow:
	timeout 60 $(GO) run ./cmd/pmlint -only flow ./...

# trace records one FWB microbenchmark run and writes a Chrome
# trace_event timeline to trace.json (open in about:tracing or
# ui.perfetto.dev); the per-phase breakdown prints on stdout.
trace:
	$(GO) run ./cmd/pmctl trace -bench hash -mode fwb -threads 2 -log-kb 32 -o trace.json

# trace-test is the `pmctl trace` round-trip acceptance test (also part of
# `test`, but gated explicitly so ci fails loudly if the exporter breaks).
trace-test:
	$(GO) test ./cmd/pmctl -run 'TestRoundTrip|TestStdoutMode|TestBadFlags' -count=1

# bench-baseline regenerates the committed microbenchmark grid dump
# (the 1- and 2-thread rows BENCH_micro.json holds). The simulator is
# deterministic, so a diff here means behavior changed.
bench-baseline:
	$(GO) run ./cmd/experiments -json -threads 1,2
	git diff --exit-code BENCH_micro.json

# perf guards the wall-clock path (DESIGN.md §11): the zero-allocation
# tests on the nvlog append and shard apply hot paths and the simulator's
# hand-off guard (goroutine switches only on a real switch), then a smoke run
# (~65 s) of pmbench, the repo's benchmark (BENCHMARK.json, benchmark/):
# four value-checked workloads writing benchmark/out/result.json.
# Wall-clock numbers vary by host; benchmark/out/reference.json is the
# committed reference, CI uploads each run's result as an artifact.
perf:
	$(GO) test ./internal/nvlog ./internal/server ./internal/sim -run 'ZeroAlloc|HandOffGuard' -count=1
	bash benchmark/run.sh -short

# doctor is the flight-recorder smoke (DESIGN.md §12): boot a server,
# push spanned traffic, capture a flight dump, and assert `pmctl doctor`
# renders causal timelines from it. Also part of `test`, gated
# explicitly so ci fails loudly if the forensics pipeline breaks.
doctor:
	$(GO) test ./cmd/pmctl -run TestDoctorSmoke -count=1

# chaos is the fixed-seed fault-injection campaign (DESIGN.md §13):
# the full scenario matrix (torn log lines, partial drains, dropped and
# delayed write-backs, bank stalls, combined, network faults) swept
# over 20 seeds. Deterministic — a failure here names the seed that
# replays it exactly. Scratch state (images, flight dumps) and the
# JSON report land in chaos-out/.
chaos:
	mkdir -p chaos-out
	$(GO) run ./cmd/pmchaos -seeds 20 -dir chaos-out -o chaos-out/chaos-report.json

# pulse is the live-telemetry smoke (DESIGN.md §15): the /pulse.json
# schema round-trip, the end-to-end chain (spanned traffic → closed
# window → stage waterfall accounting for the e2e p99 → exemplar
# resolvable in a flight dump → OpenMetrics gauges), and a `pmctl top
# -once` golden frame rendered against a live server. Also part of `test`,
# gated explicitly so ci fails loudly if the operator surface breaks.
pulse:
	$(GO) test ./internal/obs/pulse -run TestPulseSchemaRoundTrip -count=1
	$(GO) test ./internal/server -run 'TestPulseEndToEnd|TestHealthzDegraded' -count=1
	$(GO) test ./cmd/pmctl -run 'TestRenderFixture|TestOnceAgainstLiveServer' -count=1

# scope is the persistence-cost accounting gate (DESIGN.md §16): the
# scope ledger unit tests (zero-alloc steady state under race included),
# the /pulse.json v2 golden round-trip + v1 decode compat + wrap
# forecast, the live e2e (zipfian coalescible above uniform; wrap
# forecast within ±25% of an observed wrap, counted in windows), and the
# `pmctl scope` / `pmctl top` analyzer surfaces.
scope:
	$(GO) test -race ./internal/obs/scope -count=1
	$(GO) test ./internal/obs/pulse -run 'TestScopeGoldenRoundTrip|TestDocDecodeV1Compat|TestScopeWrapForecast' -count=1
	$(GO) test ./internal/server -run 'TestScopeCoalescibleZipfVsUniform|TestScopeWrapForecastLive' -count=1
	$(GO) test ./cmd/pmctl -run 'Scope|Residency|Render|Once' -count=1

# scope-reports prices every flight dump that DUMPS matches with `pmctl
# scope -json`, writing <dump>.scope.json beside each. A dump that fails
# to price is skipped: the reports ride along with uploaded artifacts
# and gate nothing. CI runs it over the kill-trial dumps and, when the
# chaos campaign fails, over its surviving dumps.
DUMPS ?= flight-dumps/*.json

scope-reports:
	@for d in $(DUMPS); do \
		[ -e "$$d" ] || continue; \
		$(GO) run ./cmd/pmctl scope -json "$$d" > "$${d%.json}.scope.json" || true; \
	done

# fuzz runs every fuzzer for 10s: the log record decode, torn-bit scan
# and metadata walk (plus booting from what the walk accepts), the image
# file, the server manifest, the flight dump, and both wire decoders.
FUZZERS = ./internal/nvlog:FuzzDecode ./internal/nvlog:FuzzScan \
	./internal/nvlog:FuzzWalk ./internal/mem:FuzzReadPhysical \
	./internal/server:FuzzParseManifest ./internal/flight:FuzzParseDump \
	./internal/server:FuzzDecodeRequest ./internal/server:FuzzDecodeResponse

fuzz:
	@set -e; for f in $(FUZZERS); do \
		echo "fuzz $$f"; \
		$(GO) test $${f%%:*} -run '^$$' -fuzz "^$${f##*:}$$" -fuzztime 10s; \
	done

ci: build lint pmlint-flow test race trace-test bench-baseline perf doctor chaos pulse scope fuzz
