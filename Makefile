# Convenience entry points mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test race lint fmt vet pmlint trace bench-baseline perf chaos scope-reports fuzz ci

all: build test

build:
	$(GO) build ./...

# test and race run every end-to-end smoke with the rest of the suite:
# the `pmctl trace` round trip, the flight-recorder doctor chain
# (DESIGN.md §12), the pulse and scope telemetry chains (§15, §16) and
# the `pmctl top` / `pmctl scope` surfaces. None skips itself.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = everything CI gates on besides the test suite. vet is the gate
# for copied locks; pmlint keeps only the rules no other gate proves
# (DESIGN.md §9).
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

# trace records one FWB microbenchmark run and writes a Chrome
# trace_event timeline to trace.json (open in about:tracing or
# ui.perfetto.dev); the per-phase breakdown prints on stdout.
trace:
	$(GO) run ./cmd/pmctl trace -bench hash -mode fwb -threads 2 -log-kb 32 -o trace.json

# bench-baseline regenerates the committed microbenchmark grid dump
# (the 1- and 2-thread rows BENCH_micro.json holds). The simulator is
# deterministic, so a diff here means behavior changed.
bench-baseline:
	$(GO) run ./cmd/experiments -json -threads 1,2
	git diff --exit-code BENCH_micro.json

# perf guards the wall-clock path (DESIGN.md §11): the zero-allocation
# tests on the nvlog append path and the shard's apply and batch paths
# (the gate for hot-path allocation since pmlint's rule retired) and the simulator's
# hand-off guard (coroutine switches only on a real switch), then a smoke run
# (~65 s) of pmbench, the repo's benchmark (BENCHMARK.json, benchmark/):
# four value-checked workloads writing benchmark/out/result.json.
# Wall-clock numbers vary by host; benchmark/out/reference.json is the
# committed reference, CI uploads each run's result as an artifact.
perf:
	$(GO) test ./internal/nvlog ./internal/server ./internal/sim -run 'ZeroAlloc|HandOffGuard' -count=1
	bash benchmark/run.sh -short

# chaos is the fixed-seed fault-injection campaign (DESIGN.md §13):
# the full scenario matrix (torn log lines, partial drains, dropped and
# delayed write-backs, bank stalls, combined, network faults) swept
# over 20 seeds. Deterministic — a failure here names the seed that
# replays it exactly. Scratch state (images, flight dumps) and the
# JSON report land in chaos-out/.
chaos:
	mkdir -p chaos-out
	$(GO) run ./cmd/pmchaos -seeds 20 -dir chaos-out -o chaos-out/chaos-report.json

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

ci: build lint test race bench-baseline perf chaos fuzz
