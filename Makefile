# dcmodel build targets. Run `make help` for a summary.

GO ?= go

.PHONY: all build vet fmt-check test test-race race chaos obs spec cluster whatif provision cover cover-spec bench fuzz fuzz-smoke perfbench-check vulncheck examples artifacts serve loadtest clean help

all: build vet test

help:
	@echo "dcmodel targets:"
	@echo "  all        build + vet + test"
	@echo "  build      go build ./..."
	@echo "  vet        go vet ./..."
	@echo "  fmt-check  fail if gofmt -l . lists any file"
	@echo "  test       go test ./..."
	@echo "  test-race  go test -race ./... — the concurrency gate for the"
	@echo "             parallel cross-examination engine and sharded simulator"
	@echo "  race       alias for test-race"
	@echo "  chaos      fault-armed acceptance run under -race: fault engine,"
	@echo "             degraded simulation/replay, breaker + armed-drain daemon"
	@echo "  obs        observability gate: vet, the pprof-import guard, and"
	@echo "             the obs/serve/dapper suites under -race (metrics golden,"
	@echo "             trace determinism, 96-client scrape lifecycle)"
	@echo "  spec       workload-spec gate: vet + the internal/spec suite"
	@echo "             (parser, golden presets, worker-count determinism) under -race"
	@echo "  cluster    distributed-cluster gate: the coordinator/worker suite"
	@echo "             under -race (hash-ring routing, exact-merge byte-identity,"
	@echo "             mid-run kill with zero dropped requests)"
	@echo "  whatif     analytical-twin gate under -race: twin compilers +"
	@echo "             solvers, the facade BuildTwin/WhatIf surface, the"
	@echo "             /v1/whatif byte-stability + no-DES contract, and the"
	@echo "             six-preset twin-vs-DES deviation bounds"
	@echo "  provision  closed-loop optimizer gate under -race: the"
	@echo "             internal/optimize suite (byte-identical plans for any"
	@echo "             worker count, strategy determinism), the facade's"
	@echo "             mapreduce reproduction, and the daemon's /v1/provision"
	@echo "             + drift-triggered auto-reprovision lifecycle"
	@echo "  cover      go test -cover ./... + the internal/spec coverage floor"
	@echo "  cover-spec enforce the $(SPEC_COVER_FLOOR)% statement-coverage floor on internal/spec"
	@echo "  bench      regenerate every table/figure + ablations (-bench=. -benchmem)"
	@echo "  fuzz       run the codec, sharded-simulator, spec and cluster-model"
	@echo "             decoder fuzz targets (30s each)"
	@echo "  fuzz-smoke quick CI fuzz pass over the same targets (10s each)"
	@echo "  perfbench-check  vet + test the nested perfbench module, which"
	@echo "             go build ./... does not reach"
	@echo "  vulncheck  govulncheck over the whole module (installed on demand)"
	@echo "  examples   run every example program"
	@echo "  artifacts  record test + bench output to *_output.txt"
	@echo "  serve      run the dcmodeld model-serving daemon on :8080"
	@echo "  loadtest   ingest a simulated trace into a running daemon and"
	@echo "             fire 64 concurrent synthesize requests at it"
	@echo "  clean      remove build cache and recorded artifacts"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to rewrite anywhere in the tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt would rewrite:"; echo "$$out"; exit 1; fi

# vet gates test so a vet regression can never ride in on a green test run.
test: vet
	$(GO) test ./...

# The race detector must stay clean: parallel cross-examination, sharded
# simulation and concurrent synthesis all run under it in CI.
test-race:
	$(GO) test -race ./...

race: test-race

# Chaos gate: every fault-injection and failure-recovery test under the
# race detector — the deterministic fault engine, degraded GFS simulation
# and replay, the facade's faulty sharded run, and the daemon's breaker +
# fault-armed drain lifecycle (zero dropped in-flight requests).
chaos:
	$(GO) test -race -count=1 ./internal/fault/
	$(GO) test -race -count=1 -run 'Fault|Degraded|Breaker|Faulty|HealthyReplay' \
		. ./internal/gfs/ ./internal/replay/ ./internal/serve/ ./internal/crossexam/

# Observability gate: the profiling surface stays confined to
# internal/obs (one deliberate, flag-gated mount point), the /metrics
# exposition stays byte-identical to its golden file, and the tracing
# substrate stays race-clean under the 96-client scrape lifecycle.
obs:
	$(GO) vet ./...
	@bad=$$($(GO) list -f '{{.ImportPath}} {{join .Imports ","}},{{join .TestImports ","}}' ./... \
		| grep 'net/http/pprof' | grep -v '^dcmodel/internal/obs ' || true); \
	if [ -n "$$bad" ]; then \
		echo "net/http/pprof imported outside internal/obs (mount via obs.RegisterPprof):"; \
		echo "$$bad"; exit 1; \
	fi
	$(GO) test -race -count=1 ./internal/obs/ ./internal/serve/ ./internal/dapper/

# Spec gate: the declarative workload-spec engine's whole suite — parser
# precision, preset goldens, phase math and the worker-count determinism
# contract — under the race detector.
spec:
	$(GO) vet ./internal/spec/ ./presets/
	$(GO) test -race -count=1 -run TestSpec ./internal/spec/

# Cluster gate: the distributed coordinator/worker subsystem under the
# race detector — consistent-hash routing, the exact-merge determinism
# contract (merged model byte-identical to single-node training for any
# worker count and interleaving), and fault-scheduled mid-run kills with
# zero dropped requests.
cluster:
	$(GO) test -race -count=1 ./internal/cluster/

# Analytical-twin gate: the closed-form fast path's whole contract under
# the race detector — the twin compilers and queueing solvers, the facade
# surface, the daemon's /v1/whatif (byte-stable responses, no DES, no work
# queue), and the pinned twin-vs-DES deviation bounds on all six presets.
whatif:
	$(GO) test -race -count=1 ./internal/twin/ ./internal/queueing/
	$(GO) test -race -count=1 -run 'Twin|WhatIf' . ./internal/serve/ ./internal/crossexam/

# Closed-loop provisioning gate: the optimizer's determinism contract
# (plans byte-identical for any worker count and population order), the
# facade's mapreduce 21-server reproduction, and the daemon's /v1/provision
# endpoint + drift-triggered auto-reprovision with zero dropped requests —
# all under the race detector.
provision:
	$(GO) test -race -count=1 ./internal/optimize/
	$(GO) test -race -count=1 -run 'Provision|QueryEnvelope|AutoReprovision' . ./internal/serve/

cover: cover-spec
	$(GO) test -cover ./...

# The spec engine is the repo's configuration surface; its statement
# coverage must not sink below the floor.
SPEC_COVER_FLOOR = 85
cover-spec:
	@$(GO) test -coverprofile=/tmp/spec_cover.out ./internal/spec/ > /dev/null
	@pct=$$($(GO) tool cover -func=/tmp/spec_cover.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "internal/spec coverage: $$pct% (floor $(SPEC_COVER_FLOOR)%)"; \
	ok=$$(echo "$$pct $(SPEC_COVER_FLOOR)" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "internal/spec coverage $$pct% fell below the $(SPEC_COVER_FLOOR)% floor"; exit 1; \
	fi

# Regenerates every table/figure and runs the ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzBinaryCodec -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzShardedCodecRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzSpanReader -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzSpecParse -fuzztime=$(FUZZTIME) -run '^$$' ./internal/spec/
	$(GO) test -fuzz=FuzzSpecRoundTrip -fuzztime=$(FUZZTIME) -run '^$$' ./internal/spec/
	$(GO) test -fuzz=FuzzUnmarshalModel -fuzztime=$(FUZZTIME) -run '^$$' ./internal/cluster/
	$(GO) test -fuzz=FuzzUnmarshalAccumulator -fuzztime=$(FUZZTIME) -run '^$$' ./internal/markov/

# The CI smoke pass: same targets, 10 seconds each.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# perfbench is a nested module (its own go.mod), so ./... at the root
# never compiles it; a facade change that breaks the benchmark shows up
# here instead of in the benchmark run. Offline and read-only: the module
# has no dependencies beyond the repo itself.
perfbench-check:
	cd perfbench && export GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off && \
		$(GO) vet ./... && $(GO) test ./...

# Known-vulnerability scan over the module and its (stdlib-only)
# dependency graph. Installs govulncheck on demand; CI runs this on every
# push.
vulncheck:
	@command -v govulncheck >/dev/null 2>&1 || $(GO) install golang.org/x/vuln/cmd/govulncheck@latest
	govulncheck ./...

examples:
	@for ex in quickstart storagestudy webtier selfsimilar serverconfig incast tracing memorymodel; do \
		echo "== examples/$$ex =="; \
		$(GO) run ./examples/$$ex || exit 1; \
	done

# The artifacts EXPERIMENTS.md records.
artifacts:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Runs the model-serving daemon in the foreground (Ctrl-C / SIGTERM
# drains gracefully). Override flags with SERVE_FLAGS.
SERVE_ADDR ?= :8080
serve:
	$(GO) run ./cmd/dcmodeld -addr $(SERVE_ADDR) $(SERVE_FLAGS)

# Exercises a running daemon (start one with `make serve` first): streams
# a 4000-request simulated GFS trace into the window, then fires 64
# concurrent synthesize requests and prints the status-code tally — 200s
# are served syntheses, 429s are the bounded queue pushing back.
LOADTEST_URL ?= http://localhost:8080
loadtest:
	$(GO) run ./cmd/gfstrace -requests 4000 -rate 200 -o /tmp/dcmodeld_load.csv
	curl -s --data-binary @/tmp/dcmodeld_load.csv $(LOADTEST_URL)/v1/ingest; echo
	@rm -f /tmp/dcmodeld_codes.txt; \
	for i in $$(seq 1 64); do \
		curl -s -o /dev/null -w "%{http_code}\n" \
			"$(LOADTEST_URL)/v1/synthesize?n=2000&seed=$$i" >> /tmp/dcmodeld_codes.txt & \
	done; wait; sort /tmp/dcmodeld_codes.txt | uniq -c
	curl -s $(LOADTEST_URL)/metrics | grep -E 'dcmodeld_(queue_rejected_total|retrain_total|window_requests)'

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
