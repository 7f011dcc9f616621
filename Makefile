GO ?= go

.PHONY: all build test vet lint scenarios daemon-smoke perfbench bench clean help

all: vet lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Lint: build cmd/moteurvet and run it over the whole program, this
# module plus the nested perfbench module: the determinism checks
# (maprange, simtime), the doc check (exporteddoc) and the reachability
# check (unreachable: no internal/ declaration that no main reaches,
# unless //moteur:keep gives a reason). gofmt rides along: the gate
# fails if any file needs reformatting.
lint:
	$(GO) build -o bin/moteurvet ./cmd/moteurvet
	bin/moteurvet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: the following files need reformatting:"; echo "$$out"; exit 1; \
	fi

# Scenario library sweep: compile and run every scenarios/*.json and
# print one results row per scenario (span/p95/WAN-wait/restage). The
# same specs are pinned by the per-scenario determinism goldens in
# internal/scenario, so this sweep doubles as the CI smoke of the
# declarative world compiler.
scenarios:
	$(GO) run ./cmd/federation -scenarios 'scenarios/*.json'

# Online broker daemon smoke: boot moteurd on the clean baseline at high
# warp, submit a job over HTTP, assert /metrics serves the per-grid
# EWMAs, take a snapshot over HTTP, then SIGTERM and check the final
# on-disk snapshot landed. Exercises the whole daemon path end to end
# from outside the process, curl only.
daemon-smoke:
	$(GO) build -o bin/moteurd ./cmd/moteurd
	@set -e; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	bin/moteurd -scenario scenarios/clean-baseline.json -warp 100000 \
		-addr 127.0.0.1:18321 -snapshot-dir "$$dir" -snapshot-every 2s & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18321/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -sf http://127.0.0.1:18321/healthz >/dev/null; \
	curl -sf -X POST http://127.0.0.1:18321/submit \
		-d '{"tenant":"smoke","name":"probe","runtimeSeconds":30}' | grep -q '"ids"'; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q 'moteur_grid_submit_ewma_seconds{grid="g0"}'; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q 'moteur_grid_queue_ewma_seconds{grid="g1"}'; \
	curl -sf http://127.0.0.1:18321/snapshot | grep -q '"scenario": "clean-baseline"'; \
	kill -TERM $$pid; wait $$pid; \
	grep -q '"final": true' "$$dir/latest.json"; \
	echo "daemon-smoke: OK"

# Repository benchmark smoke: every perfbench workload (metropolis,
# storage-churn, wan-deep, daemon-submit) for a one-second window each.
# perfbench exits 1 unless every workload reproduces its pinned
# fingerprint and passes its conservation audits; the timings it prints
# are a smoke, not a measurement.
perfbench:
	bash perfbench/run.sh --workload all --seconds 1

# Every Go benchmark of the module with allocation stats, printed to
# stdout: the paper tables and ablations, enactor, campaign and grid
# scaling at the root, and BenchmarkScenarioLibrary in
# internal/scenario, which runs each scenarios/*.json spec and fails
# unless every iteration reproduces the spec's pinned fingerprint.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Remove build outputs.
clean:
	rm -rf bin .bench_build

help:
	@echo "Targets:"
	@echo "  all              vet + lint + build + test"
	@echo "  build            go build ./..."
	@echo "  test             go test ./...   (tier-1 verify)"
	@echo "  vet              go vet ./..."
	@echo "  lint             moteurvet (determinism, docs, reachability) + gofmt -l"
	@echo "  scenarios        run the scenarios/*.json library, one results row each"
	@echo "  daemon-smoke     boot moteurd, submit over HTTP, scrape /metrics, snapshot"
	@echo "  perfbench        every perfbench workload for 1s; fails on a pin or audit"
	@echo "  bench            every Go benchmark (paper suite, scaling, scenario library)"
	@echo "  clean            remove bin/ and .bench_build/"
