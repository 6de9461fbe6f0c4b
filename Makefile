GO ?= go

# Packages whose concurrency matters enough to gate on the race detector.
RACE_PKGS = ./internal/obs ./internal/selection ./internal/estimate ./internal/serve ./internal/modelcache ./internal/faults ./internal/ingest

# Coverage floor (percent) enforced by `make cover` over ./internal/...
COVER_FLOOR = 70

# Allowed fractional per-benchmark slowdown in `make bench-check`. Generous
# on purpose: shared CI runners are noisy; this gate is for 2x-style
# regressions, not 10% jitter.
BENCH_TOLERANCE = 0.5

# Allowed fractional allocs/op growth in `make bench-check`. Much tighter
# than the time gate: allocation counts are near-deterministic, and a
# zero-alloc baseline (the Scale probe path) is pinned exactly.
BENCH_ALLOC_TOLERANCE = 0.25

# Benchmark corpus size: quick runs the 64- and 1k-candidate Scale
# fixtures; full adds the 15,275-source paper corpus (minutes, not
# seconds — use it when refreshing BENCH_selection.json).
BENCH_SCALE ?= quick

# Build identity stamped into the binaries (/healthz and benchjson
# reports record it).
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -ldflags "-X freshsource/internal/version.Version=$(VERSION) -X freshsource/internal/version.Commit=$(COMMIT)"

# GOMAXPROCS for the committed multi-core bench profile. 2 keeps the
# profile reproducible on small CI runners while still exercising the
# parallel sweep paths. The host needs at least 2 CPUs: with one, extra
# procs only time-slice a single core, so bench-multicore refuses to
# record such a profile.
MULTICORE_GOMAXPROCS ?= 2

# Time tolerance for the multi-core gate. Looser than BENCH_TOLERANCE
# because shared runners suffer host CPU steal, which swings parallel wall
# times far more than sequential ones. The gate targets order-of-magnitude
# parallel-path regressions; precise timing
# regressions stay gated by bench-check, and allocs/op — deterministic
# regardless of contention — keep the tight BENCH_ALLOC_TOLERANCE.
MULTICORE_TOLERANCE ?= 2.0

# Speedup assertions for the multi-core profile: each Fast<Slow pair must
# hold in the fresh run (benchjson -require-faster). Unlike the tolerance
# gate this is never waived — it is what keeps CELF's pooled singleton
# sweep and Greedy's pooled sweeps genuinely faster than their sequential
# baselines whenever GOMAXPROCS > 1. CI's quick run gates CELF at 1k;
# pairs whose benchmarks a quick run skips (the 15k corpus) are noted,
# not failed, and the full-scale run gates them.
MULTICORE_FASTER ?= ScaleCELF/1k/parallel<ScaleCELF/1k/seq,ScaleCELF/15k/parallel<ScaleCELF/15k/seq,Greedy/parallel+incr<Greedy/incr

# Per-benchmark time for the multi-core profile. Longer than the default
# 1s so each gated pair averages over a window wide enough to ride out
# shared-runner CPU-steal spikes, which otherwise decide the
# require-faster comparison by lottery.
MULTICORE_BENCHTIME ?= 3s

.PHONY: build vet test race chaos lint cover bench bench-smoke bench-check bench-paper bench-multicore bench-multicore-check bench-harness verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Fault-injection ("chaos") suite: the degraded-mode guarantees of the
# serving stack — hot-reload rollback on corrupt snapshots, torn model
# cache files, disk latency, mid-fit cancellation, reload under fire, and
# the streaming-ingestion seams (torn epoch logs, replayed epochs,
# refit-mid-stream failures) — driven through internal/faults and run
# under the race detector. Then each fuzz target over outside bytes runs
# for 10 s from its seed corpus: those read from disk (epoch-log recovery,
# the model-cache codec, snapshot reads, the tenant manifest) and the
# /v1/select and /v1/quality request bodies. Short, so every CI run fuzzes
# each decoder a little. Minimising a new input is capped at
# 100 ms: at Go's 60 s default one minimisation can stall a target's whole
# window, and at 1 s the minimisations of a run's new inputs still fill
# most of it.
chaos:
	$(GO) test -race ./internal/faults
	$(GO) test -race ./internal/ingest
	$(GO) test -race -run 'Chaos|Reload|EpochFlush|Detached|RegistryClose|Ingest|Observe|Epoch' ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 10s -fuzzminimizetime 100ms ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s -fuzzminimizetime 100ms ./internal/modelcache
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s -fuzzminimizetime 100ms ./internal/snapio
	$(GO) test -run '^$$' -fuzz '^FuzzLoadTenantManifest$$' -fuzztime 10s -fuzzminimizetime 100ms ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzHandlers$$' -fuzztime 10s -fuzzminimizetime 100ms ./internal/serve

# Formatting + static analysis. gofmt failures print the offending files and
# fail; staticcheck runs when installed (CI installs it; local dev without
# it still gets gofmt + vet).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: files need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	@tracked=$$(git ls-files | grep -E '\.test$$' || true); \
	if [ -n "$$tracked" ]; then \
		echo "lint: compiled test binaries must not be tracked:"; echo "$$tracked"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Total test coverage over the library packages with a hard floor.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_FLOOR))}" || \
		{ echo "cover: total coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }

# The benchmarks behind bench / bench-smoke / bench-check: the selection
# variant families, the estimator micro-benches, and the Scale family
# (64/1k/15k-candidate corpora; 15k gated on BENCH_SCALE=full).
BENCH_RE = BenchmarkGreedy|BenchmarkGRASP|BenchmarkQualityMultiAdd|BenchmarkEstimatorNew|BenchmarkScale
BENCH_PKGS = ./internal/selection ./internal/estimate ./internal/modelcache

# Selection hot-path benchmarks → BENCH_selection.json (ns/op and
# allocs/op per variant plus speedups of each accelerated path over its
# sequential baseline). BENCH_SCALE=full includes the 15k paper corpus.
bench:
	BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -timeout 30m \
		$(BENCH_PKGS) | tee /tmp/bench_selection.out
	$(GO) run $(LDFLAGS) ./cmd/benchjson -out BENCH_selection.json < /tmp/bench_selection.out

# One-iteration pass over the same benchmarks: CI's compile-and-run gate.
bench-smoke:
	BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -benchtime=1x -timeout 30m \
		$(BENCH_PKGS)

# Bench-regression gate: run the tracked benchmarks fresh and diff against
# the committed BENCH_selection.json; fails on any slowdown beyond
# BENCH_TOLERANCE or allocs/op growth beyond BENCH_ALLOC_TOLERANCE.
# Refresh the baseline with `make bench BENCH_SCALE=full` after intended
# performance changes. Quick runs simply skip the 15k benchmarks — absent
# benchmarks are compare warnings, not failures.
bench-check:
	BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -timeout 30m \
		$(BENCH_PKGS) | \
		$(GO) run $(LDFLAGS) ./cmd/benchjson -compare BENCH_selection.json \
			-tolerance $(BENCH_TOLERANCE) -alloc-tolerance $(BENCH_ALLOC_TOLERANCE)

# Multi-core bench profile → BENCH_multicore.json: the same tracked
# benchmarks pinned at GOMAXPROCS=$(MULTICORE_GOMAXPROCS), so the parallel
# sweep speedups are gated on a profile that actually has cores (the
# default BENCH_selection.json baseline may come from a single-core box,
# where benchjson waives the parallel-variant gate entirely). Two recipe
# lines on purpose: an env prefix only covers the first command of a
# pipeline, so the bench run and the benchjson reduction each carry their
# own GOMAXPROCS. The profile is checked in /tmp and only then moved over
# BENCH_multicore.json, so a run at GOMAXPROCS=1 or on a 1-CPU host never
# replaces the committed baseline.
bench-multicore:
	GOMAXPROCS=$(MULTICORE_GOMAXPROCS) BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -benchtime=$(MULTICORE_BENCHTIME) -timeout 30m \
		$(BENCH_PKGS) > /tmp/bench_multicore.out
	GOMAXPROCS=$(MULTICORE_GOMAXPROCS) $(GO) run $(LDFLAGS) ./cmd/benchjson -out /tmp/bench_multicore.json \
		-require-faster '$(MULTICORE_FASTER)' < /tmp/bench_multicore.out
	@grep -q '"gomaxprocs": "1"' /tmp/bench_multicore.json && \
		{ echo "bench-multicore: profile recorded GOMAXPROCS=1; want >1"; exit 1; } || true
	@grep -q '"numcpu": "1"' /tmp/bench_multicore.json && \
		{ echo "bench-multicore: profile recorded on 1 CPU; want numcpu >= 2"; exit 1; } || true
	mv /tmp/bench_multicore.json BENCH_multicore.json

# Multi-core regression gate: fresh GOMAXPROCS-pinned run diffed against
# the committed BENCH_multicore.json, parallel-variant speedup gate
# included (never waived, unlike a single-core run).
bench-multicore-check:
	GOMAXPROCS=$(MULTICORE_GOMAXPROCS) BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -benchtime=$(MULTICORE_BENCHTIME) -timeout 30m \
		$(BENCH_PKGS) > /tmp/bench_multicore.out
	GOMAXPROCS=$(MULTICORE_GOMAXPROCS) $(GO) run $(LDFLAGS) ./cmd/benchjson -compare BENCH_multicore.json \
		-tolerance $(MULTICORE_TOLERANCE) -alloc-tolerance $(BENCH_ALLOC_TOLERANCE) \
		-require-faster '$(MULTICORE_FASTER)' < /tmp/bench_multicore.out

# Scaled-down paper-experiment benches at the repo root.
bench-paper:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# The benchmark harness (freshperf/) is a Go module of its own that builds
# against this checkout through a replace directive, so build/vet/test
# above never compile it. Vetting and testing it here makes a change to an
# internal API the harness calls fail in CI instead of in the next
# benchmark run.
bench-harness:
	cd freshperf && $(GO) vet ./... && $(GO) test ./...

# Tier-1 verification: everything CI runs.
verify: build vet test race
