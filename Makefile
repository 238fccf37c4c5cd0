GO ?= go

.PHONY: build test race debugguard fasttest vet lint lint-json lint-timing lint-ci bench bench-smoke chaos loadgen check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run over the whole module; the flnet/faults chaos tests
# are written to be meaningful under -race (concurrent round closing,
# retry storms, deadline timers). Shuffled execution order with -count=1
# keeps tests honest about hidden ordering dependencies and stale caches.
race:
	$(GO) test -race -shuffle=on -count=1 ./...

# The fhdnndebug build tag swaps a runtime aliasing guard into the tensor
# Into/Accum kernels (unsafe pointer-range overlap check, panics at the
# offending call site). Release builds get a no-op stub.
debugguard:
	$(GO) test -race -tags fhdnndebug -count=1 ./internal/tensor/

# The fhdnnfast build tag swaps the SSE saxpyQuad microkernel for an
# AVX2/FMA one: faster, deterministic within the build, but NOT
# bit-identical to the default build (fused multiply-adds round once).
# Tests that compare kernels against scalar references re-baseline or
# skip via tensor.FastKernels(); everything else must still pass.
fasttest:
	$(GO) test -tags fhdnnfast -count=1 ./...

# Repo-specific static analysis: determinism, goroutine discipline, wire
# error handling, print/panic hygiene, float32 kernel discipline, plus the
# dataflow rules (aliasing, lockheld, hotalloc, ctxflow). See DESIGN.md
# "Static analysis & enforced invariants".
lint:
	$(GO) run ./cmd/fhdnn-lint ./...

# Machine-readable findings, including //fhdnn:allow-suppressed ones; CI
# uploads this file as an artifact on every matrix leg.
lint-json:
	$(GO) run ./cmd/fhdnn-lint -json -suppressed ./... | tee fhdnn-lint.json

# Per-rule wall-time report on stderr, captured to a file for the CI
# artifact. The call graph, channel inventory and taint fixpoint are
# built once and shared across the module-wide rules; -budget makes the
# 10s whole-repo ceiling a hard failure, so timing regressions land as
# red CI instead of a slowly rotting artifact.
lint-timing:
	@$(GO) run ./cmd/fhdnn-lint -timing -budget 10s ./... 2> fhdnn-lint-timing.txt; \
	st=$$?; cat fhdnn-lint-timing.txt; exit $$st

# The lint invocation CI runs (in the test matrix leg only — the
# analyzer loads the release build view whatever the build tags):
# machine-readable findings (including suppressed ones) to
# fhdnn-lint.json, the per-rule timing report to fhdnn-lint-timing.txt,
# and the 10s sweep budget enforced; both files are uploaded as artifacts.
lint-ci:
	@$(GO) run ./cmd/fhdnn-lint -json -suppressed -timing -budget 10s ./... \
		> fhdnn-lint.json 2> fhdnn-lint-timing.txt; \
	st=$$?; cat fhdnn-lint.json; cat fhdnn-lint-timing.txt >&2; exit $$st

# Seeded poisoning chaos: the Byzantine/robust-aggregation suite under
# the race detector with shuffled execution, then the attack/defense
# matrix (40% colluding poisoners vs every aggregation policy), saved as
# poison-experiments.txt. See DESIGN.md "Threat model & robust
# aggregation" and the Byzantine section of EXPERIMENTS.md. In between,
# the whole flnet suite five times over under -race: the shard-token
# protocol (threshold/deadline/shutdown commits racing upload handlers)
# is timing-dependent, so one pass proves little.
chaos:
	$(GO) test -race -shuffle=on -count=1 -run 'Byzantine|Robust|Poison|Quarantine|NormClip|Colluders|Attack' ./internal/fedcore ./internal/faults ./internal/fl ./internal/flnet
	$(GO) test -race -shuffle=on -count=5 ./internal/flnet
	$(GO) run ./cmd/fhdnn poison | tee poison-experiments.txt

# Refresh the tracked kernel baseline (BENCH_pr8.json: per-kernel rows at
# workers 1/2/4/8 with speedups and scaling factors, shard sweep embedded)
# and the standalone sharded aggregation sweep (BENCH_pr7.json), then run
# the full benchmark suite. BENCH_pr3.json is the frozen PR-3 baseline;
# per-PR trajectory lives in BENCH_pr8.json from here on.
bench:
	$(GO) run ./cmd/fhdnn-bench -out BENCH_pr8.json -shard-out BENCH_pr7.json
	$(GO) test -bench=. -benchmem ./...

# Quick CI variant: one-worker baseline plus the workers=2 point, no
# BENCH file refresh of the full sweep needed.
bench-smoke:
	$(GO) run ./cmd/fhdnn-bench -workers 1,2 -out BENCH_pr8.json

# Load-harness smoke: 1k clients over real HTTP against a 4-shard
# in-process server with a mixed codec cycle and 2% poisoners, under the
# race detector. CI runs this and uploads the JSON report as an artifact;
# the full-scale run is `go run ./cmd/fhdnn-loadgen` (100k clients).
loadgen:
	$(GO) run -race ./cmd/fhdnn-loadgen -clients 1000 -concurrency 64 -rounds 2 \
		-shards 4 -dim 256 -poison-frac 0.02 \
		-codecs raw,float16,int8,topk:0.25 -out loadgen-report.json

# Everything a change must pass before review.
check: build vet lint race debugguard fasttest

# What CI runs on every PR.
ci: vet lint race debugguard fasttest
