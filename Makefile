GO ?= go

.PHONY: build test race debugguard vet fuzz bench chaos smoke ci

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
# offending call site). Release builds get a no-op stub. The guard is the
# repo's only aliasing check, so it runs over every package that owns or
# drives an Into/Accum call site: every production call site in nn and
# hdc executes under it, not just tensor's own tests.
debugguard:
	$(GO) test -race -tags fhdnndebug -count=1 ./internal/tensor ./internal/nn ./internal/hdc ./internal/core ./internal/fl

# Decode-surface fuzzing: every exported decoder of a wire or checkpoint
# format, and the upload handler in front of them, for 20s per target on
# amd64 and again on 386, where int is 32 bits and a uint32 count can wrap
# negative (386 fuzzing runs without coverage guidance, and still finds
# such wraps in under a second). One commit kernel rides along:
# FuzzRobustCommit checks the robust commits against their sort oracles,
# through the AVX-512 block select on amd64 and the portable path on 386.
# Every target gets its turn; a crasher
# lands in its package's testdata/fuzz/<target>/ and fails the run, and
# CI uploads those directories. A new exported Decode*/Read* in a wire
# package lands with a target here.
fuzz:
	@st=0; \
	for arch in amd64 386; do \
		for t in fedcore.FuzzEnvelopeDecode fedcore.FuzzRobustCommit hdc.FuzzReadModel hdc.FuzzReadEncoder nn.FuzzScanParams flnet.FuzzRoundQuery flnet.FuzzUpload; do \
			echo "fuzz: GOARCH=$$arch $$t"; \
			GOARCH=$$arch $(GO) test -run='^$$' -fuzz="^$${t#*.}\$$" -fuzztime=20s ./internal/$${t%.*} || st=1; \
		done; \
	done; \
	exit $$st

# Seeded poisoning chaos: the Byzantine/robust-aggregation suite under
# the race detector with shuffled execution, then the attack/defense
# matrix (40% colluding poisoners vs every aggregation policy), saved as
# poison-experiments.txt. See DESIGN.md "Threat model & robust
# aggregation" and the Byzantine section of EXPERIMENTS.md. The first
# run also carries the goroutine-leak tests (NoGoroutines: flnet starts
# none; the fedcore engine and tensor.ParallelFor join every worker). In
# between, the whole flnet suite five times over under -race: the
# aggregator-token protocol (threshold/deadline/shutdown commits racing upload
# handlers, and the wedged-Add tests that hold the token past any commit
# or Shutdown deadline) is timing-dependent, so one pass proves little.
chaos:
	$(GO) test -race -shuffle=on -count=1 -run 'Byzantine|Robust|Poison|Quarantine|NormClip|Colluders|Attack|NoGoroutines' ./internal/fedcore ./internal/faults ./internal/fl ./internal/flnet ./internal/tensor
	$(GO) test -race -shuffle=on -count=5 ./internal/flnet
	$(GO) run ./cmd/fhdnn poison | tee poison-experiments.txt

# Deployment smoke: build fhdnn-server and fhdnn-client and run the README
# walkthrough's shape over loopback: a 3-round server closed by two
# clients, one of them behind a 20% packet-loss uplink with 30% of its
# requests failed by the injecting transport (README's -fault-rate 0.3),
# so its retries run on every pass. A client that
# polls the server after the last round must read "closed", not a refused
# connection. Then the checkpoint writers meet their reader: fhdnn-inspect
# reads the server's -checkpoint and a synthetic fhdnn-train checkpoint.
# Last, every example runs to completion. Every process must exit 0
# within 120 seconds.
SMOKE_ADDR ?= 127.0.0.1:18931

smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./cmd/fhdnn-server ./cmd/fhdnn-client ./cmd/fhdnn-train ./cmd/fhdnn-inspect ./examples/... || exit 1; \
	timeout 120 "$$dir/fhdnn-server" -addr $(SMOKE_ADDR) -dim 2048 -min-updates 2 -rounds 3 -checkpoint "$$dir/global.fhdm" & srv=$$!; \
	timeout 120 "$$dir/fhdnn-client" -server http://$(SMOKE_ADDR) -id 0 -clients 2 -dim 2048 & c0=$$!; \
	timeout 120 "$$dir/fhdnn-client" -server http://$(SMOKE_ADDR) -id 1 -clients 2 -dim 2048 -loss 0.2 -fault-rate 0.3 & c1=$$!; \
	st=0; \
	for p in $$c0 $$c1 $$srv; do wait $$p || { echo "smoke: process $$p exited $$?" >&2; st=1; }; done; \
	run() { timeout 120 "$$@" || { echo "smoke: $$* exited $$?" >&2; st=1; }; }; \
	run "$$dir/fhdnn-inspect" "$$dir/global.fhdm"; \
	run "$$dir/fhdnn-train" -out "$$dir/model.fhdnn"; \
	run "$$dir/fhdnn-inspect" "$$dir/model.fhdnn"; \
	for ex in examples/*/; do ex=$${ex%/}; run "$$dir/$${ex##*/}"; done; \
	exit $$st

# The repo's benchmark (workloads and metric bounds in BENCHMARK.json,
# reports under bench/out/), then every go test benchmark: the compute
# kernels beside their naive baselines.
bench:
	$(GO) run ./bench
	$(GO) test -bench=. -benchmem ./...

# The make targets CI runs on every PR; the workflow adds gofmt,
# cross-architecture builds and tests, the kernel instruction checks, a
# bench smoke and make chaos. The repo's static analysis needs no target
# of its own: internal/analysis's TestModuleIsClean sweeps the module in
# every go test run, race included.
ci: vet race debugguard smoke fuzz
