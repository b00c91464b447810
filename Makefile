GO ?= go

.PHONY: check build vet test race lint fma-check crashtest trace-smoke bench-parallel bench-json bench-smoke broker-chaos daemon-smoke

# check is the full local CI gate: build everything, run the static
# analyzers, and run the test suite under the race detector.
check: build lint race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the static-analysis gate: gofmt (no unformatted files), go
# vet, and the project's own analyzer suite (cmd/repolint), which
# enforces the determinism/context/rng/float/error/wire/lock
# invariants plus the suppression-debt baseline. The verdict is cached
# in .repolint.cache keyed by the content of every lintable file:
# repolint prints its own timing on stderr, so a cold run shows
# "analyzed N package(s) in Xs (cache miss)" and an unchanged re-run
# shows "cache hit (N package(s), Xms)".
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/repolint -cache .repolint.cache ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fma-check keeps every computed bit the same on every GOARCH. The
# arm64, ppc64le, riscv64, s390x and loong64 compilers fuse a product
# feeding an add or subtract into one FMA instruction, which skips the
# product's rounding; amd64 never fuses. The module rounds every such
# product explicitly (float64(x*y)), and this target cross-compiles
# all of it for each of those architectures and fails on any fused
# instruction in the listing. No emulator is needed. (go build replays
# a cached package's listing.)
fma-check:
	@set -e; for spec in 'arm64 FMADDD|FMSUBD|FNMADDD|FNMSUBD' 'ppc64le FMADDS?|FMSUBS?|FNMADDS?|FNMSUBS?' \
		'riscv64 FMADDD|FMSUBD|FNMADDD|FNMSUBD' 's390x FMADD|FMSUB' 'loong64 FMADDD|FMSUBD|FNMADDD|FNMSUBD'; do \
		arch=$${spec%% *}; ops=$${spec#* }; \
		listing=$$(GOARCH=$$arch $(GO) build -gcflags=-S ./... 2>&1) || { echo "$$listing"; exit 1; }; \
		fused=$$(echo "$$listing" | grep -E "[[:space:]]($$ops)[[:space:]]" || true); \
		if [ -n "$$fused" ]; then echo "fused multiply-add on $$arch:"; echo "$$fused"; exit 1; fi; \
		echo "fma-check: $$arch clean"; \
	done

# crashtest runs the crash-recovery campaigns verbosely: randomized
# torn-write kill points, graceful-cancel resume, a real SIGKILL'd
# child, and the SIGINT end-to-end trial of cmd/autotune.
crashtest:
	$(GO) test -v -count=1 ./internal/journal/... ./cmd/autotune/ -run 'Trunc|Cancel|SIGKILL|SIGINT|Resume'

# bench-parallel times one cell-grid experiment serially and with one
# worker per CPU (the reports are bit-identical either way; only wall
# time differs). Output lands in bench-parallel.txt (CI uploads it).
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkExperimentCell' -benchtime 2x . | tee bench-parallel.txt

# bench-json runs the benchmark suite — remote loopback dispatch
# (framing + heartbeat + lease overhead per evaluation), fully traced
# remote dispatch (span emission + recorder ring on top of the loopback
# path), end-to-end RSp/RSb searches, one paper-scale transfer run
# each on LU, HPL and RT (source RS, fit, shared pool, five target runs), the isolated
# pool-scoring prelude those searches pay up front, the paper-scale pool draw on the
# smallest (LU) and largest (RT) spaces, the surrogate fit on encoded T_a
# (LU, HPL and RT, with Forest.Compile timed alone), forest fit and prediction, and the
# full-module repolint analysis gate (parse + type-check + all nine
# analyzers, so gate latency joins the tracked trajectory) — and
# converts the combined output into BENCH_PR10.json (committed as the
# PR's trajectory point; CI regenerates and uploads it). bench-raw.txt
# keeps the raw `go test -bench` lines. The RSp/RSb, transfer, pool,
# sample-pool, surrogate-fit and forest lines pass -benchmem, so their
# entries carry B/op and allocs/op.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkRemoteDispatch' -benchtime 2x ./internal/broker/remote/ > bench-raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkDistributedTrace' -benchtime 2x ./internal/broker/remote/ >> bench-raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkEndToEndRS[pb]' -benchmem -benchtime 2x . >> bench-raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTransferRun' -benchmem -benchtime 2x . >> bench-raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPoolScoring' -benchmem -benchtime 2x . >> bench-raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSamplePool' -benchmem -benchtime 2x . >> bench-raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSurrogateFit' -benchmem -benchtime 2x . >> bench-raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkForest(Fit|Predict)' -benchmem -benchtime 2x ./internal/forest/ >> bench-raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRepolint' -benchtime 2x ./internal/analysis/ >> bench-raw.txt
	$(GO) run ./cmd/benchjson -o BENCH_PR10.json < bench-raw.txt

# bench-smoke runs the end-to-end benchmark's own test suite (bench/ is
# a separate module): every workload, traced and untraced, with the
# correctness checks each run makes against bench/golden.json.
bench-smoke:
	cd bench && $(GO) test -count=1 ./...

# broker-chaos runs the broker and remote-worker suites, including the
# randomized remote chaos campaign (network faults, connection kills),
# under the race detector, verbosely (CI uploads the log on failure).
# REPRO_FLIGHT_DIR makes every failed trial dump its flight recording
# (the last telemetry events, spans included) there for forensics; the
# directory stays empty on a green run.
broker-chaos:
	rm -rf flight-dumps && mkdir -p flight-dumps
	REPRO_FLIGHT_DIR=flight-dumps $(GO) test -race -count=1 -v ./internal/broker/... 2>&1 | tee broker-chaos.txt

# daemon-smoke runs the cmd/autotuned end-to-end suite verbosely: real
# daemon processes exercised over HTTP — submit/poll/cache-hit
# resubmit, SIGKILL → restart → bit-identical resume, cache artifact
# persistence. Daemon stderr logs land in daemon-logs/ (CI uploads the
# directory only when the suite fails).
daemon-smoke:
	rm -rf daemon-logs && mkdir -p daemon-logs
	AUTOTUNED_E2E_LOGDIR=$(CURDIR)/daemon-logs $(GO) test -count=1 -v ./cmd/autotuned/

# trace-smoke runs a small traced, faulted, journaled search and checks
# that tracestat can parse and summarize the trace. It then drives the
# failure path: a run whose every evaluation fails must exit 1 and dump
# a non-empty flight recording that tracestat also reads. (The binary is
# built rather than run with go run, which reports every non-zero exit
# as 1.) The trace and the flight dump land in trace-smoke/ (CI uploads
# both as artifacts).
trace-smoke:
	rm -rf trace-smoke && mkdir -p trace-smoke
	$(GO) run ./cmd/autotune -problem ATAX -nmax 60 -seed 7 -faults 0.2 -timeout 50 \
		-journal trace-smoke/journal -trace trace-smoke/trace.jsonl -metrics
	$(GO) run ./cmd/tracestat trace-smoke/trace.jsonl
	$(GO) build -o trace-smoke/autotune ./cmd/autotune
	trace-smoke/autotune -problem MM -faults 0.99 -retries 0 -nmax 1 -seed 1 \
		-flight trace-smoke/flight.jsonl; code=$$?; if [ $$code -ne 1 ]; then \
		echo "flight run exited $$code, want 1"; exit 1; fi
	test -s trace-smoke/flight.jsonl
	$(GO) run ./cmd/tracestat trace-smoke/flight.jsonl
