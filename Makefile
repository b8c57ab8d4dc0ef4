# Development targets for the ARIES/RH reproduction.
#
#   make check     vet + build + full test suite + short race pass
#   make ci        exactly what .github/workflows/ci.yml runs
#   make fmt       fail if gofmt would rewrite any file
#   make race      race-detector run of the concurrency-sensitive packages
#   make torture   fixed-seed fault-injection crash sweep (nightly CI job)
#   make fuzz-long the seven decoder fuzzers for minutes each (nightly CI job)
#   make standby-demo  end-to-end log-shipping failover over TCP
#   make bench-smoke   benchmark/ builds against the tree, its tests and smoke pass
#   make bench-eN regenerate BENCH_EN.json for N in 11..15 (quick sizes)

GO ?= go

.PHONY: check ci fmt vet staticcheck build test race fuzz-short fuzz-long torture standby-demo bench bench-smoke

check: vet build test race

# The CI pipeline (ci.yml calls this target and nothing else of its
# own): full race (not -short) on the latch-heavy packages, the lock
# manager among them, the sim stress tests that drive them concurrently,
# the page layers whose frames are recycled across the off-latch
# Prefault path, and the transaction table and Ob_List packages whose
# records the engine recycles across goroutines through its free list,
# the whole short torture set under
# race, the nested benchmark module, a short fuzz pass over the
# decoders, and the end-to-end standby failover demo.
ci: fmt vet staticcheck build test
	$(GO) test -race ./internal/core ./internal/lock ./internal/wal ./internal/repl ./internal/sim ./internal/shard ./internal/buffer ./internal/object ./internal/storage ./internal/txn ./internal/delegation
	$(GO) test -race -short -timeout 120s ./internal/torture ./internal/fault
	$(MAKE) bench-smoke
	$(MAKE) fuzz-short
	$(MAKE) standby-demo

# staticcheck is optional tooling: CI installs it, dev environments may
# only have the go toolchain — skip (loudly) where it isn't on PATH
# rather than failing the whole pipeline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

fuzz-short:
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 30s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeManifest -fuzztime 20s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeSegmentHeader -fuzztime 15s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodePrepare -fuzztime 15s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 30s
	$(GO) test ./internal/delegation -run '^$$' -fuzz FuzzDecodeState -fuzztime 15s
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzUnmarshalPage -fuzztime 15s

# The same seven decoders as fuzz-short, for longer: what
# .github/workflows/nightly.yml runs.
fuzz-long:
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 5m
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeManifest -fuzztime 3m
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeSegmentHeader -fuzztime 2m
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodePrepare -fuzztime 2m
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 5m
	$(GO) test ./internal/delegation -run '^$$' -fuzz FuzzDecodeState -fuzztime 2m
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzUnmarshalPage -fuzztime 2m

# gofmt ships with the toolchain, so unlike staticcheck it is never
# skipped: any file it would rewrite fails the pipeline.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Every package finishes in seconds; a wedged sweep (a lock wait has no
# deadline) should cost two minutes, not go test's default ten.
test:
	$(GO) test -timeout 120s ./...

# The packages whose hot paths drop and re-take latches: the core engine
# (group commit, DelegateAll), the lock manager (a waiter parks off its
# latch and the releasing goroutine grants it), the WAL (leader flusher
# and tail subscriptions), the replication stream, the page layers (a buffer miss
# decodes into a recycled frame, also off the engine latch), the
# transaction-table and Ob_List packages (the engine recycles a
# transaction's record, Ob_List and all, through a free list that
# committers and aborters on different goroutines refill), and the sim
# stress tests that drive them concurrently.
race:
	$(GO) test -race -short ./internal/core ./internal/lock ./internal/wal ./internal/repl ./internal/sim ./internal/shard ./internal/torture ./internal/buffer ./internal/object ./internal/storage ./internal/txn ./internal/delegation

# Full fault-injection pass under the race detector: the complete crash
# sweep at fixed seeds (no -short boundary cap), the replication
# promote-under-crash sweep (crash the primary at every sync boundary,
# promote a live replica, judge against the durable-log oracle), the
# early-lock-release sweep (crash a contended concurrent workload
# between lock release and commit-record flush at every boundary), the
# reads-during-recovery, rotation/archive, cross-shard and cross-shard
# ELR sweeps, the scope audit, and the transient/persistent fault paths
# — seven sweeps, one driver (internal/torture/driver.go).  This is what
# .github/workflows/nightly.yml runs; a laptop run takes on the order of
# a minute.
torture:
	$(GO) test -race -count=1 -timeout 20m ./internal/torture ./internal/fault

# The README quickstart, executed: bootstrap backup, stream over TCP,
# crash the primary, promote the standby, verify.
standby-demo:
	$(GO) run ./cmd/rhstandby -demo

bench:
	$(GO) test -bench . -benchtime 0.5s .

# benchmark/ is a nested module that go test ./... does not reach: this
# is the guard that it still compiles against the tree's public API.
bench-smoke:
	bash benchmark/run.sh -smoke
	cd benchmark && $(GO) vet . && $(GO) test .

# Not in .PHONY: make skips the implicit-rule search for phony targets.
bench-e%:
	$(GO) run ./cmd/rhbench -exp e$* -quick -json BENCH_E$*.json
