# Tier-1 gate and developer shortcuts for the V kernel reproduction.
#
#   make        — build + test (the tier-1 verify)
#   make race   — full suite under the race detector
#   make stress — repeat the timing-based rfs/ipc tests at 1 and 2 CPUs
#   make bench  — paper-reproduction benchmarks (root) + parallel IPC benchmarks

GO ?= go
# Iterations for bench-alloc: 1x in CI smoke runs, raise (e.g. 2s) for
# stable local numbers.
BENCHTIME ?= 1x

.PHONY: all build test race stress vet lint perfbench-vet fmt-check crosscheck bench bench-ipc bench-rfs bench-alloc bench-ccache bench-shard bench-replica obs-smoke check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The rfs and ipc suites lean on timeouts, polls and goroutine
# scheduling; one pass rarely shows a flake that hits a run in ten.
# Repeat them at GOMAXPROCS 1 and 2. STRESSCOUNT is the repeat count per
# CPU setting (small in CI; raise it locally, e.g. STRESSCOUNT=50).
STRESSCOUNT ?= 10
stress:
	$(GO) test -count=$(STRESSCOUNT) -cpu 1,2 ./internal/rfs ./internal/ipc

vet:
	$(GO) vet ./...

# Static analysis: go vet plus the project's own vlint suite (bufref,
# lockorder, wireword, unlockpath, spawncheck — see README "Static
# analysis"). vlint exits nonzero on any finding.
lint: vet
	$(GO) run ./cmd/vlint ./...

# perfbench/ is its own Go module, so `go build ./...` here never
# compiles it: vet it on its own so a change to a public API the
# benchmark uses fails CI instead of the benchmark run.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The UDP transport's recvmmsg/sendmmsg path is Linux-only behind build
# tags; cross-compiling for darwin proves the portable fallback keeps
# every platform building.
crosscheck:
	GOOS=darwin $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...

bench:
	$(GO) test -run 'TestNothing' -bench=. -benchmem .

bench-ipc:
	$(GO) test -run 'TestNothing' -bench=Parallel -benchmem ./internal/ipc/

bench-rfs:
	$(GO) test -run 'TestNothing' -bench=. -benchmem ./internal/rfs/

# Allocation pressure on the zero-copy data path: page reads and writes,
# streamed 64 KB reads and writes (write-behind and write-through modes)
# and the parallel IPC transactions report allocs/op and B/op at 1/4/16
# clients so pooling regressions are visible at a glance. The obs
# benches ride along: the histogram/counter record paths sit inside the
# same hot loops, so they must stay allocation-free (and the histogram
# under ~30ns) for the instrumented paths to stay zero-alloc.
bench-alloc:
	$(GO) test -run=- -bench='BenchmarkPageRead|BenchmarkPageWrite|BenchmarkReadLarge64K|BenchmarkWriteLarge64K|BenchmarkParallel' \
		-benchmem -benchtime=$(BENCHTIME) ./internal/ipc/ ./internal/rfs/
	$(GO) test -run=- -bench='BenchmarkHistogram|BenchmarkCounterAdd|BenchmarkTiming|BenchmarkTraceRecord' \
		-benchmem -benchtime=$(BENCHTIME) ./internal/obs/

# The §6.2 client-cache comparison: warm page reads and the write-heavy
# shared-file mix, client cache on vs. off, 1/4/16 clients, mem + udp.
bench-ccache:
	$(GO) test -run=- -bench='BenchmarkCCache' -benchmem -benchtime=$(BENCHTIME) ./internal/rfs/

# Volume-sharding scaling: 16 clients against 1/2/4 shards, each volume
# backed by a serialized ~1ms device; aggregate page read/write ops/s and
# allocs/op land in BENCH_shard.json. SHARDTIME is the per-phase window
# (300ms in CI smoke runs; the default 1.5s for committed numbers).
SHARDTIME ?= 1500ms
bench-shard:
	$(GO) run ./cmd/vbench -shard -shard-duration $(SHARDTIME) -shard-out BENCH_shard.json

# Replication: device-bound read throughput at 1/2/3 copies of one
# volume (reads spread over the in-sync set) plus kill-the-primary
# failover gaps — time from the kill to the first successful read and
# write. REPLICATIME is the per-point read window and REPLICATRIALS the
# failover trial count (shrunk in CI smoke runs; defaults for committed
# numbers in BENCH_replica.json).
REPLICATIME ?= 1500ms
REPLICATRIALS ?= 3
bench-replica:
	$(GO) run ./cmd/vbench -replica -replica-duration $(REPLICATIME) \
		-replica-trials $(REPLICATRIALS) -replica-out BENCH_replica.json

# Observability smoke: boot a two-shard replicated cluster in-process
# (in-memory mesh and loopback UDP), run traced traffic, scrape every
# shard over OpQueryStats, and assert the expected metrics are present,
# counters are monotonic across scrapes, and the traced writes left a
# cross-node span timeline. Exits nonzero on any miss.
obs-smoke:
	$(GO) run ./cmd/vstat -smoke

check: build lint perfbench-vet fmt-check test race obs-smoke
