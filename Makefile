GO ?= go

.PHONY: all check build vet lint test race tier-race serve-race prof-race dist-race whatif-race analysis-race bench bench-serve bench-prof bench-dist bench-whatif bench-all bench-compare bench-gate whatif-record fuzz cover reproduce observations examples clean

all: check

check: build vet lint test race tier-race serve-race prof-race dist-race whatif-race analysis-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (see internal/analysis): pool lifetimes
# (interprocedural), profiler span balance, kernel determinism, lock
# annotations verified across call boundaries, discarded errors,
# atomic/plain mixed access, goroutine shutdown edges, and wire-kind
# coverage. The tree must stay at zero findings; -stats keeps the lint
# cost observable as the analyzer count grows.
lint:
	$(GO) run ./cmd/tbdvet -stats ./...

test:
	$(GO) test ./...

# Race detector over the packages the worker pool and buffer arena touch.
race:
	$(GO) test -race ./internal/tensor/... ./internal/layers/... ./internal/graph/...

# Race detector over the tensor package with the GEMM kernel tier pinned
# to each extreme: the AVX2+FMA asm micro-kernels (widest path, fp16
# packing) and the pure-Go reference tier. Catches races in the tier
# dispatch itself and in the per-tier pack-buffer pooling.
tier-race:
	TBD_GEMM_KERNEL=avx2 $(GO) test -race ./internal/tensor/
	TBD_GEMM_KERNEL=ref $(GO) test -race ./internal/tensor/

# Race detector over the serving path (batcher, admission control, drain)
# and the data pipeline's prefetch/shutdown machinery.
serve-race:
	$(GO) test -race ./internal/serve/... ./internal/data/...

# Race detector over the live profiler (atomic gate, collector, pool
# counter source), the trace writer it feeds, and the histogram
# shard-merge pattern the serving stats rely on.
prof-race:
	$(GO) test -race ./internal/prof/... ./internal/trace/... ./internal/memprof/... ./internal/metrics/...

# Race detector over the distributed runtime (ring all-reduce, parameter
# server, throttled transport, coordinator) and the CLI package, whose
# dist tests spawn real worker OS processes over localhost TCP.
dist-race:
	$(GO) test -race ./internal/dist/... ./cmd/tbd/

# Race detector over the what-if predictor: trace capture off the live
# profiler (concurrent span emission), merge, replay, and the root-package
# golden-trace ground-truth tests.
whatif-race:
	$(GO) test -race ./internal/whatif/...
	$(GO) test -race -run 'Whatif' .

# Race detector over the analysis engine itself: the parallel driver
# typechecks and checks packages concurrently, so its own worker pool and
# the locked importer must be race-clean.
analysis-race:
	$(GO) test -race ./internal/analysis/...

# Numeric-backend micro-benchmarks (blocked GEMM, conv, twin step),
# machine-readable for regression tracking.
bench:
	$(GO) test -run '^$$' -bench 'GEMM|ConvFwdBwd|TwinStep|DenseFused|OptimStep' -benchtime 3s -benchmem -json . > BENCH_numeric.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_numeric.json | sed 's/"Output":"//;s/\\t/\t/g' || true

# Serving benchmarks: a one-replica fleet's batched vs unbatched
# closed-loop throughput across batch caps (Serve*) and the replica sweep
# (Fleet), machine-readable for regression tracking.
bench-serve:
	$(GO) test -run '^$$' -bench 'Serve|Fleet' -benchtime 2s -benchmem -json . > BENCH_serve.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_serve.json | sed 's/"Output":"//;s/\\t/\t/g' || true

# Profiler overhead benchmarks: span fast path (disabled must be 0
# allocs/op) and full twin step with the profiler off vs on.
bench-prof:
	$(GO) test -run '^$$' -bench 'Prof' -benchtime 2s -benchmem -json . > BENCH_prof.json

# Distributed-training scaling matrix: workers x strategy x compression
# x throttled bandwidth, each cell a full coordinated run over real TCP.
# One iteration per cell — the throttled links make timings repeatable.
bench-dist:
	$(GO) test -run '^$$' -bench 'Dist' -benchtime 1x -benchmem -json . > BENCH_dist.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_dist.json | sed 's/"Output":"//;s/\\t/\t/g' || true

# What-if predictor benchmarks: ground-truth prediction error per cell
# (pred-err-pct, deterministic replay of the committed golden traces),
# replay engine cost, and the twin step with recording enabled.
bench-whatif:
	$(GO) test -run '^$$' -bench 'Whatif' -benchtime 1s -benchmem -json . > BENCH_whatif.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_whatif.json | sed 's/"Output":"//;s/\\t/\t/g' || true

bench-all:
	$(GO) test -bench=. -benchmem

# Re-record the committed what-if golden traces (testdata/whatif/): the
# twin traces per GEMM kernel tier via the env-gated recorder test, and
# the distributed cluster traces via real `tbd dist` runs. Only
# meaningful on the benchmark machine the BENCH_*.json baselines and
# EXPERIMENTS.md tables came from.
#
# WARNING: re-recording the ps-sync pair (dist_ps_1gbe.json,
# dist_ps_10gbe.json) currently breaks TestWhatifGroundTruthPSBandwidth.
# The committed pair was recorded when the parameter server encoded
# tensors with encoding/gob. With the binary frames the 10 GbE round trip
# is bound by barrier waits and CPU scheduling, which the bandwidth model
# cannot see, and the 1gbe->10gbe prediction misses its 20% bound (see
# EXPERIMENTS.md, "What-if predictor").
whatif-record:
	TBD_WHATIF_RECORD=1 $(GO) test -run TestRecordWhatifGoldenTraces -v .
	$(GO) build -o /tmp/tbd-whatif-record ./cmd/tbd
	/tmp/tbd-whatif-record dist -workers 4 -strategy ring -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 125 -trace-out testdata/whatif/dist_ring_1gbe.json
	/tmp/tbd-whatif-record dist -workers 4 -strategy ring -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 1250 -trace-out testdata/whatif/dist_ring_10gbe.json
	/tmp/tbd-whatif-record dist -workers 4 -strategy ring -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 0 -trace-out testdata/whatif/dist_ring_nolimit.json
	/tmp/tbd-whatif-record dist -workers 4 -strategy ps-sync -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 125 -trace-out testdata/whatif/dist_ps_1gbe.json
	/tmp/tbd-whatif-record dist -workers 4 -strategy ps-sync -model mlp-wide -steps 3 -batch 16 -seed 42 -lr 0.05 -bw 1250 -trace-out testdata/whatif/dist_ps_10gbe.json
	rm -f /tmp/tbd-whatif-record

# Fuzz every decoder of bytes from outside the process for a bounded time
# each: checkpoints (reachable over POST /swap) and both ends of the
# parameter-server frame protocol. Plain `go test` already replays the
# committed seed corpora under each package's testdata/fuzz/.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzPSRequest$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzPSReply$$' -fuzztime $(FUZZTIME) ./internal/dist/

# Re-run the tracked micro-benchmarks and print old-vs-new deltas against
# the committed baselines (-suite numeric is the default; -suite serve
# diffs BENCH_serve.json, -suite prof diffs BENCH_prof.json).
bench-compare:
	$(GO) run ./cmd/benchcompare
	$(GO) run ./cmd/benchcompare -suite serve
	$(GO) run ./cmd/benchcompare -suite prof
	$(GO) run ./cmd/benchcompare -suite dist -benchtime 1x
	$(GO) run ./cmd/benchcompare -suite whatif -benchtime 1x

# Noise-aware regression gate: re-run the tracked suites and exit nonzero
# when any benchmark slows down (ns/op) or loses throughput by more than
# the tolerance. The numeric kernels are stable enough for a tight gate;
# the serving and profiler suites schedule goroutines and get more slack.
# The whatif suite is gated on prediction error (deterministic replay of
# committed traces, so zero noise), not on wall time.
bench-gate:
	$(GO) run ./cmd/benchcompare -tol 0.20
	$(GO) run ./cmd/benchcompare -suite serve -tol 0.40
	$(GO) run ./cmd/benchcompare -suite prof -tol 0.40
	$(GO) run ./cmd/benchcompare -suite dist -benchtime 1x -tol 0.40
	$(GO) run ./cmd/benchcompare -suite whatif -benchtime 1x -errbound 20

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure of the paper (quick fig2 pass).
reproduce:
	$(GO) run ./cmd/tbd run -quick all

observations:
	$(GO) run ./cmd/tbd observations

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/translation
	$(GO) run ./examples/memprofile
	$(GO) run ./examples/distributed
	$(GO) run ./examples/toolchain
	$(GO) run ./examples/pong_a3c
	$(GO) run ./examples/serving

clean:
	$(GO) clean ./...
