package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"tbd/internal/dist"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// dist-ps and dist-ring: two ranks (goroutines in this process, one per
// core) train mlp-wide with global batch 16 over emulated 1 GbE links,
// through a synchronous parameter server (gob-encoded pushes and pulls)
// or a ring all-reduce (wire.go binary frames). Same model, batch and
// link; disjoint communication code.
//
// dist.RunWorker trains a fixed number of steps and reports only totals,
// so the benchmark measures a run as a sequence of short coordinated
// runs ("chunks") of distChunk steps each, all from the same seed. A
// step-time sample is a chunk's mean step time on its slowest rank; a
// chunk's set-up is its wall time outside the ranks' training loops
// (coordinator build, handshake, initial and final weight exchange).
const (
	distModel = "mlp-wide"
	distRanks = 2
	distBatch = 16
	distLR    = 0.05
	distLink  = dist.Link1GbE
	// distCheckSteps is the length of the run whose loss must fall.
	distCheckSteps = 48
	// distDataCalls is how many dist.SyntheticBatch draws the traced pass
	// times for data.batch_ms.
	distDataCalls = 200
)

// distSpec is one distributed workload.
type distSpec struct {
	strategy dist.RunStrategy
	// chunk is the steps per coordinated run: long enough that every
	// rank's loss falls within it, short enough that a run holds enough
	// chunks for its tail quantile.
	chunk int
	tailQ float64
}

var (
	distPS   = distSpec{strategy: dist.RunPSSync, chunk: 2, tailQ: 0.80}
	distRing = distSpec{strategy: dist.RunRing, chunk: 8, tailQ: 0.90}
)

func runDistPS(cfg runConfig, rep *report) error   { return runDist(cfg, rep, distPS) }
func runDistRing(cfg runConfig, rep *report) error { return runDist(cfg, rep, distRing) }

// chunkResult is one coordinated run.
type chunkResult struct {
	wall     float64 // coordinator build to results, seconds
	train    float64 // slowest rank's training loop, seconds
	summary  *dist.RunSummary
	problems []string
}

// runChunk runs one coordinated run of spec.chunk steps and checks it.
func runChunk(spec distSpec, seed uint64) (chunkResult, error) {
	t0 := time.Now()
	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Workers: distRanks, Strategy: spec.strategy, Model: distModel, Seed: seed, LR: distLR,
		PSBytesPerSec: distLink,
	})
	if err != nil {
		return chunkResult{}, err
	}
	var wg sync.WaitGroup
	var closeOnce sync.Once
	errs := make([]error, distRanks)
	for rank := 0; rank < distRanks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = dist.RunWorker(dist.WorkerConfig{
				Rank: rank, Workers: distRanks, Strategy: spec.strategy, BytesPerSec: distLink,
				Model: distModel, Seed: seed, Steps: spec.chunk, GlobalBatch: distBatch, LR: distLR,
				CoordAddr: coord.Addr(), PSAddr: coord.PSAddr(),
			})
			if errs[rank] != nil {
				// Unblock the coordinator, which would otherwise wait for
				// this rank until its control timeout.
				closeOnce.Do(func() { coord.Close() })
			}
		}(rank)
	}
	summary, werr := coord.Wait()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return chunkResult{}, fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	if werr != nil && summary == nil {
		return chunkResult{}, werr
	}
	c := chunkResult{wall: time.Since(t0).Seconds(), summary: summary, problems: checkSummary(summary, false)}
	for _, r := range summary.Results {
		c.train = max(c.train, r.WallSec)
	}
	return c, nil
}

// checkSummary returns the run's correctness problems: every rank must
// finish with identical weights and, when wantFall, a last-step loss
// below its first. (A chunk of a few steps compares two single-batch
// losses, which noise can order either way; the longer check run in
// checkTraining asks for the fall.)
func checkSummary(s *dist.RunSummary, wantFall bool) []string {
	var problems []string
	if !s.Identical {
		problems = append(problems, "ranks finished with diverging weights")
	}
	for _, r := range s.Results {
		if wantFall && !(r.LastLoss < r.FirstLoss) {
			problems = append(problems, fmt.Sprintf("rank %d loss did not fall: first %g, last %g", r.Rank, r.FirstLoss, r.LastLoss))
		}
	}
	return problems
}

// checkTraining runs one coordinated run of distCheckSteps steps and
// records a problem unless it trains: identical weights on every rank
// and every rank's loss below its first step's.
func checkTraining(spec distSpec, seed uint64, rep *report) {
	spec.chunk = distCheckSteps
	c, err := runChunk(spec, seed)
	if err != nil {
		rep.problem("check run: %v", err)
		rep.failed += distCheckSteps
	} else if p := checkSummary(c.summary, true); len(p) > 0 {
		for _, msg := range p {
			rep.problem("check run: %s", msg)
		}
		rep.failed += distCheckSteps
	}
	rep.attempted += distCheckSteps
}

// distLog is what a sequence of chunks observed.
type distLog struct {
	chunks []chunkResult
	steps  int
	failed int
}

// stepDurs returns each chunk's mean step time on its slowest rank.
func (l distLog) stepDurs(chunk int) []float64 {
	d := make([]float64, len(l.chunks))
	for i, c := range l.chunks {
		d[i] = c.train / float64(chunk)
	}
	return d
}

// runChunks runs chunks back to back for d. Every chunk starts from the
// same seed, so every chunk must end with the same weights hash as the
// first. A chunk that errors is counted as failed and ends the pass.
// The garbage of each chunk (its networks, buffers and connections) is
// collected before the next starts, outside any timed interval, so that
// no chunk pays for its predecessors and the peak resident set is one
// chunk's.
func runChunks(spec distSpec, seed uint64, d time.Duration, rep *report) distLog {
	var lg distLog
	var hash uint64
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		lg.steps += spec.chunk
		c, err := runChunk(spec, seed)
		if err != nil {
			lg.failed += spec.chunk
			rep.problem("chunk %d: %v", len(lg.chunks), err)
			break
		}
		if len(lg.chunks) == 0 {
			hash = c.summary.Hash
		} else if c.summary.Hash != hash {
			c.problems = append(c.problems, fmt.Sprintf("weights hash %#x differs from the first chunk's %#x", c.summary.Hash, hash))
		}
		if len(c.problems) > 0 {
			lg.failed += spec.chunk
			for _, p := range c.problems {
				rep.problem("chunk %d: %s", len(lg.chunks), p)
			}
		}
		lg.chunks = append(lg.chunks, c)
		runtime.GC()
	}
	return lg
}

func runDist(cfg runConfig, rep *report, spec distSpec) error {
	if cfg.trace {
		return traceDist(cfg, rep, spec)
	}
	startMeasuring(cfg)
	lg := runChunks(spec, cfg.seed, cfg.dur, rep)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss)
	rep.attempted, rep.failed = int64(lg.steps), int64(lg.failed)
	if len(lg.chunks) == 0 {
		return fmt.Errorf("no chunk completed")
	}
	k := stepMetrics(rep, cfg.log, lg.stepDurs(spec.chunk), distBatch, spec.tailQ, 0)
	setups := make([]float64, len(lg.chunks))
	var trimmed float64
	for i, c := range lg.chunks {
		setups[i] = c.wall - c.train
		if i < k {
			trimmed += c.wall
		}
	}
	rep.set("setup_s", median(setups)+trimmed)
	checkTraining(spec, cfg.seed, rep)
	return nil
}

// traceDist is the per-layer pass: half the time untraced (the
// program's own communication counters, runtime counters, baseline
// throughput), half traced (span self times per rank-step).
func traceDist(cfg runConfig, rep *report, spec distSpec) error {
	half := cfg.dur / 2
	c0 := readCounters()
	plain := runChunks(spec, cfg.seed, half, rep)
	c1 := readCounters()
	if len(plain.chunks) == 0 {
		return fmt.Errorf("no chunk completed")
	}
	setRuntimeMetrics(rep, c0, c1, plain.steps)
	var comm, wall float64
	var wire int64
	for _, c := range plain.chunks {
		for _, r := range c.summary.Results {
			comm += r.CommSec
			wall += r.WallSec
		}
		wire += c.summary.WireBytes
	}
	rankSteps := float64(distRanks * len(plain.chunks) * spec.chunk)
	rep.set("dist.comm_share", comm/wall)
	rep.set("dist.comm_ms", 1e3*comm/rankSteps)
	rep.set("dist.compute_ms", 1e3*(wall-comm)/rankSteps)
	rep.set("dist.wire_bytes_per_step", float64(wire)/float64(len(plain.chunks)*spec.chunk))
	durs := plain.stepDurs(spec.chunk)
	k := stableStart(durs, distBatch)
	rep.set("warmup_steps", float64(k*spec.chunk))
	plainSPS := float64(len(durs)-k) * distBatch / sum(durs[k:])

	prof.EnableWithMaxRecords(traceMaxRecords)
	traced := runChunks(spec, cfg.seed, half, rep)
	prof.Disable()
	if len(traced.chunks) == 0 {
		return fmt.Errorf("no traced chunk completed")
	}
	spans := selfTimes(prof.Records())
	steps := totals(spans, named("step")).count
	if steps == 0 {
		return fmt.Errorf("traced pass recorded no step spans")
	}
	setKernelMetrics(rep, spans, steps)
	setPhaseMetrics(rep, spans, steps)
	rep.set("dist.ps_roundtrip.self_ms", perOpMs(totals(spans, named("comm.ps.roundtrip")).self, steps))
	rep.set("dist.ring_allreduce.self_ms", perOpMs(totals(spans, named("comm.ring.allreduce")).self, steps))
	tdurs := traced.stepDurs(spec.chunk)
	rep.set("prof.overhead_pct", 100*(plainSPS/(float64(len(tdurs))*distBatch/sum(tdurs))-1))
	setDropped(rep)

	// The data draw runs inside RunWorker, so time the same call with
	// the same arguments from here.
	model, err := dist.RunModelByName(distModel)
	if err != nil {
		return err
	}
	rng := tensor.NewRNG(cfg.seed)
	t0 := time.Now()
	for i := 0; i < distDataCalls; i++ {
		dist.SyntheticBatch(rng, model.Shape, model.Classes, distBatch)
	}
	rep.set("data.batch_ms", 1e3*time.Since(t0).Seconds()/distDataCalls)

	rep.attempted = int64(plain.steps + traced.steps)
	rep.failed = int64(plain.failed + traced.failed)
	checkTraining(spec, cfg.seed, rep)
	return nil
}
