package main

import (
	"fmt"
	"math"
	"time"

	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// train-cnn: closed-loop training of the ResNet twin on 3×16×16
// synthetic images, batch 32, Adam. Conv lowering, GEMM and the buffer
// pool dominate; no serving or network code runs.
const (
	cnnChannels = 3
	cnnSize     = 16
	cnnClasses  = 10
	cnnBatch    = 32
	cnnLR       = 0.01
	cnnNoise    = 0.5
	// cnnWindowSteps is the window of the quiet-window figures (see
	// quietQ): 100 steps leave 10 beyond each window's p90.
	cnnWindowSteps = 100
	// setupReps is how many times each workload builds its system under
	// test; setup_s reports the median.
	setupReps = 5
	// lossProbeSteps is the length of the fixed training run whose final
	// loss bit pattern the run reports: identical inputs and arithmetic
	// give identical bits.
	lossProbeSteps = 20
	// traceMaxRecords bounds a traced pass's span timeline; a pass that
	// overflows it is reported as dropped spans and fails the run.
	traceMaxRecords = 1 << 21
)

// cnnRig is one train-cnn system under test: the model, its optimizer
// and its data source, all seeded from the workload seed.
type cnnRig struct {
	net *graph.Network
	opt optim.Optimizer
	src *data.ImageSource
}

func newCNNRig(seed uint64) *cnnRig {
	return &cnnRig{
		net: models.NumericResNet(tensor.NewRNG(seed), cnnChannels, cnnSize, cnnClasses),
		opt: optim.NewAdam(cnnLR),
		src: data.NewImageSource(tensor.NewRNG(seed+1), cnnChannels, cnnSize, cnnSize, cnnClasses, cnnNoise),
	}
}

// step draws a batch (inside a benchmark-side "data.batch" span, so the
// traced run sees the time a step waits for data) and trains on it.
func (r *cnnRig) step() float32 {
	sp := prof.Begin(prof.CatPhase, "data.batch")
	b := r.src.Batch(cnnBatch)
	sp.End()
	return graph.TrainClassifierStep(r.net, r.opt, b.X, b.Labels, 0).Loss
}

// trainLog is what a timed training pass observed.
type trainLog struct {
	durs      []float64 // per-step wall seconds, data draw included
	losses    []float32
	nonFinite int
}

// train runs steps back to back for d.
func (r *cnnRig) train(d time.Duration) trainLog {
	var lg trainLog
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		t0 := time.Now()
		loss := r.step()
		lg.durs = append(lg.durs, time.Since(t0).Seconds())
		lg.losses = append(lg.losses, loss)
		if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
			lg.nonFinite++
		}
	}
	return lg
}

// checkLosses records a problem unless every loss is finite and the
// loss fell: the mean of the last ten steps must be below the first
// step's.
func checkLosses(rep *report, losses []float32, nonFinite int) {
	if nonFinite > 0 {
		rep.problem("%d of %d training losses are not finite", nonFinite, len(losses))
		return
	}
	if len(losses) < 11 {
		rep.problem("only %d training steps ran; too few to check the loss falls", len(losses))
		return
	}
	var tail float64
	for _, l := range losses[len(losses)-10:] {
		tail += float64(l)
	}
	tail /= 10
	if !(tail < float64(losses[0])) {
		rep.problem("loss did not fall: first %g, mean of last 10 %g", losses[0], tail)
	}
}

// lossProbe trains a fresh rig for lossProbeSteps and returns the final
// loss; it is deterministic in the seed.
func lossProbe(seed uint64) float32 {
	r := newCNNRig(seed)
	var loss float32
	for i := 0; i < lossProbeSteps; i++ {
		loss = r.step()
	}
	return loss
}

func runTrainCNN(cfg runConfig, rep *report) error {
	setups := make([]float64, 0, setupReps)
	var rig *cnnRig
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		rig = newCNNRig(cfg.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		if err := traceTrainCNN(cfg, rep, rig); err != nil {
			return err
		}
	} else {
		startMeasuring(cfg)
		lg := rig.train(cfg.dur)
		rep.attempted, rep.failed = int64(len(lg.durs)), int64(lg.nonFinite)
		k := stepMetrics(rep, cfg.log, lg.durs, cnnBatch, 0.90, cnnWindowSteps)
		rep.set("setup_s", median(setups)+sum(lg.durs[:k]))
		checkLosses(rep, lg.losses, lg.nonFinite)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.set("peak_rss_mb", rss)
	}
	loss := lossProbe(cfg.seed)
	rep.facts["loss_probe"] = fmt.Sprintf("loss after %d steps %g (bits %#08x)", lossProbeSteps, loss, math.Float32bits(loss))
	if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
		rep.problem("loss after %d steps is %g", lossProbeSteps, loss)
		rep.failed++
	}
	return nil
}

// traceTrainCNN is the per-layer pass: half the time untraced (runtime
// counters, baseline throughput), half traced (span self times).
func traceTrainCNN(cfg runConfig, rep *report, rig *cnnRig) error {
	half := cfg.dur / 2
	c0 := readCounters()
	plain := rig.train(half)
	c1 := readCounters()
	setRuntimeMetrics(rep, c0, c1, len(plain.durs))
	k := stableStart(plain.durs, cnnBatch)
	rep.set("warmup_steps", float64(k))
	plainSPS := float64((len(plain.durs)-k)*cnnBatch) / sum(plain.durs[k:])

	prof.EnableWithMaxRecords(traceMaxRecords)
	traced := rig.train(half)
	prof.Disable()
	recs := prof.Records()
	tracedSPS := float64(len(traced.durs)*cnnBatch) / sum(traced.durs)

	rep.attempted = int64(len(plain.durs) + len(traced.durs))
	rep.failed = int64(plain.nonFinite + traced.nonFinite)
	checkLosses(rep, append(plain.losses, traced.losses...), plain.nonFinite+traced.nonFinite)

	spans := selfTimes(recs)
	steps := totals(spans, named("step")).count
	if steps == 0 {
		return fmt.Errorf("traced pass recorded no step spans")
	}
	setKernelMetrics(rep, spans, steps)
	setPhaseMetrics(rep, spans, steps)
	dataT := totals(spans, named("data.batch"))
	rep.set("data.batch_ms", perOpMs(dataT.dur, steps))

	// Coverage: the share of traced step wall time (data draw included)
	// that the named rows account for.
	var attributed float64
	for _, row := range stepRows {
		attributed += rep.values[row]
	}
	wall := totals(spans, named("step")).dur + dataT.dur
	rep.set("prof.step_coverage", attributed/perOpMs(wall, steps))

	wm := prof.Watermark()
	rep.set("mem.feature_maps_mb", float64(wm.FeatureMaps)/(1<<20))
	rep.set("mem.workspace_mb", float64(wm.Workspace)/(1<<20))
	rep.set("mem.total_mb", float64(wm.PeakTotal)/(1<<20))
	rep.set("prof.overhead_pct", 100*(plainSPS/tracedSPS-1))
	setDropped(rep)
	return nil
}

// stepRows are the per-step rows that partition a training step: kernel
// self times, the layer and step code around them, the optimizer sweep
// and the data draw.
var stepRows = []string{
	"tensor.conv2d_fwd.self_ms", "tensor.conv2d_bwd.self_ms", "tensor.im2col.ms", "tensor.col2im.ms",
	"tensor.gemm.self_ms", "tensor.xent.self_ms", "layers.forward.self_ms", "layers.backward.self_ms",
	"optim.update_ms", "graph.glue.self_ms", "data.batch_ms",
}

// setPhaseMetrics fills the training-step phase rows: forward, loss and
// backward phase durations and the step code outside any phase, per
// step.
func setPhaseMetrics(rep *report, spans []span, steps int) {
	rep.set("graph.forward_ms", perOpMs(totals(spans, named("phase.forward")).dur, steps))
	rep.set("graph.loss_ms", perOpMs(totals(spans, named("phase.loss")).dur, steps))
	rep.set("graph.backward_ms", perOpMs(totals(spans, named("phase.backward")).dur, steps))
	rep.set("graph.glue.self_ms", perOpMs(totals(spans, inCat(prof.CatPhase)).self-totals(spans, named("data.batch")).self, steps))
}

// setDropped reports spans the capture discarded; any drop fails the
// run, since the self times would then be incomplete.
func setDropped(rep *report) {
	d := prof.Dropped()
	rep.set("prof.dropped_spans", float64(d))
	if d > 0 {
		rep.problem("traced pass dropped %d spans", d)
	}
}
