package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tbd/internal/models"
	"tbd/internal/prof"
	"tbd/internal/serve"
	"tbd/internal/tensor"
)

// serve-mlp: open-loop Poisson arrivals at 4000 req/s into a one-replica
// serve.Fleet serving the mlp twin, with tbdserve's default batching
// settings and a 50 ms SLO. Latency at this rate is the cost of the
// router, the batcher and a forward pass. Requests are in-process
// PredictSLO calls: no sockets.
const (
	serveModel    = "mlp"
	serveMaxBatch = 64
	serveMaxWait  = time.Millisecond
	serveQueue    = 256
	serveSLO      = 50 * time.Millisecond
	serveRate     = 4000
	// serveWorkers bounds in-flight requests; it must exceed rate ×
	// latency so that the generator's own backlog stays empty.
	serveWorkers = 128
	// servePool distinct inputs are sent round-robin; every
	// serveCheckEvery-th one has a reference output to check against.
	servePool       = 1024
	serveCheckEvery = 16
	// serveWarmup is the untimed load before the measured phase.
	serveWarmup = 250 * time.Millisecond
	// serveWindow is the length of the windows the measured phase is
	// split into for quiet-window figures (see quietQ).
	serveWindow = 250 * time.Millisecond
	// serveTailQ is the tail quantile reported per window. A window
	// holds about 1000 requests, so p99 would have 10 beyond it, but on
	// a 2-core VM the quiet-window p99 of identical runs at 12k req/s
	// ranged 7–16 ms with the host's state, the p90 far less.
	serveTailQ = 0.90
)

// errWrongOutput marks a served output that disagrees with the
// reference; the open loop counts it as a failed request.
var errWrongOutput = errors.New("served output disagrees with the single-sample reference")

// fmaMaxULP and fmaAbsTol are the engine's documented agreement bound
// between its FMA GEMM tier and the bit-exact reference kernels
// (internal/tensor/tier.go). A batched forward may take different
// micro-kernel paths than a single-sample one, so on an FMA tier served
// outputs are held to this bound; on the bit-exact tier they must match
// bit for bit.
const (
	fmaMaxULP = 512
	fmaAbsTol = 1e-4
)

// serveRig is a fleet plus the inputs sent to it and the reference
// outputs they are checked against.
type serveRig struct {
	fleet  *serve.Fleet
	inputs []*tensor.Tensor
	// want[i] is the single-sample Network.Infer output for inputs[i] on
	// an identically seeded network, for every checked input (nil
	// otherwise); exact says whether it must match bit for bit.
	want    [][]float32
	exact   bool
	next    atomic.Uint64
	checked atomic.Int64
	wrong   atomic.Int64
	once    sync.Once
	detail  string // first mismatch; written once
}

func newFleet(seed uint64) (*serve.Fleet, error) {
	factory := func() (*serve.Session, error) {
		net, shape, err := models.ServeTwin(serveModel, tensor.NewRNG(seed))
		if err != nil {
			return nil, err
		}
		return serve.NewSession(net, shape...), nil
	}
	return serve.NewFleet(factory, serve.FleetConfig{
		Replicas: 1, MaxBatch: serveMaxBatch, MaxWait: serveMaxWait, QueueDepth: serveQueue, SLO: serveSLO,
	})
}

// serveInputs draws the request inputs from seed.
func serveInputs(seed uint64) ([]*tensor.Tensor, error) {
	_, shape, err := models.ServeTwin(serveModel, tensor.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed + 1)
	inputs := make([]*tensor.Tensor, servePool)
	for i := range inputs {
		inputs[i] = tensor.RandNormal(rng, 0, 1, shape...)
	}
	return inputs, nil
}

// referenceOutputs runs every checked input alone through Network.Infer
// on a network seeded like the fleet's, at the current GEMM tier.
func referenceOutputs(seed uint64, inputs []*tensor.Tensor) ([][]float32, error) {
	ref, shape, err := models.ServeTwin(serveModel, tensor.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	want := make([][]float32, len(inputs))
	for i := 0; i < len(inputs); i += serveCheckEvery {
		out := ref.Infer(inputs[i].Reshape(append([]int{1}, shape...)...))
		want[i] = append([]float32(nil), out.Data()...)
	}
	return want, nil
}

// predict sends input i with the given budget and checks the output if
// input i has a reference.
func (r *serveRig) predict(i int, budget time.Duration) error {
	res, err := r.fleet.PredictSLO(r.inputs[i], budget)
	if err != nil {
		return err
	}
	if w := r.want[i]; w != nil {
		r.checked.Add(1)
		if j := disagreement(res.Output, w, r.exact); j >= 0 {
			r.wrong.Add(1)
			r.once.Do(func() {
				r.detail = fmt.Sprintf("input %d: %d outputs, want %d; first disagreement at %d", i, len(res.Output), len(w), j)
			})
			return errWrongOutput
		}
	}
	return nil
}

// call is one generated request: the next input, round-robin, with the
// SLO as its budget.
func (r *serveRig) call() error {
	return r.predict(int((r.next.Add(1)-1)%uint64(len(r.inputs))), serveSLO)
}

// disagreement returns the first index where got and want disagree, or
// -1 when they agree: bit for bit when exact, within the FMA tier bound
// otherwise. A length mismatch disagrees at the shorter length.
func disagreement(got, want []float32, exact bool) int {
	for j := range want {
		if j >= len(got) {
			return j
		}
		g, w := got[j], want[j]
		if math.Float32bits(g) == math.Float32bits(w) {
			continue
		}
		if exact || math.IsNaN(float64(g)) || math.IsNaN(float64(w)) {
			return j
		}
		if ulps(g, w) > fmaMaxULP && math.Abs(float64(g)-float64(w)) > fmaAbsTol {
			return j
		}
	}
	if len(got) != len(want) {
		return len(want)
	}
	return -1
}

// ulps is the distance between two finite float32s in representable
// values.
func ulps(a, b float32) uint64 {
	rank := func(f float32) int64 {
		bits := math.Float32bits(f)
		if bits&0x80000000 != 0 {
			return -int64(bits & 0x7fffffff)
		}
		return int64(bits)
	}
	d := rank(a) - rank(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// exactPass pins the fleet's bit-identity invariant: on the bit-exact
// GEMM tier, checked inputs sent concurrently (so that they batch) must
// come back bit-identical to single-sample Network.Infer. It returns how
// many requests it sent and how many failed; when the run's tier is
// already bit-exact the measured phase checked this and nothing is sent.
func (r *serveRig) exactPass(seed uint64) (sent, failed int64, err error) {
	if r.exact {
		return 0, 0, nil
	}
	prev, err := tensor.SetGemmKernelTier(tensor.BitExactGemmTier())
	if err != nil {
		return 0, 0, err
	}
	defer tensor.SetGemmKernelTier(prev)
	want, err := referenceOutputs(seed, r.inputs)
	if err != nil {
		return 0, 0, err
	}
	r.want, r.exact = want, true
	errs := make([]error, 0, len(r.inputs)/serveCheckEvery)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < len(r.inputs); i += serveCheckEvery {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := r.predict(i, 0)
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			failed++
			if !errors.Is(e, errWrongOutput) && err == nil {
				err = fmt.Errorf("bit-exact pass: %w", e)
			}
		}
	}
	return int64(len(errs)), failed, err
}

// finish runs the bit-exact pass, adds it to the run's counts and
// records every correctness problem the rig saw.
func (r *serveRig) finish(rep *report, seed uint64) error {
	sent, failed, err := r.exactPass(seed)
	if err != nil {
		return err
	}
	rep.attempted += sent
	rep.failed += failed
	if n := r.wrong.Load(); n > 0 {
		rep.problem("%d of %d checked outputs disagree with the reference (%s)", n, r.checked.Load(), r.detail)
	}
	if r.checked.Load() == 0 {
		rep.problem("no served output was checked")
	}
	return nil
}

// outcome is one request of an open-loop pass, timed from the moment the
// schedule said it should be sent.
type outcome struct {
	intended time.Duration // offset on the schedule
	latency  time.Duration // completion minus intended arrival
	late     time.Duration // dispatch minus intended arrival
	failed   bool
}

// openLoop offers Poisson arrivals at rate req/s for d, with the
// schedule drawn from seed, and returns every request's outcome in
// arrival order. Arrivals do not wait for the service: when all
// serveWorkers callers are busy they queue in the generator, and that
// wait counts toward their latency, since every request is timed from
// its place on the schedule. (serve.OpenLoadGen does the same but
// keeps latency only in 2×-wide histogram buckets, which made the p99 of
// identical runs jump between bucket edges.)
func (r *serveRig) openLoop(rate float64, d time.Duration, seed uint64) []outcome {
	rng := tensor.NewRNG(seed)
	out := make([]outcome, 0, int(1.1*rate*d.Seconds())+64)
	for t := time.Duration(0); ; {
		// Exponential inter-arrival; 1-u keeps the log argument in (0, 1].
		t += time.Duration(-math.Log(1-rng.Float64()) / rate * float64(time.Second))
		if t >= d {
			break
		}
		out = append(out, outcome{intended: t})
	}
	// Sized to four seconds of arrivals at serveRate; if the callers fall
	// further behind, dispatch blocks, which the schedule-relative timing
	// counts against the late requests.
	jobs := make(chan int, 16384)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				o := &out[i]
				due := t0.Add(o.intended)
				o.late = time.Since(due)
				o.failed = r.call() != nil
				o.latency = time.Since(due)
			}
		}()
	}
	for i := range out {
		if wait := time.Until(t0.Add(out[i].intended)); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// passStats summarizes a pass: requests sent and failed, requests
// completed within the SLO, and latency (ms, a failed request as +Inf).
type passStats struct {
	sent, failed, withinSLO int
	latMs                   []float64
	lateMs                  float64 // mean dispatch lateness
}

func summarize(reqs []outcome) passStats {
	st := passStats{sent: len(reqs), latMs: make([]float64, len(reqs))}
	for i, o := range reqs {
		st.lateMs += 1e3 * o.late.Seconds() / float64(len(reqs))
		if o.failed {
			st.failed++
			st.latMs[i] = math.Inf(1)
			continue
		}
		st.latMs[i] = 1e3 * o.latency.Seconds()
		if o.latency <= serveSLO {
			st.withinSLO++
		}
	}
	return st
}

// latencyQuantileMs returns the q-quantile of latency over every request
// sent, a failed request counting as slower than any completed one: when
// the quantile falls among the failures it reads the slowest completion
// or the SLO, whichever is larger.
func (st passStats) latencyQuantileMs(q float64) float64 {
	v := quantile(st.latMs, q)
	if math.IsInf(v, 1) || math.IsNaN(v) {
		slowest := 1e3 * serveSLO.Seconds()
		for _, l := range st.latMs {
			if !math.IsInf(l, 1) {
				slowest = math.Max(slowest, l)
			}
		}
		return slowest
	}
	return v
}

func runServe(cfg runConfig, rep *report) error {
	inputs, err := serveInputs(cfg.seed)
	if err != nil {
		return err
	}
	want, err := referenceOutputs(cfg.seed, inputs)
	if err != nil {
		return err
	}
	// Set-up: build the fleet setupReps times (closing all but the last)
	// and warm it with untimed load.
	setups := make([]float64, 0, setupReps)
	var fleet *serve.Fleet
	for i := 0; i < setupReps; i++ {
		if fleet != nil {
			fleet.Close()
		}
		t0 := time.Now()
		if fleet, err = newFleet(cfg.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fleet.Close()
	rig := &serveRig{fleet: fleet, inputs: inputs, want: want, exact: tensor.GemmKernelTier() == tensor.BitExactGemmTier()}
	t0 := time.Now()
	rig.openLoop(serveRate, serveWarmup, cfg.seed+2)
	warm := time.Since(t0).Seconds()

	if cfg.trace {
		return traceServe(cfg, rep, rig)
	}
	startMeasuring(cfg)
	reqs := rig.openLoop(serveRate, cfg.dur, cfg.seed+3)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss)
	all := summarize(reqs)
	rep.attempted, rep.failed = int64(all.sent), int64(all.failed)
	rep.set("setup_s", median(setups)+warm)
	rep.set("samples_per_s", float64(all.withinSLO)/cfg.dur.Seconds())
	// Latency is a quiet-window figure (see quietQ) over windows of
	// serveWindow.
	var p50s, tails []float64
	for lo := 0; lo < len(reqs); {
		hi := lo
		for hi < len(reqs) && reqs[hi].intended/serveWindow == reqs[lo].intended/serveWindow {
			hi++
		}
		w := summarize(reqs[lo:hi])
		p50s = append(p50s, w.latencyQuantileMs(0.50))
		tails = append(tails, w.latencyQuantileMs(serveTailQ))
		if !supportsQuantile(w.sent, serveTailQ) {
			fmt.Fprintf(cfg.log, "perfbench: warning: a window has %d requests, fewer than %d beyond p%g\n", w.sent, minBeyond, 100*serveTailQ)
		}
		lo = hi
	}
	rep.set("p50_ms", quantile(p50s, quietQ))
	rep.set("tail_ms", quantile(tails, quietQ))
	rep.facts["tail_quantile"] = serveTailQ
	rep.facts["run_p50_ms"] = all.latencyQuantileMs(0.50)
	rep.facts["run_tail_ms"] = all.latencyQuantileMs(serveTailQ)
	rep.facts["run_p99_ms"] = all.latencyQuantileMs(0.99)
	return rig.finish(rep, cfg.seed)
}

// traceServe is the per-layer pass: half the time untraced (fleet and
// runtime counters, baseline latency), half traced (span self times per
// served batch).
func traceServe(cfg runConfig, rep *report, rig *serveRig) error {
	half := cfg.dur / 2
	c0 := readCounters()
	plain := summarize(rig.openLoop(serveRate, half, cfg.seed+3))
	c1 := readCounters()
	s1 := rig.fleet.Stats()
	setRuntimeMetrics(rep, c0, c1, plain.sent)

	rep.set("serve.batch_p50_ms", s1.BatchP50Ms)
	rep.set("serve.occupancy", s1.MeanOccupancy)
	rep.set("serve.residence_p50_ms", s1.LatencyP50Ms)
	rep.set("serve.queue_wait_ms", s1.LatencyP50Ms-s1.BatchP50Ms)
	rep.set("serve.shed_overload", float64(s1.RejectedOverload))
	rep.set("serve.shed_deadline", float64(s1.RejectedDeadline))
	rep.set("loadgen.late_ms", plain.lateMs)

	prof.EnableWithMaxRecords(traceMaxRecords)
	traced := summarize(rig.openLoop(serveRate, half, cfg.seed+4))
	prof.Disable()
	spans := selfTimes(prof.Records())
	batches := totals(spans, inCat(prof.CatServe)).count
	if batches == 0 {
		return fmt.Errorf("traced pass recorded no serving batches")
	}
	setKernelMetrics(rep, spans, batches)
	wm := prof.Watermark()
	rep.set("mem.workspace_mb", float64(wm.Workspace)/(1<<20))
	rep.set("mem.total_mb", float64(wm.PeakTotal)/(1<<20))
	rep.set("prof.overhead_pct", 100*(traced.latencyQuantileMs(0.5)/plain.latencyQuantileMs(0.5)-1))
	setDropped(rep)

	rep.attempted = int64(plain.sent + traced.sent)
	rep.failed = int64(plain.failed + traced.failed)
	return rig.finish(rep, cfg.seed)
}
