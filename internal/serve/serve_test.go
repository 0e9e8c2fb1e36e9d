package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbd/internal/tensor"
)

// identityModel echoes its input: output row i == input row i. It lets
// ordering tests tag each request with a distinct payload.
type identityModel struct{}

func (identityModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

// slowModel sleeps per forward, for queue-pressure and drain tests.
type slowModel struct {
	delay    time.Duration
	forwards atomic.Int64
}

func (m *slowModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m.forwards.Add(1)
	time.Sleep(m.delay)
	return x
}

// panicModel simulates a forward-pass fault (e.g. out-of-vocab token id
// hitting an embedding layer).
type panicModel struct{}

func (panicModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	panic("bad input")
}

// oneReplica starts a one-replica fleet over m — the plain dynamic
// batcher — and closes it when the test ends.
func oneReplica(t *testing.T, m Model, sampleLen int, cfg FleetConfig) *Fleet {
	t.Helper()
	cfg.Replicas = 1
	f, err := NewFleet(func() (*Session, error) { return NewSession(m, sampleLen), nil }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// waitAdmitted blocks until f has admitted at least one request, so a
// drain test closes a fleet that has work in it rather than racing the
// scheduler with a fixed sleep.
func waitAdmitted(t *testing.T, f *Fleet) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for f.Stats().Accepted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request admitted within 2s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestServeBitIdenticalToSingleSample is the zero-tolerance equality
// acceptance test for the plain dynamic batcher: on a one-replica fleet,
// every result must be bit-identical to a single-sample forward pass on
// an identically seeded network, for a dense and a conv twin, serial and
// parallel, and some request must ride in a batch > 1.
func TestServeBitIdenticalToSingleSample(t *testing.T) {
	forEachTwinAndParallelism(t, func(t *testing.T, factory func() (*Session, error), samples []*tensor.Tensor, want [][]float32) {
		checkFleetMatches(t, factory, 1, samples, want)
	})
}

// TestServeResultsMatchRequests pins per-request routing: with every
// sample tagged by a distinct constant, each response must carry its own
// request's payload regardless of how requests interleave into batches.
func TestServeResultsMatchRequests(t *testing.T) {
	const nReq = 128
	f := oneReplica(t, identityModel{}, 8, FleetConfig{
		MaxBatch: 8, MaxWait: time.Millisecond, QueueDepth: nReq,
	})
	var wg sync.WaitGroup
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := tensor.Full(float32(i), 8)
			res, err := f.Predict(x)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			for _, v := range res.Output {
				if v != float32(i) {
					t.Errorf("request %d got payload %g from another request", i, v)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestServeAdmissionControl saturates a tiny queue behind a slow model
// and checks that excess load is shed with ErrOverloaded rather than
// queued without bound.
func TestServeAdmissionControl(t *testing.T) {
	f := oneReplica(t, &slowModel{delay: 5 * time.Millisecond}, 4, FleetConfig{
		MaxBatch: 1, QueueDepth: 1,
	})

	const nReq = 32
	var shed, ok atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.Predict(tensor.New(4))
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("expected some requests to be shed under overload")
	}
	if ok.Load() == 0 {
		t.Fatal("expected some requests to be served under overload")
	}
	snap := f.Stats()
	if snap.RejectedOverload != uint64(shed.Load()) {
		t.Fatalf("stats rejected=%d, want %d", snap.RejectedOverload, shed.Load())
	}
	if snap.Completed != uint64(ok.Load()) {
		t.Fatalf("stats completed=%d, want %d", snap.Completed, ok.Load())
	}
}

// TestServeGracefulDrain checks the shutdown contract: every admitted
// request completes, later requests get ErrShuttingDown, and the runner
// goroutine exits (no leak).
func TestServeGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	m := &slowModel{delay: 2 * time.Millisecond}
	f := oneReplica(t, m, 4, FleetConfig{MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 64})

	const nReq = 24
	var wg sync.WaitGroup
	errc := make(chan error, nReq)
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.Predict(tensor.New(4))
			errc <- err
		}()
	}
	// Let some requests get admitted, then close concurrently with the
	// rest still arriving.
	waitAdmitted(t, f)
	f.Close()
	wg.Wait()
	close(errc)

	var served, refused int
	for err := range errc {
		switch {
		case err == nil:
			served++
		case errors.Is(err, ErrShuttingDown):
			refused++
		default:
			t.Fatalf("unexpected error during drain: %v", err)
		}
	}
	if served == 0 {
		t.Fatal("no admitted request was drained to completion")
	}
	if served+refused != nReq {
		t.Fatalf("served %d + refused %d != %d", served, refused, nReq)
	}

	// Post-close requests are refused outright.
	if _, err := f.Predict(tensor.New(4)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Predict after Close = %v, want ErrShuttingDown", err)
	}
	// Close is idempotent.
	f.Close()

	// The runner goroutine must be gone. Allow the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, g)
	}
}

// TestServeMaxWaitFlushesPartialBatch: a lone request must not wait for
// a full batch — the deadline flushes it.
func TestServeMaxWaitFlushesPartialBatch(t *testing.T) {
	f := oneReplica(t, identityModel{}, 2, FleetConfig{
		MaxBatch: 64, MaxWait: 5 * time.Millisecond, QueueDepth: 64,
	})

	start := time.Now()
	res, err := f.Predict(tensor.Full(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 1 {
		t.Fatalf("lone request batch size = %d, want 1", res.BatchSize)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("lone request waited %v; deadline flush failed", waited)
	}
}

// TestServeShapeValidation rejects wrong-size samples before queueing.
func TestServeShapeValidation(t *testing.T) {
	f := oneReplica(t, identityModel{}, 4, FleetConfig{MaxBatch: 4})
	if _, err := f.Predict(tensor.New(5)); err == nil {
		t.Fatal("wrong-size sample must be rejected")
	}
	if _, err := f.Predict(nil); err == nil {
		t.Fatal("nil sample must be rejected")
	}
}

// TestServeForwardPanicFailsBatch: a panicking forward pass must fail
// the batch's requests with an error, not kill the replica.
func TestServeForwardPanicFailsBatch(t *testing.T) {
	f := oneReplica(t, panicModel{}, 2, FleetConfig{MaxBatch: 4, QueueDepth: 8})
	if _, err := f.Predict(tensor.New(2)); err == nil {
		t.Fatal("panicking forward must surface as an error")
	}
	// The replica survives and keeps answering.
	if _, err := f.Predict(tensor.New(2)); err == nil {
		t.Fatal("second request should also error, not hang")
	}
	if snap := f.Stats(); snap.Failed == 0 {
		t.Fatal("failed requests not counted")
	}
}

// TestServeStatsAndTrace checks the observability wiring: counters add
// up, latency quantiles are populated, occupancy reflects batching, and
// batch trace events are exported.
func TestServeStatsAndTrace(t *testing.T) {
	f := oneReplica(t, identityModel{}, 4, FleetConfig{
		MaxBatch: 8, MaxWait: time.Millisecond, QueueDepth: 128, TraceEvents: 1024,
	})

	const nReq = 96
	var wg sync.WaitGroup
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.Predict(tensor.New(4)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	snap := f.Stats()
	if snap.Accepted != nReq || snap.Completed != nReq {
		t.Fatalf("accepted=%d completed=%d, want %d", snap.Accepted, snap.Completed, nReq)
	}
	if snap.Batches == 0 || snap.Batches > nReq {
		t.Fatalf("batches=%d out of range", snap.Batches)
	}
	if snap.MeanOccupancy < 1 {
		t.Fatalf("mean occupancy %g < 1", snap.MeanOccupancy)
	}
	if snap.LatencyP50Ms <= 0 || snap.LatencyP99Ms < snap.LatencyP50Ms {
		t.Fatalf("latency quantiles inconsistent: p50=%g p99=%g", snap.LatencyP50Ms, snap.LatencyP99Ms)
	}
	if h := f.LatencyHistogram(); h.Count() != nReq {
		t.Fatalf("latency histogram count=%d, want %d", h.Count(), nReq)
	}

	tl := f.Timeline()
	if len(tl.Events) == 0 {
		t.Fatal("no trace events captured")
	}
	if uint64(len(tl.Events)) != snap.Batches {
		t.Fatalf("trace events %d != batches %d", len(tl.Events), snap.Batches)
	}
	if tl.BusyTime() <= 0 {
		t.Fatal("trace events carry no durations")
	}
}

// TestServeCPUBudgetClamp: concurrent fleets must divide GOMAXPROCS
// between their runners instead of multiplying the worker pool, and the
// user's parallelism setting must come back when the last fleet closes.
func TestServeCPUBudgetClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	want := 8
	if want > procs {
		want = procs
	}
	prev := tensor.SetParallelism(want)
	defer tensor.SetParallelism(prev)
	base := tensor.Parallelism()

	var fleets []*Fleet
	for i := 1; i <= 4; i++ {
		fleets = append(fleets, oneReplica(t, identityModel{}, 2, FleetConfig{MaxBatch: 2}))
		got := tensor.Parallelism()
		limit := procs / i
		if limit < 1 {
			limit = 1
		}
		if limit > base {
			limit = base
		}
		if got > limit {
			t.Fatalf("with %d fleets, parallelism=%d exceeds budget %d (GOMAXPROCS=%d)", i, got, limit, procs)
		}
	}
	if ActiveServices() != 4 {
		t.Fatalf("ActiveServices=%d, want 4", ActiveServices())
	}
	for _, s := range fleets {
		s.Close()
	}
	if got := tensor.Parallelism(); got != base {
		t.Fatalf("parallelism after last close = %d, want restored %d", got, base)
	}
	if ActiveServices() != 0 {
		t.Fatalf("ActiveServices=%d after closing all", ActiveServices())
	}
}

// TestServeLoadGen drives the closed-loop generator against a real
// one-replica fleet and checks its accounting.
func TestServeLoadGen(t *testing.T) {
	f := oneReplica(t, identityModel{}, 4, FleetConfig{
		MaxBatch: 8, MaxWait: 500 * time.Microsecond, QueueDepth: 64,
	})

	x := tensor.New(4)
	res := LoadGen{Concurrency: 4, Duration: 100 * time.Millisecond}.Run(func(w int) error {
		_, err := f.Predict(x)
		return err
	})
	if res.Requests == 0 {
		t.Fatal("load generator issued no requests")
	}
	if res.ThroughputRPS <= 0 {
		t.Fatal("throughput not computed")
	}
	if res.Latency.Count() != res.Requests {
		t.Fatalf("latency count %d != requests %d", res.Latency.Count(), res.Requests)
	}
	if res.P99Ms() < res.P50Ms() {
		t.Fatalf("p99 %g < p50 %g", res.P99Ms(), res.P50Ms())
	}
}
