package dist

import (
	"net"
	"sync"
	"testing"

	"tbd/internal/device"
	"tbd/internal/graph"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// startPS boots a server on localhost for the given worker count, backed
// by a fresh mlp replica.
func startPS(t *testing.T, workers int, seed uint64) (*PSServer, *graph.Network) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := mlpConstructor(seed)()
	s := ServePS(l, master.Params(), optim.NewSGD(0.1), workers)
	t.Cleanup(func() { s.Close() })
	return s, master
}

func TestPSPullReturnsWeights(t *testing.T) {
	s, master := startPS(t, 1, 1)
	c, err := DialPS(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	weights, version, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if version != 0 {
		t.Fatalf("fresh server version %d", version)
	}
	params := master.Params()
	if len(weights) != len(params) {
		t.Fatalf("pulled %d tensors, want %d", len(weights), len(params))
	}
	for i, w := range weights {
		for j, v := range w {
			if v != params[i].Value.Data()[j] {
				t.Fatal("pulled weights differ from master")
			}
		}
	}
}

func TestPSTrainingMatchesSingleReplica(t *testing.T) {
	// Two TCP workers over localhost must be numerically identical to a
	// single replica trained on the concatenated batch.
	const workers = 2
	s, _ := startPS(t, workers, 42)

	rng := tensor.NewRNG(7)
	x, labels := makeBatch(rng, 16)
	xs, ys := SplitBatch(x, labels, workers)

	// Reference: plain single-replica step on the full batch.
	ref := mlpConstructor(42)()
	graph.TrainClassifierStep(ref, optim.NewSGD(0.1), x, labels, 0)

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialPS(s.Addr(), 0)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			local := mlpConstructor(99)() // weights will be overwritten by Pull
			weights, _, err := c.Pull()
			if err != nil {
				errs[w] = err
				return
			}
			if err := LoadWeights(local.Params(), weights); err != nil {
				errs[w] = err
				return
			}
			optim.ZeroGrads(local.Params())
			logits := local.Forward(xs[w], true)
			_, grad := tensor.CrossEntropy(logits, ys[w])
			local.Backward(grad)
			_, _, err = c.Push(w, CompressNone, GradSlices(local.Params()))
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.Version() != 1 {
		t.Fatalf("server applied %d rounds, want 1", s.Version())
	}
	// Server weights equal the reference update.
	c, _ := DialPS(s.Addr(), 0)
	defer c.Close()
	weights, _, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ref.Params() {
		for j, v := range p.Value.Data() {
			d := v - weights[i][j]
			if d > 1e-5 || d < -1e-5 {
				t.Fatalf("param %d[%d]: TCP training %.6f vs single replica %.6f", i, j, weights[i][j], v)
			}
		}
	}
}

func TestPSMultiRoundConvergence(t *testing.T) {
	const workers, rounds = 2, 60
	s, _ := startPS(t, workers, 3)
	rng := tensor.NewRNG(4)

	// Pre-generate per-round shards so both workers stay in lockstep.
	type roundData struct {
		xs []*tensor.Tensor
		ys [][]int
	}
	data := make([]roundData, rounds)
	for r := range data {
		x, labels := makeBatch(rng, 24)
		xs, ys := SplitBatch(x, labels, workers)
		data[r] = roundData{xs: xs, ys: ys}
	}

	losses := make([][]float32, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialPS(s.Addr(), 0)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			local := mlpConstructor(5)()
			weights, _, err := c.Pull()
			if err != nil {
				errs[w] = err
				return
			}
			for r := 0; r < rounds; r++ {
				if err := LoadWeights(local.Params(), weights); err != nil {
					errs[w] = err
					return
				}
				optim.ZeroGrads(local.Params())
				logits := local.Forward(data[r].xs[w], true)
				loss, grad := tensor.CrossEntropy(logits, data[r].ys[w])
				local.Backward(grad)
				losses[w] = append(losses[w], loss)
				weights, _, err = c.Push(w, CompressNone, GradSlices(local.Params()))
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.Version() != rounds {
		t.Fatalf("server applied %d rounds, want %d", s.Version(), rounds)
	}
	for w := 0; w < workers; w++ {
		first, last := losses[w][0], losses[w][rounds-1]
		if last >= first/2 {
			t.Fatalf("worker %d did not converge over TCP: %.4f -> %.4f", w, first, last)
		}
	}
}

func TestPSRejectsMalformedPush(t *testing.T) {
	s, _ := startPS(t, 1, 6)
	c, err := DialPS(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Push(0, CompressNone, [][]float32{{1, 2}}); err == nil {
		t.Fatal("wrong tensor count must be rejected")
	}
	// The connection survives the error and still serves pulls.
	if _, _, err := c.Pull(); err != nil {
		t.Fatalf("connection unusable after rejected push: %v", err)
	}
}

func TestLoadWeightsValidates(t *testing.T) {
	net1 := mlpConstructor(8)()
	if err := LoadWeights(net1.Params(), [][]float32{{1}}); err == nil {
		t.Fatal("tensor-count mismatch must error")
	}
	good := GradSlices(net1.Params()) // same shapes as weights
	if err := LoadWeights(net1.Params(), good); err != nil {
		t.Fatal(err)
	}
	good[0] = good[0][:1]
	if err := LoadWeights(net1.Params(), good); err == nil {
		t.Fatal("element-count mismatch must error")
	}
}

func TestAsyncPSConverges(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 3, 40
	master := mlpConstructor(50)()
	// A staleness bound of `rounds` never holds a worker back.
	s := ServeBoundedAsyncPS(l, master.Params(), optim.NewSGD(0.05), workers, rounds)
	defer s.Close()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	finalLoss := make([]float32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialPS(s.Addr(), 0)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			rng := tensor.NewRNG(uint64(w) + 60)
			local := mlpConstructor(51)()
			weights, _, err := c.Pull()
			if err != nil {
				errs[w] = err
				return
			}
			for r := 0; r < rounds; r++ {
				if err := LoadWeights(local.Params(), weights); err != nil {
					errs[w] = err
					return
				}
				x, labels := makeBatch(rng, 12)
				optim.ZeroGrads(local.Params())
				logits := local.Forward(x, true)
				loss, grad := tensor.CrossEntropy(logits, labels)
				local.Backward(grad)
				finalLoss[w] = loss
				// Async: push returns immediately with fresh weights.
				weights, _, err = c.Push(w, CompressNone, GradSlices(local.Params()))
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every push applied individually: version = workers*rounds.
	if s.Version() != workers*rounds {
		t.Fatalf("async server applied %d updates, want %d", s.Version(), workers*rounds)
	}
	for w, loss := range finalLoss {
		if loss > 0.5 {
			t.Fatalf("worker %d final loss %.3f, async training did not converge", w, loss)
		}
	}
}

func TestPushHalfTrainsAndConverges(t *testing.T) {
	// fp16 gradient compression halves wire volume while training still
	// converges (half's 2^-11 relative error is far below SGD noise).
	s, _ := startPS(t, 1, 70)
	c, err := DialPS(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := tensor.NewRNG(71)
	local := mlpConstructor(70)()
	weights, _, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	for r := 0; r < 60; r++ {
		if err := LoadWeights(local.Params(), weights); err != nil {
			t.Fatal(err)
		}
		x, labels := makeBatch(rng, 16)
		optim.ZeroGrads(local.Params())
		logits := local.Forward(x, true)
		loss, grad := tensor.CrossEntropy(logits, labels)
		local.Backward(grad)
		if r == 0 {
			first = loss
		}
		last = loss
		weights, _, err = c.Push(0, CompressFP16, GradSlices(local.Params()))
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first/2 {
		t.Fatalf("fp16-gradient training did not converge: %.4f -> %.4f", first, last)
	}
}

func TestGradCompressionRescuesEthernet(t *testing.T) {
	// §4.5's recommendation quantified: compressing gradients 4x makes
	// the 2-machine Ethernet configuration usable again.
	ops, style, cfg := resnetCfg()
	eth := Cluster{Name: "eth", Machines: 2, GPUsPerMachine: 1, IntraLink: device.PCIe3, InterLink: device.Ethernet, Strategy: ParameterServer, OverlapFraction: 0.5}
	plain := Scale(ops, 16, style, cfg, eth)
	eth.GradCompression = 4
	compressed := Scale(ops, 16, style, cfg, eth)
	if compressed.Throughput < plain.Throughput*2 {
		t.Fatalf("4x compression should speed Ethernet >2x: %.1f vs %.1f", compressed.Throughput, plain.Throughput)
	}
	if compressed.RawCommSec >= plain.RawCommSec {
		t.Fatal("compression did not reduce raw communication")
	}
}
