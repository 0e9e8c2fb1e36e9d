// Distributed: the paper's §4.5 scaling study plus real data-parallel
// training over a parameter server.
//
// The first half regenerates Figure 10 — ResNet-50 on MXNet across five
// cluster configurations, showing the Ethernet collapse and the healthy
// InfiniBand/PCIe scaling. The second half runs an actual synchronous
// data-parallel training job: two workers pull weights from and push
// gradients to a parameter server over localhost TCP, and the loss must
// fall.
package main

import (
	"fmt"
	"net"
	"os"
	"sync"

	"tbd"
	"tbd/internal/dist"
	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("== Figure 10: ResNet-50 on MXNet, multi-GPU / multi-machine ==")
	rs, err := tbd.ScalingStudy("ResNet-50", "MXNet", []int{8, 16, 32})
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-10s %-14s %-12s\n", "Config", "Batch/GPU", "Throughput", "Efficiency")
	for _, r := range rs {
		fmt.Printf("%-20s %-10d %-14.1f %.0f%%\n", r.Config, r.PerGPUBatch, r.Throughput, 100*r.ScalingEfficiency)
	}

	construct := func() *graph.Network {
		rng := tensor.NewRNG(11)
		return graph.New("mlp", layers.NewSequential("mlp",
			layers.NewDense("fc1", 8, 32, rng),
			layers.NewReLU("relu"),
			layers.NewDense("fc2", 32, 4, rng),
		))
	}

	rng := tensor.NewRNG(5)
	batch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 8)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			c := rng.Intn(4)
			labels[i] = c
			for j := 0; j < 8; j++ {
				v := 0.3 * float32(rng.Norm())
				if j == c {
					v += 2
				}
				x.Set(v, i, j)
			}
		}
		return x, labels
	}
	if err := runTCPParameterServer(construct, batch); err != nil {
		return err
	}
	fmt.Println("\ndistributed: OK")
	return nil
}

// runTCPParameterServer demonstrates the real multi-machine path: a
// parameter server on a TCP socket with two workers pulling weights and
// pushing gradients over the wire, each round applied synchronously.
func runTCPParameterServer(construct func() *graph.Network, batch func(int) (*tensor.Tensor, []int)) error {
	fmt.Println("\n== Real parameter server over TCP (2 workers, localhost) ==")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	master := construct()
	server := dist.ServePS(l, master.Params(), optim.NewSGD(0.2), 2)
	defer server.Close()

	const rounds = 50
	losses := make([]float32, rounds)
	// Pre-shard every round's data so workers stay aligned.
	type round struct {
		xs []*tensor.Tensor
		ys [][]int
	}
	var rds []round
	for r := 0; r < rounds; r++ {
		x, labels := batch(32)
		xs, ys := dist.SplitBatch(x, labels, 2)
		rds = append(rds, round{xs, ys})
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := dist.DialPS(server.Addr(), 0)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			local := construct()
			weights, _, err := c.Pull()
			if err != nil {
				errs[w] = err
				return
			}
			for r := 0; r < rounds; r++ {
				if err := dist.LoadWeights(local.Params(), weights); err != nil {
					errs[w] = err
					return
				}
				optim.ZeroGrads(local.Params())
				logits := local.Forward(rds[r].xs[w], true)
				loss, grad := tensor.CrossEntropy(logits, rds[r].ys[w])
				local.Backward(grad)
				if w == 0 {
					losses[r] = loss
				}
				weights, _, err = c.Push(w, dist.CompressNone, dist.GradSlices(local.Params()))
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
			return err
		}
	}
	fmt.Printf("  %d synchronous rounds applied over TCP; worker-0 loss %.4f -> %.4f\n",
		server.Version(), losses[0], losses[rounds-1])
	if losses[rounds-1] >= losses[0] {
		return fmt.Errorf("TCP training did not reduce the loss")
	}
	return nil
}
