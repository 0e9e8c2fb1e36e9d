package graph

import (
	"encoding/gob"
	"fmt"
	"io"

	"tbd/internal/optim"
)

// Checkpointing: serialize a network's trainable state so long training
// runs (days at paper scale, §3.3) can stop and resume. The format is a
// versioned gob stream of named parameter payloads; loading validates
// names and shapes against the live network, so architecture drift is
// caught instead of silently mis-restored.

// checkpointMagic guards against feeding arbitrary gob streams in.
const checkpointMagic = "tbd-checkpoint-v1"

// checkpointFile is the serialized form.
type checkpointFile struct {
	Magic  string
	Name   string
	Step   int64
	Params []checkpointParam
	// Optimizer holds stateful-optimizer slots when saved with
	// SaveCheckpointWithOptimizer (nil Kind otherwise).
	Optimizer optim.OptimizerState
}

type checkpointParam struct {
	Name  string
	Shape []int
	Data  []float32
}

// SaveCheckpoint writes the network's parameters (and a step counter) to
// w.
func SaveCheckpoint(w io.Writer, n *Network, step int64) error {
	return writeCheckpoint(w, n, step, optim.OptimizerState{})
}

// SaveCheckpointWithOptimizer writes the network and a stateful
// optimizer's slots together, so stateful training (Momentum, Adam,
// RMSProp) resumes on the exact trajectory.
func SaveCheckpointWithOptimizer(w io.Writer, n *Network, opt optim.Stateful, step int64) error {
	return writeCheckpoint(w, n, step, opt.Snapshot(n.Params()))
}

// LoadCheckpoint restores parameters saved by SaveCheckpoint (or
// SaveCheckpointWithOptimizer) into n and returns the stored step
// counter. Every parameter must match by name, order, and shape; on any
// error n is left untouched.
func LoadCheckpoint(r io.Reader, n *Network) (int64, error) {
	file, err := readCheckpoint(r, n)
	if err != nil {
		return 0, err
	}
	file.install(n)
	return file.Step, nil
}

// LoadCheckpointWithOptimizer restores both network weights and optimizer
// state written by SaveCheckpointWithOptimizer. The weights are copied in
// only after the optimizer state has been restored, so a checkpoint that
// fails either check leaves n untouched.
func LoadCheckpointWithOptimizer(r io.Reader, n *Network, opt optim.Stateful) (int64, error) {
	file, err := readCheckpoint(r, n)
	if err != nil {
		return 0, err
	}
	if file.Optimizer.Kind == "" {
		return 0, fmt.Errorf("graph: checkpoint has no optimizer state")
	}
	if err := opt.Restore(n.Params(), file.Optimizer); err != nil {
		return 0, err
	}
	file.install(n)
	return file.Step, nil
}

// writeCheckpoint is the one checkpoint encoder behind both Save
// functions; a zero opt (empty Kind) writes a weights-only checkpoint.
func writeCheckpoint(w io.Writer, n *Network, step int64, opt optim.OptimizerState) error {
	file := checkpointFile{Magic: checkpointMagic, Name: n.Name, Step: step, Optimizer: opt}
	for _, p := range n.Params() {
		file.Params = append(file.Params, checkpointParam{
			Name:  p.Name,
			Shape: append([]int(nil), p.Value.Shape()...),
			Data:  append([]float32(nil), p.Value.Data()...),
		})
	}
	return gob.NewEncoder(w).Encode(&file)
}

// readCheckpoint is the one checkpoint decoder behind both Load
// functions. It decodes r and validates the magic and every parameter's
// name, rank, dimensions, and element count against n, without writing
// to n; a nil error means file.install(n) cannot fail.
func readCheckpoint(r io.Reader, n *Network) (*checkpointFile, error) {
	var file checkpointFile
	if err := gob.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("graph: decode checkpoint: %w", err)
	}
	if file.Magic != checkpointMagic {
		return nil, fmt.Errorf("graph: not a tbd checkpoint (magic %q)", file.Magic)
	}
	params := n.Params()
	if len(file.Params) != len(params) {
		return nil, fmt.Errorf("graph: checkpoint has %d parameters, network has %d", len(file.Params), len(params))
	}
	for i, cp := range file.Params {
		p := params[i]
		if cp.Name != p.Name {
			return nil, fmt.Errorf("graph: parameter %d is %q in checkpoint but %q in network", i, cp.Name, p.Name)
		}
		shape := p.Value.Shape()
		if len(cp.Shape) != len(shape) {
			return nil, fmt.Errorf("graph: parameter %q has rank %d in checkpoint, %d in network", cp.Name, len(cp.Shape), len(shape))
		}
		for d := range shape {
			if cp.Shape[d] != shape[d] {
				return nil, fmt.Errorf("graph: parameter %q shape %v in checkpoint, %v in network", cp.Name, cp.Shape, shape)
			}
		}
		if len(cp.Data) != p.Value.Numel() {
			return nil, fmt.Errorf("graph: parameter %q has %d elements in checkpoint, %d in network", cp.Name, len(cp.Data), p.Value.Numel())
		}
	}
	return &file, nil
}

// install copies a validated checkpoint's parameters into n.
func (f *checkpointFile) install(n *Network) {
	for i, p := range n.Params() {
		copy(p.Value.Data(), f.Params[i].Data)
	}
}
