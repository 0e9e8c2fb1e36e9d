package graph

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// adamCheckpoint trains net for one Adam step and returns a checkpoint of
// its weights and optimizer state.
func adamCheckpoint(t testing.TB, net *Network) []byte {
	t.Helper()
	opt := optim.NewAdam(0.01)
	x, y := twoClusterBatch(tensor.NewRNG(3), 8)
	TrainClassifierStep(net, opt, x, y, 0)
	var buf bytes.Buffer
	if err := SaveCheckpointWithOptimizer(&buf, net, opt, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// driftCheckpoint re-encodes ckpt with the dimensions of its first
// non-square rank-2 parameter swapped ([a,b] -> [b,a]): every name and
// element count still matches, only the shape is wrong.
func driftCheckpoint(t testing.TB, ckpt []byte) []byte {
	t.Helper()
	var file checkpointFile
	if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&file); err != nil {
		t.Fatal(err)
	}
	drifted := false
	for i := range file.Params {
		if s := file.Params[i].Shape; len(s) == 2 && s[0] != s[1] {
			s[0], s[1] = s[1], s[0]
			drifted = true
			break
		}
	}
	if !drifted {
		t.Fatal("checkpoint has no non-square matrix to drift")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&file); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// paramBits snapshots the bit pattern of every parameter of n.
func paramBits(n *Network) [][]uint32 {
	var out [][]uint32
	for _, p := range n.Params() {
		bits := make([]uint32, p.Value.Numel())
		for i, v := range p.Value.Data() {
			bits[i] = math.Float32bits(v)
		}
		out = append(out, bits)
	}
	return out
}

// requireBitsUnchanged fails unless every parameter of n still has the
// bit pattern recorded in before.
func requireBitsUnchanged(t testing.TB, n *Network, before [][]uint32) {
	t.Helper()
	for i, p := range n.Params() {
		for j, v := range p.Value.Data() {
			if math.Float32bits(v) != before[i][j] {
				t.Fatalf("parameter %s element %d changed by a rejected load", p.Name, j)
			}
		}
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to both checkpoint loaders
// (POST /swap hands LoadCheckpoint a body from outside the process).
// Neither may panic, and a rejected checkpoint must leave every parameter
// bit-unchanged. The seed corpus in testdata/fuzz/FuzzLoadCheckpoint
// holds an adamCheckpoint of mlp(tensor.NewRNG(12)) (valid for both
// loaders), the same bytes truncated to half, the same checkpoint
// re-encoded with magic "not-a-checkpoint", and its driftCheckpoint.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		net := mlp(tensor.NewRNG(12))
		before := paramBits(net)
		if _, err := LoadCheckpoint(bytes.NewReader(data), net); err != nil {
			requireBitsUnchanged(t, net, before)
		}
		net = mlp(tensor.NewRNG(12))
		if _, err := LoadCheckpointWithOptimizer(bytes.NewReader(data), net, optim.NewAdam(0.01)); err != nil {
			requireBitsUnchanged(t, net, before)
		}
	})
}
