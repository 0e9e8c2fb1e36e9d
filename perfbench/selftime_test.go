package main

import (
	"math"
	"testing"
	"time"

	"tbd/internal/prof"
)

func rec(id, parent uint64, name string, start, dur int) prof.Record {
	return prof.Record{ID: id, Parent: parent, Name: name, Start: time.Duration(start), Dur: time.Duration(dur)}
}

// TestSelfTimesHandBuiltTree checks self time on a tree with nested,
// overlapping and parentless spans:
//
//	step [0,100)
//	├── fwd [10,40)
//	│   ├── gemm [15,25)
//	│   └── gemm [20,30)   overlaps its sibling: covered once
//	└── bwd [50,90)
//	    └── kernel [60,70)  no Parent edge: attached by containment
//	stray [95,120)          Parent edge to step, but outside it: a root
//	data [120,130)          root
func TestSelfTimesHandBuiltTree(t *testing.T) {
	spans := selfTimes([]prof.Record{
		rec(3, 2, "gemm", 15, 10),
		rec(4, 2, "gemm", 20, 10),
		rec(2, 1, "fwd", 10, 30),
		rec(6, 0, "kernel", 60, 10),
		rec(5, 1, "bwd", 50, 40),
		rec(1, 0, "step", 0, 100),
		rec(7, 1, "stray", 95, 25),
		rec(8, 0, "data", 120, 10),
	})
	want := map[uint64]time.Duration{
		1: 100 - 30 - 40, // children fwd and bwd; stray is not inside step
		2: 30 - 15,       // gemm children cover [15,30)
		3: 10,
		4: 10,
		5: 40 - 10,
		6: 10,
		7: 25,
		8: 10,
	}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
	var total time.Duration
	for _, s := range spans {
		total += s.Self
	}
	// The spans cover [0,130); the overlapping gemm siblings and the
	// stray span overlapping step each count 5 units twice.
	if total != 140 {
		t.Errorf("self times sum to %d, want 140", total)
	}
}

func TestSelfTimesKernelRows(t *testing.T) {
	spans := selfTimes([]prof.Record{
		{ID: 2, Parent: 1, Name: "gemm", Cat: prof.CatKernel, Start: 10, Dur: 20, FLOPs: 4e9},
		{ID: 1, Name: "conv2d.fwd", Cat: prof.CatKernel, Start: 0, Dur: 50},
	})
	rep := newReport()
	setKernelMetrics(rep, spans, 1)
	for name, want := range map[string]float64{
		"tensor.conv2d_fwd.self_ms": 30e-6, // 50ns minus the 20ns GEMM
		"tensor.gemm.self_ms":       20e-6,
		"tensor.gemm.gflops":        4e9 / 20e-9 / 1e9, // 4e9 FLOPs in 20ns
	} {
		if got := rep.values[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
