package main

import (
	"io"
	"testing"
)

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true},
		{99, 0.90, false},
		{50, 0.80, true},
		{49, 0.80, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{10, 0.50, false},
		{20, 0.50, true},
	} {
		if got := supportsQuantile(c.n, c.q); got != c.want {
			t.Errorf("supportsQuantile(%d, %g) = %t, want %t", c.n, c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending: quantile must sort a copy
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %g, want 90", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if xs[0] != 100 {
		t.Error("quantile modified its input")
	}
}

// TestStepMetricsTrimsWarmup: slow leading steps are trimmed by the
// §3.4.2 detector and excluded from throughput and percentiles.
func TestStepMetricsTrimsWarmup(t *testing.T) {
	durs := []float64{0.5, 0.4, 0.3}
	for i := 0; i < 100; i++ {
		durs = append(durs, 0.010)
	}
	rep := newReport()
	k := stepMetrics(rep, io.Discard, durs, 10, 0.9, 0)
	if k != 3 {
		t.Fatalf("trimmed %d steps, want 3", k)
	}
	if got := rep.values["samples_per_s"]; got < 999 || got > 1001 {
		t.Errorf("samples_per_s = %g, want 1000", got)
	}
	if got := rep.values["tail_ms"]; got < 9.99 || got > 10.01 {
		t.Errorf("tail_ms = %g, want 10", got)
	}
}
