package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestWindowRecentVsCumulative drives a Window through a simulated clock:
// while both phases are inside the window, Snapshot holds the cumulative
// distribution of everything observed so far; once the ring rotates past
// the early burst of slow observations, only the recent phase remains.
// This is the property the serving router depends on — recent p99 as a
// control signal, not a lifetime average.
func TestWindowRecentVsCumulative(t *testing.T) {
	w := NewRollingHistogram(NewLatencyHistogram(), 100*time.Millisecond, 4)
	t0 := w.start

	// Slow phase: 1s-class latencies in the first slice.
	for i := 0; i < 100; i++ {
		w.ObserveAt(1.0, t0.Add(10*time.Millisecond))
	}
	// Fast phase: 1ms-class latencies three slices later.
	for i := 0; i < 100; i++ {
		w.ObserveAt(1e-3, t0.Add(350*time.Millisecond))
	}

	// At t=350ms both phases are inside the 400ms window.
	both := w.SnapshotAt(t0.Add(350 * time.Millisecond))
	if got := both.Count(); got != 200 {
		t.Fatalf("window count with both phases live = %d, want 200", got)
	}
	if p99 := both.Quantile(0.99); p99 < 0.5 {
		t.Fatalf("recent p99 %g with slow phase live, want >= 0.5", p99)
	}

	// At t=650ms the slow slice (epoch 0) has rotated out; the fast
	// phase (epoch 3) is still inside the 4-slice window.
	recent := w.SnapshotAt(t0.Add(650 * time.Millisecond))
	if got := recent.Count(); got != 100 {
		t.Fatalf("window count after rotation = %d, want 100 (slow phase aged out)", got)
	}
	if p99 := recent.Quantile(0.99); p99 > 0.1 {
		t.Fatalf("recent p99 %g after slow phase aged out, want ~1ms", p99)
	}

	// One slice later (epoch 7) the fast phase has aged out too.
	if got := w.SnapshotAt(t0.Add(700 * time.Millisecond)).Count(); got != 0 {
		t.Fatalf("window count after both phases aged out = %d, want 0", got)
	}
}

// TestWindowFullExpiry: a gap longer than the whole window clears every
// slice in one rotation.
func TestWindowFullExpiry(t *testing.T) {
	w := NewRollingHistogram(NewLatencyHistogram(), 50*time.Millisecond, 4)
	t0 := w.start
	for i := 0; i < 10; i++ {
		w.ObserveAt(0.5, t0.Add(time.Millisecond))
	}
	if got := w.SnapshotAt(t0.Add(10 * time.Millisecond)).Count(); got != 10 {
		t.Fatalf("live count = %d, want 10", got)
	}
	// 10 slice-widths later: everything expired.
	if got := w.SnapshotAt(t0.Add(500 * time.Millisecond)).Count(); got != 0 {
		t.Fatalf("count after full expiry = %d, want 0", got)
	}
	// The emptied ring keeps counting from the new active slice.
	w.ObserveAt(0.5, t0.Add(510*time.Millisecond))
	if got := w.SnapshotAt(t0.Add(520 * time.Millisecond)).Count(); got != 1 {
		t.Fatalf("count after observing into the emptied ring = %d, want 1", got)
	}
}

// TestWindowObserveOutOfOrderClock: an Observe carrying a timestamp older
// than the active slice must not rewind the ring.
func TestWindowObserveOutOfOrderClock(t *testing.T) {
	w := NewRollingHistogram(NewLatencyHistogram(), 100*time.Millisecond, 4)
	t0 := w.start
	w.ObserveAt(1.0, t0.Add(250*time.Millisecond)) // epoch 2
	w.ObserveAt(2.0, t0.Add(150*time.Millisecond)) // stale clock: folded into epoch 2
	snap := w.SnapshotAt(t0.Add(260 * time.Millisecond))
	if got := snap.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if snap.Max() != 2.0 {
		t.Fatalf("max = %g, want 2 (stale observation kept)", snap.Max())
	}
}

// TestHistogramCloneReset pins the two Histogram additions the Window is
// built on: Clone is independent, Reset empties but keeps the layout.
func TestHistogramCloneReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0.5)
	h.Observe(2e-6)
	c := h.Clone()
	if c.Count() != 2 || c.Sum() != h.Sum() || c.Min() != h.Min() || c.Max() != h.Max() {
		t.Fatalf("clone mismatch: %d obs, sum %g", c.Count(), c.Sum())
	}
	c.Observe(1.0)
	if h.Count() != 2 {
		t.Fatalf("observing the clone moved the original (count %d)", h.Count())
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("reset histogram not empty: count=%d sum=%g", h.Count(), h.Sum())
	}
	h.Observe(3e-3)
	if h.Count() != 1 || h.Max() != 3e-3 {
		t.Fatalf("histogram unusable after reset: count=%d max=%g", h.Count(), h.Max())
	}
	// Reset histograms still merge with their layout peers.
	h.Merge(c)
	if h.Count() != 4 {
		t.Fatalf("merge after reset: count=%d, want 4", h.Count())
	}
}

// TestWindowConcurrent hammers one Window from concurrent observers and
// snapshot readers. Unlike the bare Histogram, the Window carries its own
// lock, so this must be race-clean without external serialization (the
// fleet router reads snapshots while replica runners observe).
func TestWindowConcurrent(t *testing.T) {
	// An hour-wide window: no observation can age out during the test, so
	// the final Snapshot must count every one.
	w := NewRollingLatencyHistogram(time.Hour)
	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				w.Observe(1e-5 + 1e-8*float64(i*perWriter+j))
			}
		}(i)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				_ = w.Snapshot().Quantile(0.99)
			}
		}()
	}
	wg.Wait()
	if got := w.Snapshot().Count(); got != writers*perWriter {
		t.Fatalf("window count = %d, want %d", got, writers*perWriter)
	}
}
