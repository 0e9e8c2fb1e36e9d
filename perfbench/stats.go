package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"tbd/internal/metrics"
	"tbd/internal/tensor"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile is only reported where the run supports it.
const minBeyond = 10

// supportsQuantile reports whether n samples leave at least minBeyond of
// them above the q-quantile.
func supportsQuantile(n int, q float64) bool {
	return float64(n)*(1-q)+1e-9 >= minBeyond // 1e-9: 100*(1-0.9) is 9.999…
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// warmupTol is the §3.4.2 detector's tolerance: an iteration is stable
// once it is within 50% of the median of the run's final quarter. A
// fresh model's first step runs about twice as slow as the rest, while
// the host's drift moves whole stretches of steps by up to a third; at
// 25% the detector took such a stretch for warm-up in one run in four,
// and its time then swamped setup_s.
const warmupTol = 0.5

// stableStart returns how many leading samples (seconds each) the
// paper's warm-up detector, metrics.Meter.StableStart, trims; 0 when the
// run never stabilizes, so that every sample is kept rather than none.
func stableStart(durs []float64, batch int) int {
	m := metrics.NewMeter(batch)
	for _, d := range durs {
		m.Record(d)
	}
	if k := m.StableStart(warmupTol); k < len(durs) {
		return k
	}
	return 0
}

// quietQ selects the quiet-window figure. The host's CPU speed drifts by
// up to ±30% over seconds (a spinning probe on the 2-core development
// host read 0.82–1.37× its median in half-second slices), and that drift
// only ever slows the program. So a run is split into windows, each
// window gets its own figures, and the run reports the figure that only
// a tenth of its windows beat: the 10th percentile of window latencies
// and the 90th of window throughputs. A change that slows the code
// slows every window, quiet ones included.
const quietQ = 0.10

// stepMetrics fills the end-to-end metrics of a closed-loop training
// run from its per-step (or per-chunk mean) durations in seconds. It
// trims warm-up with the §3.4.2 detector and splits the rest into
// consecutive windows of window samples; with window 0 the whole run is
// one window. Throughput, median and tail are quiet-window figures. It
// returns how many leading samples it trimmed, whose time the caller
// counts in setup_s.
func stepMetrics(rep *report, log io.Writer, durs []float64, samplesPer int, tailQ float64, window int) int {
	k := stableStart(durs, samplesPer)
	timed := durs[k:]
	if window <= 0 || window > len(timed) {
		window = len(timed)
	}
	var rates, p50s, tails []float64
	for lo := 0; lo+window <= len(timed); lo += window {
		w := timed[lo : lo+window]
		rates = append(rates, float64(len(w)*samplesPer)/sum(w))
		p50s = append(p50s, median(w))
		tails = append(tails, quantile(w, tailQ))
	}
	rep.set("samples_per_s", quantile(rates, 1-quietQ))
	rep.set("p50_ms", 1e3*quantile(p50s, quietQ))
	rep.set("tail_ms", 1e3*quantile(tails, quietQ))
	rep.facts["timed_samples"] = len(timed)
	rep.facts["warmup_trimmed"] = k
	rep.facts["tail_quantile"] = tailQ
	rep.facts["windows"] = len(tails)
	rep.facts["run_samples_per_s"] = float64(len(timed)*samplesPer) / sum(timed)
	rep.facts["run_p50_ms"] = 1e3 * median(timed)
	rep.facts["run_tail_ms"] = 1e3 * quantile(timed, tailQ)
	if !supportsQuantile(window, tailQ) {
		fmt.Fprintf(log, "perfbench: warning: windows of %d samples leave fewer than %d beyond p%g\n",
			window, minBeyond, 100*tailQ)
	}
	return k
}

// resetPeakRSS collects garbage, returns free memory to the OS and
// resets the process's peak resident set, so that peakRSSMB reports the
// peak of the measured phase alone, not of the set-up's transient
// allocations. Where the kernel does not allow the reset, the peak
// covers the whole run.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB. Each
// run is its own process, so one workload's peak never carries into
// another's.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// cpuTicks reads the machine's total and stolen CPU ticks from
// /proc/stat: time the hypervisor gave the virtual CPUs to someone else.
func cpuTicks() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// counters is a snapshot of the process-wide counters the per-layer
// metrics difference over an untraced pass.
type counters struct {
	mallocs            uint64
	gcCPU, totalCPU    float64
	poolGets, poolHits uint64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	p := tensor.PoolStatsSnapshot()
	return counters{
		mallocs:  ms.Mallocs,
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		poolGets: p.Gets + p.PackGets + p.PackHalfGets,
		poolHits: p.Hits + p.PackHits + p.PackHalfHits,
	}
}

// setRuntimeMetrics reports allocations per operation, the GC's share
// of CPU time, and the tensor pool's hit ratio between two snapshots.
func setRuntimeMetrics(rep *report, a, b counters, ops int) {
	if ops > 0 {
		rep.set("runtime.allocs_per_op", float64(b.mallocs-a.mallocs)/float64(ops))
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		rep.set("runtime.gc_cpu_share", (b.gcCPU-a.gcCPU)/cpu)
	}
	if gets := b.poolGets - a.poolGets; gets > 0 {
		rep.set("tensor.pool_hit_ratio", float64(b.poolHits-a.poolHits)/float64(gets))
	}
}
