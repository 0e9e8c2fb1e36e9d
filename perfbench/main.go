// Command perfbench is the repository benchmark. It drives the engine's
// public entry points from outside — graph.TrainClassifierStep for
// single-process training, serve.Fleet under an open-loop generator for
// serving, and dist.NewCoordinator/dist.RunWorker for parameter-server
// and ring training — measures the end-to-end metrics with profiling
// off, and attributes time to layers from a separate traced run.
//
//	perfbench --workload train-cnn --seed 1 --seconds 20 --trace 0
//	perfbench compare a.json b.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (see
// catalog.go). The run exits non-zero when any correctness check fails.
// See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"tbd/internal/tensor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runConfig is what every workload receives: its inputs derive from seed
// alone, its measured phase lasts dur, and trace selects the per-layer
// pass.
type runConfig struct {
	seed  uint64
	dur   time.Duration
	trace bool
	log   io.Writer
}

// workload is one way the system is used.
type workload struct {
	name string
	run  func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{"train-cnn", runTrainCNN},
	{"serve-mlp", runServe},
	{"dist-ps", runDistPS},
	{"dist-ring", runDistRing},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report collects one run's metric values, operation counts and
// correctness verdicts.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	// problems lists every failed correctness check; any entry makes the
	// run incorrect.
	problems []string
	// facts are informational values (loss bit patterns, tail quantile
	// used) written with the stamp, not part of the metric contract.
	facts map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, facts: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's output contract (the last stdout line).
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// result checks the collected values against the catalog for the run's
// mode and builds the output object. End-to-end metrics must all be
// measured, finite and positive; a per-layer metric a workload does not
// exercise reads 0. A value outside the catalog is a bug in the
// benchmark.
func (r *report) result(trace bool) (Result, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	known := map[string]bool{}
	res := Result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]Metric{},
	}
	for _, s := range specs {
		known[s.name] = true
		v, ok := r.values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Result{}, fmt.Errorf("metric %s is %v", s.name, v)
		}
		if !trace && (!ok || v <= 0) {
			return Result{}, fmt.Errorf("end-to-end metric %s not measured (value %v)", s.name, v)
		}
		res.Metrics[s.name] = Metric{Value: v, Unit: s.unit}
	}
	for name := range r.values {
		if !known[name] {
			return Result{}, fmt.Errorf("metric %s is not in the catalog of this mode", name)
		}
	}
	if res.Attempted < 1 {
		return Result{}, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// saved is the file --out writes and compare reads: the result with the
// host and build stamp it was measured under.
type saved struct {
	Stamp    Stamp          `json:"stamp"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    bool           `json:"trace"`
	Facts    map[string]any `json:"facts,omitempty"`
	Problems []string       `json:"problems,omitempty"`
	Result   Result         `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, profiler off; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "also write the result with its host stamp to this `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// One process, GOMAXPROCS = nproc, engine parallelism at the CLI
	// default (one worker per CPU).
	runtime.GOMAXPROCS(runtime.NumCPU())
	tensor.SetParallelism(runtime.NumCPU())

	cfg := runConfig{
		seed:  *seed,
		dur:   time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1,
		log:   stderr,
	}
	rep := newReport()
	steal0, total0, tickErr := cpuTicks()
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	// The share of CPU time the hypervisor withheld during the run: a
	// busy host slows every metric, and this says when it did.
	if steal1, total1, err := cpuTicks(); tickErr == nil && err == nil && total1 > total0 {
		rep.facts["host_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rec := saved{
		Stamp: hostStamp(), Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Facts: rep.facts, Problems: rep.problems, Result: res,
	}
	info, _ := json.Marshal(rec) // plain data, cannot fail
	fmt.Fprintf(stderr, "perfbench: %s\n", info)
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %s\n", w.name, p)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(info, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// startMeasuring ends a workload's set-up: it resets the peak resident
// set so that peak_rss_mb covers the measured phase.
func startMeasuring(cfg runConfig) {
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(cfg.log, "perfbench: peak RSS not reset, it covers set-up too: %v\n", err)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// compareCmd prints per-metric medians of two sets of saved results and
// refuses (exit 2) when any two results were measured under different
// host or build stamps, or on different workloads.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: perfbench compare base.json[,base2.json...] head.json[,head2.json...]")
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var sides [2][]saved
	for i := range sides {
		for _, path := range strings.Split(fs.Arg(i), ",") {
			b, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 2
			}
			var s saved
			if err := json.Unmarshal(b, &s); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
				return 2
			}
			sides[i] = append(sides[i], s)
		}
	}
	ref := sides[0][0]
	for _, side := range sides {
		for _, s := range side {
			if diff := ref.Stamp.diff(s.Stamp); diff != "" {
				fmt.Fprintf(stderr, "perfbench: refusing to compare results from different hosts or builds: %s\n", diff)
				return 2
			}
			if s.Workload != ref.Workload || s.Trace != ref.Trace {
				fmt.Fprintf(stderr, "perfbench: refusing to compare %s (trace %t) with %s (trace %t)\n",
					ref.Workload, ref.Trace, s.Workload, s.Trace)
				return 2
			}
		}
	}
	names := make([]string, 0, len(ref.Result.Metrics))
	for n := range ref.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-30s %14s %14s %9s  (medians of %d vs %d runs, %s)\n",
		"metric", "base", "head", "delta", len(sides[0]), len(sides[1]), ref.Workload)
	for _, n := range names {
		var med [2]float64
		for i, side := range sides {
			vals := make([]float64, 0, len(side))
			for _, s := range side {
				vals = append(vals, s.Result.Metrics[n].Value)
			}
			med[i] = median(vals)
		}
		delta := "n/a"
		if med[0] != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(med[1]/med[0]-1))
		}
		fmt.Fprintf(stdout, "%-30s %14.4g %14.4g %9s  %s\n", n, med[0], med[1], delta, ref.Result.Metrics[n].Unit)
	}
	return 0
}
