package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tbd/internal/dist"
	"tbd/internal/tensor"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the catalog must
// agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalog %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], catalog %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalog %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], catalog %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestResultRejectsMissingAndUnknownMetrics(t *testing.T) {
	rep := newReport()
	rep.attempted = 1
	for _, m := range endToEnd[1:] {
		rep.set(m.name, 1)
	}
	if _, err := rep.result(false); err == nil {
		t.Error("result accepted a run without setup_s")
	}
	rep.set("setup_s", 1)
	if _, err := rep.result(false); err != nil {
		t.Errorf("complete run rejected: %v", err)
	}
	rep.set("made_up", 1)
	if _, err := rep.result(false); err == nil {
		t.Error("result accepted a metric outside the catalog")
	}
}

func TestDisagreementRejectsWrongOutputs(t *testing.T) {
	want := []float32{1, -2, 0.5}
	ulp := math.Float32frombits(math.Float32bits(1) + 1)
	for _, c := range []struct {
		name  string
		got   []float32
		exact bool
		want  int
	}{
		{"identical", []float32{1, -2, 0.5}, true, -1},
		{"one ulp, exact", []float32{ulp, -2, 0.5}, true, 0},
		{"one ulp, fma bound", []float32{ulp, -2, 0.5}, false, -1},
		{"wrong value", []float32{1, -2, 0.75}, false, 2},
		{"another request's output", []float32{0.3, 1, -1}, false, 0},
		{"short", []float32{1, -2}, false, 2},
		{"long", []float32{1, -2, 0.5, 0}, false, 3},
		{"nan", []float32{1, float32(math.NaN()), 0.5}, false, 1},
	} {
		if got := disagreement(c.got, want, c.exact); got != c.want {
			t.Errorf("%s: disagreement = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCheckLossesRejectsBadTraining(t *testing.T) {
	falling := make([]float32, 20)
	for i := range falling {
		falling[i] = 2 - 0.05*float32(i)
	}
	rep := newReport()
	checkLosses(rep, falling, 0)
	if len(rep.problems) != 0 {
		t.Fatalf("falling loss rejected: %v", rep.problems)
	}
	rising := make([]float32, 20)
	for i := range rising {
		rising[i] = 1 + 0.05*float32(i)
	}
	for name, c := range map[string]struct {
		losses    []float32
		nonFinite int
	}{
		"rising":     {rising, 0},
		"non-finite": {falling, 1},
		"too short":  {falling[:5], 0},
	} {
		rep := newReport()
		checkLosses(rep, c.losses, c.nonFinite)
		if len(rep.problems) == 0 {
			t.Errorf("%s: loss check passed", name)
		}
	}
}

func TestCheckSummaryRejectsDivergenceAndRisingLoss(t *testing.T) {
	good := dist.RunSummary{Identical: true, Results: []dist.WorkerResult{
		{Rank: 0, FirstLoss: 2, LastLoss: 1}, {Rank: 1, FirstLoss: 2, LastLoss: 1},
	}}
	if p := checkSummary(&good, true); len(p) != 0 {
		t.Fatalf("good run rejected: %v", p)
	}
	diverged := good
	diverged.Identical = false
	if p := checkSummary(&diverged, true); len(p) == 0 {
		t.Error("diverging ranks accepted")
	}
	rising := good
	rising.Results = []dist.WorkerResult{{Rank: 0, FirstLoss: 2, LastLoss: 1}, {Rank: 1, FirstLoss: 1, LastLoss: 1}}
	if p := checkSummary(&rising, true); len(p) == 0 {
		t.Error("a rank whose loss did not fall was accepted")
	}
}

// TestServeRigRejectsWrongReference serves real requests against
// references from a differently seeded network: every checked output
// must be reported as wrong.
func TestServeRigRejectsWrongReference(t *testing.T) {
	inputs, err := serveInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceOutputs(6, inputs)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := newFleet(5)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	rig := &serveRig{fleet: fleet, inputs: inputs, want: want, exact: tensor.GemmKernelTier() == tensor.BitExactGemmTier()}
	for i := 0; i < 2*serveCheckEvery; i++ {
		if err := rig.call(); err != nil && i%serveCheckEvery != 0 {
			t.Fatalf("unchecked request %d: %v", i, err)
		}
	}
	if rig.wrong.Load() != 2 {
		t.Errorf("%d wrong outputs detected, want 2", rig.wrong.Load())
	}
}

// TestOpenLoopTimesEveryRequest: every scheduled arrival is sent once
// and timed from its place on the schedule.
func TestOpenLoopTimesEveryRequest(t *testing.T) {
	inputs, err := serveInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := newFleet(5)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	rig := &serveRig{fleet: fleet, inputs: inputs, want: make([][]float32, len(inputs))}
	reqs := rig.openLoop(500, 200*time.Millisecond, 1)
	if len(reqs) < 50 || len(reqs) > 150 {
		t.Fatalf("%d arrivals in 200ms at 500/s", len(reqs))
	}
	if got := rig.next.Load(); got != uint64(len(reqs)) {
		t.Errorf("%d requests sent for %d arrivals", got, len(reqs))
	}
	for i, o := range reqs {
		if i > 0 && o.intended < reqs[i-1].intended {
			t.Fatalf("arrival %d scheduled before its predecessor", i)
		}
		if o.failed || o.latency < o.late || o.latency <= 0 {
			t.Fatalf("request %d: %+v", i, o)
		}
	}
}

// TestSmokeEveryWorkload runs every workload briefly in both modes
// through the command's entry point and checks the output contract.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every workload at full speed")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Errorf("%s trace %s: exit %d\n%s", w.name, trace, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res Result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace %s: last line: %v", w.name, trace, err)
				continue
			}
			specs := endToEnd
			if trace == "1" {
				specs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(specs) {
				t.Errorf("%s trace %s: %+v", w.name, trace, res)
			}
			for _, s := range specs {
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s trace %s: metric %s missing or wrong unit (%+v)", w.name, trace, s.name, m)
				}
			}
			if trace == "1" && res.Metrics["prof.dropped_spans"].Value != 0 {
				t.Errorf("%s: traced run dropped spans", w.name)
			}
		}
	}
}

func TestCompareRefusesDifferentStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s saved) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := saved{Stamp: hostStamp(), Workload: "train-cnn", Result: Result{Metrics: map[string]Metric{"p50_ms": {1, "ms"}}}}
	head := base
	head.Stamp.Commit = "other"
	a, b := write("a.json", base), write("b.json", head)
	var out, errb bytes.Buffer
	if code := compareCmd([]string{a, b}, &out, &errb); code != 0 {
		t.Fatalf("same host, different commit: exit %d: %s", code, errb.String())
	}
	other := base
	other.Stamp.GemmTier = "ref"
	c := write("c.json", other)
	if code := compareCmd([]string{a, c}, &out, &errb); code != 2 {
		t.Errorf("different GEMM tier compared (exit %d)", code)
	}
	other = base
	other.Stamp.NProc++
	d := write("d.json", other)
	if code := compareCmd([]string{a + "," + d, b}, &out, &errb); code != 2 {
		t.Errorf("different nproc compared (exit %d)", code)
	}
}
