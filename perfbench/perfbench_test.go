package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/simd"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalog pins BENCHMARK.json to the workloads
// and metrics the program emits.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	var e2e []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Bound != 0.25 {
			t.Errorf("setup_s bound %v, want the largest, 0.25", m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nprogram emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram emits %v", f.PerLayer, perLayer)
	}
}

// checkEmitted asserts every catalog metric is present with its unit.
func checkEmitted(t *testing.T, what string, defs []metricDef, ms map[string]metric) {
	t.Helper()
	if len(ms) != len(defs) {
		t.Errorf("%s: %d metrics emitted, catalog has %d", what, len(ms), len(defs))
	}
	for _, d := range defs {
		m, ok := ms[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", what, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s unit %q, want %q", what, d.Name, m.Unit, d.Unit)
		}
	}
}

func testBench(t *testing.T, seed uint64) *bench {
	t.Helper()
	cfg := config{seed: seed, seconds: 1e-9, tmp: t.TempDir(), nproc: 2}
	b := &bench{cfg: cfg, tmp: cfg.tmp}
	b.ref = newReference(seed)
	return b
}

// TestWorkloadsEmitEveryMetric runs every workload at minimal length,
// timed and traced, and checks that each emits every named metric with
// its unit and that nothing failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick suite many times")
	}
	b := testBench(t, 3)
	for _, name := range workloadNames() {
		b.cfg.workload = name
		w, err := workloads[name](b)
		if err != nil {
			t.Fatalf("%s: set-up: %v", name, err)
		}
		ms, err := timed(b, w, 1)
		if err != nil {
			t.Fatalf("%s: timed: %v", name, err)
		}
		checkEmitted(t, name+" timed", endToEnd, ms)
		if got := ms["ok_ratio"].Value; got != 1 {
			t.Errorf("%s: ok_ratio %v, want 1", name, got)
		}
		ms, err = traced(b, w)
		if err != nil {
			t.Fatalf("%s: traced: %v", name, err)
		}
		checkEmitted(t, name+" traced", perLayer, ms)
	}
	if attempted, failed := b.tally.counts(); failed != 0 || attempted == 0 {
		t.Errorf("%d of %d checks failed", failed, attempted)
	}
}

// TestWrongDigestRaisesFailRatio corrupts the reference digest: every
// iteration must then count as failed.
func TestWrongDigestRaisesFailRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite")
	}
	b := testBench(t, 1)
	b.ref.digest = digest("not the suite")
	w, err := newQuickCold(b)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := timed(b, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed := b.tally.counts()
	if failed == 0 || failed != attempted {
		t.Errorf("%d of %d checks failed, want all", failed, attempted)
	}
	if got := ms["ok_ratio"].Value; got != 0 {
		t.Errorf("ok_ratio %v with every digest wrong, want 0", got)
	}
}

// TestServiceMixSpecsFollowSeed pins the generated job sequence: the
// same seed gives the same sequence, another seed another one, and every
// round has the phase layout the latency percentiles rely on.
func TestServiceMixSpecsFollowSeed(t *testing.T) {
	a, again, other := mixSpecs(1), mixSpecs(1), mixSpecs(2)
	if !reflect.DeepEqual(a, again) {
		t.Error("same seed generated different service-mix sequences")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 1 and 2 generated the same service-mix sequence")
	}
	for _, phases := range [][][]simd.JobSpec{a, other} {
		all := slices.Concat(phases...)
		if len(all) != jobsPerRound {
			t.Fatalf("%d jobs per round, want %d", len(all), jobsPerRound)
		}
		if n := len(phases[0]); n != poolSeeds*len(firstTouchIDs) {
			t.Errorf("first-touch phase has %d jobs, want %d", n, poolSeeds*len(firstTouchIDs))
		}
		distinct := map[specKey]bool{}
		for _, p := range phases[:len(phases)-1] {
			for _, sp := range p {
				if distinct[keyOf(sp)] {
					t.Errorf("job %v appears twice before the repeat phase", keyOf(sp))
				}
				distinct[keyOf(sp)] = true
			}
		}
		for _, sp := range phases[len(phases)-1] {
			if !distinct[keyOf(sp)] {
				t.Errorf("repeat %v repeats no earlier job", keyOf(sp))
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
