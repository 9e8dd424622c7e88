package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/node"
	"repro/internal/report"
	"repro/internal/xrand"
)

// paperHeteroDMRGainPct is the paper's average Hetero-DMR node-level gain
// (the note under Fig 12): +18% over the commercial baseline.
const paperHeteroDMRGainPct = 18.0

// runner is one benchmark workload, set up once per invocation.
type runner interface {
	// iterate runs one timed unit of work and returns the latencies of
	// the jobs in it. tr is nil in timed runs; in the traced run it
	// receives the counters of the layers the workload goes through.
	iterate(tr *layers) ([]float64, error)
	// tracedReps is how many pairs of untraced and traced iterations the
	// traced run makes.
	tracedReps() int
	// minJobs is how many jobs a timed run measures at the least, however
	// short its measured time.
	minJobs() int
}

// workloads maps each name to its set-up function.
var workloads = map[string]func(b *bench) (runner, error){
	"quick-cold":    newQuickCold,
	"replay-warm":   newReplayWarm,
	"quick-sharded": newQuickSharded,
	"service-mix":   newServiceMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is one invocation's shared state.
type bench struct {
	cfg   config
	tmp   string // removed when the invocation ends
	ref   reference
	tally tally
}

// reference is the sequential in-process run every output is checked
// against: the quick suite at Workers=1 with no cache and no sharding,
// experiments run in paper order (exactly RunAll's order at one worker).
type reference struct {
	tables map[string]*report.Table
	digest string
	expS   map[string]float64 // wall time of each experiment in the run
	gapPP  float64
}

func newReference(seed uint64) reference {
	s := experiments.New(experiments.Options{Seed: seed, Quick: true, Workers: 1})
	ref := reference{tables: map[string]*report.Table{}, expS: map[string]float64{}}
	var tables []*report.Table
	for _, e := range experiments.Registry() {
		t0 := time.Now()
		t := e.Run(s)
		ref.expS[e.ID] = time.Since(t0).Seconds()
		ref.tables[e.ID] = t
		tables = append(tables, t)
	}
	ref.digest = digest(render(tables))
	ref.gapPP = paperGapPP(s)
	return ref
}

// paperGapPP is the distance, in percentage points, between the paper's
// +18% Hetero-DMR gain and the mean weighted Hetero-DMR speedup over
// both hierarchies at 0.8 and 0.6 GT/s margins, at quick scale.
func paperGapPP(s *experiments.Suite) float64 {
	var sum float64
	for _, h := range node.Hierarchies() {
		at800, at600 := s.HeteroDMRWeightedSpeedup(h)
		sum += at800 + at600
	}
	gainPct := 100 * (sum/4 - 1)
	d := paperHeteroDMRGainPct - gainPct
	if d < 0 {
		d = -d
	}
	return d
}

// drawSeeds returns n distinct seeds drawn from the run seed, the run
// seed first; stream separates the draws of different workloads.
func drawSeeds(seed uint64, n int, stream uint64) []uint64 {
	rng := xrand.NewAt(seed, stream)
	seeds := []uint64{seed}
	for len(seeds) < n {
		s := 1 + rng.Uint64n(1<<30)
		if !slices.Contains(seeds, s) {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// render concatenates the tables as the CLI prints them.
func render(tables []*report.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// run sets the workload up, then makes either the timed or the traced
// run.
func run(cfg config) (res result, err error) {
	tmp, err := os.MkdirTemp(cfg.tmp, "perfbench-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{cfg: cfg, tmp: tmp}

	t0 := time.Now()
	b.ref = newReference(cfg.seed)
	w, err := workloads[cfg.workload](b)
	if err != nil {
		return res, fmt.Errorf("set-up of %s: %w", cfg.workload, err)
	}
	setup := time.Since(t0).Seconds()

	var ms map[string]metric
	if cfg.trace {
		ms, err = traced(b, w)
	} else {
		ms, err = timed(b, w, setup)
	}
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = b.tally.counts()
	res.Correct = res.Failed == 0
	res.Metrics = ms
	return res, nil
}

// timed repeats the workload's iteration until the measured time is up
// and at least minJobs jobs ran, and reports medians over the
// iterations.
func timed(b *bench, w runner, setup float64) (map[string]metric, error) {
	var walls, cpus, allocs, lats []float64
	var busy float64
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	for len(lats) < w.minJobs() || time.Now().Before(deadline) {
		// Collect the previous iteration's garbage outside the timing.
		runtime.GC()
		c0, m0, t0 := cpuSeconds(), allocBytes(), time.Now()
		jl, err := w.iterate(nil)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0).Seconds()
		walls = append(walls, wall)
		cpus = append(cpus, cpuSeconds()-c0)
		allocs = append(allocs, float64(allocBytes()-m0)/1e6)
		lats = append(lats, jl...)
		busy += wall
	}
	attempted, failed := b.tally.counts()
	vals := map[string]float64{
		"setup_s":     setup,
		"suite_s":     median(walls),
		"cpu_s":       median(cpus),
		"alloc_mb":    median(allocs),
		"job_p50_ms":  1e3 * median(lats),
		"job_tail_ms": 1e3 * percentile(lats, tailPercentile),
		"jobs_per_s":  float64(len(lats)) / busy,
		"ok_ratio":    1 - float64(failed)/float64(attempted),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d iterations, %d jobs in %.2fs\n",
		b.cfg.workload, len(walls), len(lats), busy)
	return collect(endToEnd, vals)
}

// traced alternates untraced and traced iterations of the workload (the
// difference of their median wall times is the tracing overhead), then
// runs the layer probes.
func traced(b *bench, w runner) (map[string]metric, error) {
	tr := newLayers()
	var plain, walls []float64
	for i := 0; i < w.tracedReps(); i++ {
		for _, t := range []*layers{nil, tr} {
			runtime.GC()
			t0 := time.Now()
			if _, err := w.iterate(t); err != nil {
				return nil, err
			}
			if t == nil {
				plain = append(plain, time.Since(t0).Seconds())
			} else {
				walls = append(walls, time.Since(t0).Seconds())
			}
		}
	}
	tr.add("trace.suite_s", median(walls))
	tr.add("trace.overhead_s", median(walls)-median(plain))
	tr.add("paper_gap_pp", b.ref.gapPP)
	for id, s := range b.ref.expS {
		tr.add(experimentMetric(id), s)
	}
	if err := probes(b, tr); err != nil {
		return nil, err
	}

	vals := map[string]float64{}
	for _, d := range perLayer {
		xs := tr.samples[d.Name]
		if len(xs) == 0 {
			if isTime(d.Unit) {
				return nil, fmt.Errorf("traced run measured no %s", d.Name)
			}
			vals[d.Name] = 0
			continue
		}
		vals[d.Name] = median(xs)
	}
	for _, name := range []string{"shard.dispatched", "shard.dup_computes"} {
		if xs := tr.samples[name]; len(xs) > 0 {
			vals[name+"_spread"] = percentile(xs, 1) - percentile(xs, 0)
		}
	}
	return collect(perLayer, vals)
}

// collect pairs each catalog metric with its value and unit, and refuses
// a missing or non-finite value.
func collect(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
