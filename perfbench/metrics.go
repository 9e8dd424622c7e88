package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"

	"repro/internal/experiments"
)

// metricDef names one metric of BENCHMARK.json. The catalog below is
// the single list both the output and the tests check against.
type metricDef struct {
	Name, Unit, Better string
}

// tailPercentile is job_tail_ms's percentile. A service-mix run measures
// at least minRounds rounds of jobsPerRound jobs, so at least ten jobs lie
// beyond it; the suite workloads have one job per iteration.
const tailPercentile = 0.9

// endToEnd are the metrics a user of the system sees, printed by every
// timed (--trace 0) run on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"suite_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayer are the metrics of single layers, printed by every traced
// (--trace 1) run on every workload. Times come from probes that call a
// layer's public functions from outside, or from the traced iteration
// of the workload itself; counts and ratios come from the counters the
// layers export, and read 0 on a workload that does not use the layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"node.cell_ms", "ms", "lower"},
		{"node.sim_minstr_per_s", "Minstr/s", "higher"},
		{"cache.access_ns", "ns", "lower"},
		{"cache.fill_ns", "ns", "lower"},
		{"cache.hit_ratio", "ratio", "higher"},
		{"cache.fills", "count", "lower"},
		{"memctrl.read_ns", "ns", "lower"},
		{"memctrl.row_hit_ratio", "ratio", "higher"},
		{"memctrl.acts", "count", "lower"},
		{"memctrl.mode_switches", "count", "lower"},
		{"workload.event_ns", "ns", "lower"},
		{"heterodmr.read_ns", "ns", "lower"},
		{"rs.detect_ns", "ns", "lower"},
		{"hpc.simulate_ms", "ms", "lower"},
		{"hpc.jobs_per_s", "1/s", "higher"},
		{"montecarlo.trial_ns", "ns", "lower"},
		{"margin.population_ms", "ms", "lower"},
		{"memuse.analyze_ms", "ms", "lower"},
		{"report.render_ms", "ms", "lower"},
		{"runcache.get_us", "us", "lower"},
		{"runcache.hit_ratio", "ratio", "higher"},
		{"runcache.put_us", "us", "lower"},
		{"runcache.key_us", "us", "lower"},
		{"runcache.bytes_per_entry", "B", "lower"},
		{"shard.unit_rtt_ms", "ms", "lower"},
		{"shard.units", "count", "lower"},
		{"shard.dispatched", "count", "lower"},
		{"shard.dispatched_spread", "count", "lower"},
		{"shard.worker_computes", "count", "lower"},
		{"shard.dup_computes", "count", "lower"},
		{"shard.dup_computes_spread", "count", "lower"},
		{"shard.prefill_hit_ratio", "ratio", "higher"},
		{"simd.submit_ms", "ms", "lower"},
		{"simd.result_ms", "ms", "lower"},
		{"simd.coalesced_ratio", "ratio", "higher"},
		{"simd.cells_computed_per_job", "count", "lower"},
		{"experiments.cells_computed", "count", "lower"},
		{"experiments.mem_hit_ratio", "ratio", "higher"},
		{"paper_gap_pp", "pp", "lower"},
		{"trace.suite_s", "s", "lower"},
		{"trace.overhead_s", "s", "lower"},
		{"trace.violations", "count", "lower"},
	}
	for _, e := range experiments.Registry() {
		defs = append(defs, metricDef{experimentMetric(e.ID), "s", "lower"})
	}
	return defs
}()

// experimentMetric names the time of each experiment in the Workers=1 reference run.
func experimentMetric(id string) string { return "experiments." + id + "_s" }

// isTime reports whether a unit measures elapsed time (or a rate of it):
// such a metric must always be measured, never defaulted.
func isTime(unit string) bool {
	return unit != "count" && unit != "ratio" && unit != "B" && unit != "pp"
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts correctness checks; workloads call it from several
// goroutines.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

// check records one checked operation; a failed one is reported on
// stderr with its reason.
func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// layers collects per-layer samples during a traced run; each metric
// reports the median of its samples.
type layers struct {
	mu      sync.Mutex
	samples map[string][]float64
}

func newLayers() *layers { return &layers{samples: map[string][]float64{}} }

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

func (l *layers) has(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples[name]) > 0
}

// ratio adds num/den, or 0 when nothing was counted.
func (l *layers) ratio(name string, num, den float64) {
	if den == 0 {
		l.add(name, 0)
		return
	}
	l.add(name, num/den)
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// percentile interpolates linearly between the closest ranks (p in [0,1]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
