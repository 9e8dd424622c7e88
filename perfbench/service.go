package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runcache"
	"repro/internal/simd"
	"repro/internal/xrand"
)

// The service-mix round: quick single-experiment jobs, then exact
// repeats of earlier jobs, jobsPerRound jobs in all. The node-level
// experiments and fig17 run over poolSeeds seeds; fig11, which needs no node
// cells, over mcSeeds seeds. The round runs in phases, and every client
// finishes a phase before any starts the next, so that whether a job
// simulates or reads its cells does not depend on how the clients
// interleave:
//
//  1. first touches: fig12, then fig5, of every pool seed simulate their
//     node cells and write them to the run cache (longest jobs first, so
//     the phase's length does not depend on the order the seed draws);
//  2. Monte Carlo: fig11 of every Monte-Carlo seed;
//  3. readers: fig12d, fig13, fig14, fig15, fig16 and fig17 of every pool
//     seed read the cells phase 1 wrote (fig17 adds the cluster
//     scheduler);
//  4. repeats of earlier, finished jobs, which take the coalescing path.
//
// The job latencies fall into classes far apart: repeats and readers
// (under ~20 ms), fig11 (~50 ms), fig17 (~0.3 s) and first touches
// (1-3 s). The class sizes put the median among the fig11 jobs and the
// 90th percentile among the fig5 first touches, away from any class
// boundary, so neither jumps between classes from run to run.
//
// The seed draws the other seeds, the order within each phase, and which
// jobs are repeated.
var (
	firstTouchIDs = []string{"fig12", "fig5"}
	readerIDs     = []string{"fig12d", "fig13", "fig14", "fig15", "fig16", "fig17"}
)

const (
	poolSeeds    = 3
	mcSeeds      = 12
	jobsPerRound = 40
	// minRounds makes a run pool at least 120 jobs, so that at least ten
	// lie beyond job_tail_ms's 90th percentile.
	minRounds = 3
)

// mixSpecs generates one round's phases from the seed. The first seed is
// the run seed itself, so its expected results come from the reference
// run.
func mixSpecs(seed uint64) [][]simd.JobSpec {
	rng := xrand.NewAt(seed, 0x5e41ce)
	seeds := drawSeeds(seed, mcSeeds, 0x5eed5)
	pool := seeds[:poolSeeds]
	spec := func(id string, s uint64) simd.JobSpec {
		return simd.JobSpec{Experiments: []string{id}, Seed: s, Quick: true, Seeds: 1}
	}
	shuffled := func(phase []simd.JobSpec) []simd.JobSpec {
		rng.Shuffle(len(phase), func(i, j int) { phase[i], phase[j] = phase[j], phase[i] })
		return phase
	}
	var first, mc, readers []simd.JobSpec
	for _, id := range firstTouchIDs {
		var touches []simd.JobSpec
		for _, s := range pool {
			touches = append(touches, spec(id, s))
		}
		first = append(first, shuffled(touches)...)
	}
	for _, s := range seeds {
		mc = append(mc, spec("fig11", s))
	}
	for _, s := range pool {
		for _, id := range readerIDs {
			readers = append(readers, spec(id, s))
		}
	}
	phases := [][]simd.JobSpec{first, shuffled(mc), shuffled(readers)}
	distinct := slices.Concat(phases...)
	var repeats []simd.JobSpec
	for len(distinct)+len(repeats) < jobsPerRound {
		repeats = append(repeats, distinct[rng.Intn(len(distinct))])
	}
	return append(phases, repeats)
}

// specKey identifies a single-experiment spec.
type specKey struct {
	id   string
	seed uint64
}

func keyOf(sp simd.JobSpec) specKey { return specKey{sp.Experiments[0], sp.Seed} }

// serviceMix drives a simd daemon (one worker, fresh cache directory per
// round) through its HTTP handler on loopback with nproc closed-loop
// clients; each client submits its next job only after the previous
// one's result bytes arrived.
type serviceMix struct {
	b      *bench
	phases [][]simd.JobSpec
	want   map[specKey][]byte // expected result bytes
}

func newServiceMix(b *bench) (runner, error) {
	w := &serviceMix{b: b, phases: mixSpecs(b.cfg.seed), want: map[specKey][]byte{}}
	suites := map[uint64]*experiments.Suite{}
	for _, sp := range slices.Concat(w.phases...) {
		k := keyOf(sp)
		if _, ok := w.want[k]; ok {
			continue
		}
		var t *report.Table
		if sp.Seed == b.cfg.seed {
			t = b.ref.tables[k.id]
		} else {
			s := suites[sp.Seed]
			if s == nil {
				s = experiments.New(experiments.Options{Seed: sp.Seed, Quick: true, Workers: b.cfg.nproc})
				suites[sp.Seed] = s
			}
			e, err := experiments.ByID(k.id)
			if err != nil {
				return nil, err
			}
			t = e.Run(s)
		}
		payload, err := resultBytes(sp, t)
		if err != nil {
			return nil, err
		}
		w.want[k] = payload
	}
	return w, nil
}

// resultBytes is the result a daemon must serve for a single-experiment
// spec, built from the in-process table the way the daemon assembles
// it; the job id is a pure function of the spec and the code version.
func resultBytes(sp simd.JobSpec, t *report.Table) ([]byte, error) {
	return json.Marshal(simd.Result{
		ID:   simd.New(simd.Config{}).JobID(sp),
		Spec: sp,
		Tables: []simd.TableJSON{{
			ID: sp.Experiments[0], Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes,
		}},
		Text: t.String(),
	})
}

func (w *serviceMix) tracedReps() int { return 1 }
func (w *serviceMix) minJobs() int    { return minRounds * jobsPerRound }

// jobTiming is one job's client-side timing.
type jobTiming struct{ submit, result, total float64 }

func (w *serviceMix) iterate(tr *layers) ([]float64, error) {
	dir, err := os.MkdirTemp(w.b.tmp, "simd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := runcache.Open(dir)
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	srv := httptest.NewServer(simd.New(simd.Config{Workers: 1, Cache: c, Reg: reg}).Handler())
	defer srv.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: w.b.cfg.nproc}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport}

	var times []jobTiming
	for _, phase := range w.phases {
		// Collect the previous phase's garbage while no job is in
		// flight, so collections land at the same point of every round.
		runtime.GC()
		times = append(times, w.runPhase(hc, srv.URL, phase)...)
	}
	lats := make([]float64, len(times))
	for i, t := range times {
		lats[i] = t.total
	}
	if tr != nil {
		subs, ress := make([]float64, len(times)), make([]float64, len(times))
		for i, t := range times {
			subs[i], ress[i] = 1e3*t.submit, 1e3*t.result
		}
		tr.add("simd.submit_ms", median(subs))
		tr.add("simd.result_ms", median(ress))
		cs := reg.Snapshot().Counters
		sub, coal, done := cs["simd/jobs/submitted"], cs["simd/jobs/coalesced"], cs["simd/jobs/completed"]
		tr.ratio("simd.coalesced_ratio", float64(coal), float64(sub+coal))
		tr.ratio("simd.cells_computed_per_job", float64(cs["simd/runs/computed"]), float64(done))
		tr.ratio("runcache.hit_ratio", float64(cs["simd/runcache/hits"]), float64(cs["simd/runcache/hits"]+cs["simd/runcache/misses"]))
		tr.add("experiments.cells_computed", float64(cs["simd/runs/computed"]))
	}
	return lats, nil
}

// runPhase has nproc closed-loop clients work through the phase's jobs
// and returns once every job's result has arrived and been checked.
func (w *serviceMix) runPhase(hc *http.Client, base string, phase []simd.JobSpec) []jobTiming {
	times := make([]jobTiming, len(phase))
	var next atomic.Int64
	var wg sync.WaitGroup
	for ci := 0; ci < w.b.cfg.nproc; ci++ {
		wg.Add(1)
		go func(client string) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(phase) {
					return
				}
				sp := phase[i]
				got, tm, err := submitAndFetch(hc, base, client, sp)
				times[i] = tm
				k := keyOf(sp)
				ok := err == nil && bytes.Equal(got, w.want[k])
				w.b.tally.check(ok, "service-mix: job %s seed %d: result differs from the in-process run (err %v)", k.id, k.seed, err)
			}
		}(fmt.Sprintf("client%d", ci))
	}
	wg.Wait()
	return times
}

// submitAndFetch posts one spec and waits for its result bytes, timing
// the submission, the result fetch, and the whole job.
func submitAndFetch(hc *http.Client, base, client string, sp simd.JobSpec) ([]byte, jobTiming, error) {
	var tm jobTiming
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, tm, err
	}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, tm, err
	}
	req.Header.Set("X-Simd-Client", client)
	var st simd.Status
	if err := doJSON(hc, req, &st); err != nil {
		return nil, tm, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	req, err = http.NewRequest(http.MethodGet, base+"/v1/jobs/"+st.ID+"/result?wait=1", nil)
	if err != nil {
		return nil, tm, err
	}
	req.Header.Set("X-Simd-Client", client)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, tm, fmt.Errorf("result: %w", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	t2 := time.Now()
	tm = jobTiming{submit: t1.Sub(t0).Seconds(), result: t2.Sub(t1).Seconds(), total: t2.Sub(t0).Seconds()}
	if err != nil {
		return nil, tm, fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, tm, fmt.Errorf("result: status %s: %s", resp.Status, got)
	}
	return got, tm, nil
}

// doJSON sends req and decodes a 2xx JSON reply into v.
func doJSON(hc *http.Client, req *http.Request, v any) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %s: %s", resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
