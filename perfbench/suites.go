package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/shard"
)

// runSuite regenerates the whole quick suite and checks its rendered
// digest against want. It returns the suite, and the wall time from
// construction to rendered text.
func runSuite(b *bench, opt experiments.Options, want, what string) (*experiments.Suite, float64) {
	t0 := time.Now()
	s := experiments.New(opt)
	text := render(s.RunAll())
	wall := time.Since(t0).Seconds()
	got := digest(text)
	b.tally.check(got == want, "%s: digest %.12s, want %.12s", what, got, want)
	return s, wall
}

func (b *bench) suiteOptions() experiments.Options {
	return experiments.Options{Seed: b.cfg.seed, Quick: true, Workers: b.cfg.nproc}
}

// quickCold regenerates the quick suite from nothing: a fresh Suite per
// iteration, no disk cache, no sharding.
type quickCold struct{ b *bench }

func newQuickCold(b *bench) (runner, error) { return &quickCold{b}, nil }

func (w *quickCold) tracedReps() int { return 2 }
func (w *quickCold) minJobs() int    { return 1 }

func (w *quickCold) iterate(tr *layers) ([]float64, error) {
	opt := w.b.suiteOptions()
	var reg *obs.Registry
	if tr != nil {
		// Obs and Check bypass the disk cache and sharding, so only
		// this workload, which uses neither, is traced through them.
		reg = obs.NewRegistry()
		opt.Obs, opt.Check = reg, true
	}
	s, wall := runSuite(w.b, opt, w.b.ref.digest, "quick-cold")
	if tr != nil {
		vs := s.Violations()
		w.b.tally.check(len(vs) == 0, "quick-cold: %d conservation violations", len(vs))
		c := reg.Snapshot().Counters
		mem, disk, comp := c["experiments/runcache/mem_hits"], c["experiments/runcache/disk_hits"], c["experiments/runcache/computed"]
		tr.add("trace.violations", float64(len(vs)))
		tr.add("experiments.cells_computed", float64(s.ComputedRuns()))
		tr.ratio("experiments.mem_hit_ratio", float64(mem), float64(mem+disk+comp))
	}
	return []float64{wall}, nil
}

// replaySeeds is how many seeds replay-warm replays. A replay's cost is
// mostly the cluster scheduler, whose work depends on the seed's job
// trace (its coefficient of variation across seeds is about 0.22), so a
// run averages over several seeds.
const replaySeeds = 5

// replayWarm replays the quick suite from run caches that set-up filled
// with a cold run of each seed: no node simulation may run. An iteration
// replays every seed once, so each is a job and the iteration's time
// covers them all.
type replayWarm struct {
	b       *bench
	seeds   []uint64
	dirs    []string
	digests []string
}

func newReplayWarm(b *bench) (runner, error) {
	w := &replayWarm{b: b, seeds: drawSeeds(b.cfg.seed, replaySeeds, 0x4e91a7)}
	w.dirs = make([]string, len(w.seeds))
	digests := make([]string, len(w.seeds))
	caches := make([]*runcache.Cache, len(w.seeds))
	for i := range w.seeds {
		dir, err := os.MkdirTemp(b.tmp, "replay-")
		if err != nil {
			return nil, err
		}
		if caches[i], err = runcache.Open(dir); err != nil {
			return nil, err
		}
		w.dirs[i] = dir
	}
	opt := b.suiteOptions()
	opt.Cache = caches[0]
	runSuite(b, opt, b.ref.digest, "replay-warm fill")
	digests[0] = b.ref.digest
	// The other seeds are filled sequentially in process (Workers=1),
	// with every cell computed, so each fill is its seed's reference;
	// nproc fills run side by side.
	sem := make(chan struct{}, b.cfg.nproc)
	var wg sync.WaitGroup
	for i := 1; i < len(w.seeds); i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			s := experiments.New(experiments.Options{Seed: w.seeds[i], Quick: true, Workers: 1, Cache: caches[i]})
			digests[i] = digest(render(s.RunAll()))
		}(i)
	}
	wg.Wait()
	w.digests = digests
	return w, nil
}

func (w *replayWarm) tracedReps() int { return 2 }
func (w *replayWarm) minJobs() int    { return 1 }

func (w *replayWarm) iterate(tr *layers) ([]float64, error) {
	var lats []float64
	for i, seed := range w.seeds {
		t0 := time.Now()
		// Each replay opens the cache as a fresh process would.
		c, err := runcache.Open(w.dirs[i])
		if err != nil {
			return nil, err
		}
		var reg *obs.Registry
		if tr != nil {
			reg = obs.NewRegistry()
			c.Observe(reg, "runcache")
		}
		opt := w.b.suiteOptions()
		opt.Seed, opt.Cache = seed, c
		s, _ := runSuite(w.b, opt, w.digests[i], "replay-warm")
		lats = append(lats, time.Since(t0).Seconds())
		w.b.tally.check(s.ComputedRuns() == 0, "replay-warm: %d cells computed, want 0", s.ComputedRuns())
		if tr != nil {
			cs := reg.Snapshot().Counters
			tr.add("experiments.cells_computed", float64(s.ComputedRuns()))
			tr.ratio("runcache.hit_ratio", float64(cs["runcache/hits"]), float64(cs["runcache/hits"]+cs["runcache/misses"]))
		}
	}
	return lats, nil
}

// quickSharded regenerates the quick suite cold through a dispatch pool
// of nproc in-process loopback shard workers over a fresh shared cache
// directory per iteration.
type quickSharded struct{ b *bench }

func newQuickSharded(b *bench) (runner, error) { return &quickSharded{b}, nil }

// tracedReps is three: the duplicate dispatches vary from run to run,
// and the traced run reports their median and spread.
func (w *quickSharded) tracedReps() int { return 3 }
func (w *quickSharded) minJobs() int    { return 1 }

func (w *quickSharded) iterate(tr *layers) ([]float64, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(w.b.tmp, "sharded-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	open := func() (*runcache.Cache, error) {
		c, err := runcache.Open(dir)
		if err == nil && reg != nil {
			c.Observe(reg, "runcache")
		}
		return c, err
	}
	version := runcache.CodeVersion()
	urls := make([]string, w.b.cfg.nproc)
	for i := range urls {
		c, err := open()
		if err != nil {
			return nil, err
		}
		srv := httptest.NewServer(shard.NewWorker(version, c, reg).Handler())
		defer srv.Close()
		urls[i] = srv.URL
	}
	poolCache, err := open()
	if err != nil {
		return nil, err
	}
	suiteCache, err := open()
	if err != nil {
		return nil, err
	}
	pool := shard.NewPool(shard.PoolOptions{Workers: urls, Cache: poolCache, InFlight: 1, Reg: reg})
	opt := w.b.suiteOptions()
	opt.Cache, opt.CacheVersion, opt.Shard = suiteCache, version, pool
	s, _ := runSuite(w.b, opt, w.b.ref.digest, "quick-sharded")
	wall := time.Since(t0).Seconds()
	if tr != nil {
		cs := reg.Snapshot().Counters
		computes := float64(cs["shard/worker/computed"])
		distinct := float64(suiteCache.Len())
		tr.add("shard.units", float64(cs["shard/units"]))
		tr.add("shard.dispatched", float64(cs["shard/dispatched"]))
		tr.add("shard.worker_computes", computes)
		tr.add("shard.dup_computes", computes-distinct)
		tr.ratio("shard.prefill_hit_ratio", float64(cs["shard/cache_hits"]), float64(cs["shard/units"]))
		tr.ratio("runcache.hit_ratio", float64(cs["runcache/hits"]), float64(cs["runcache/hits"]+cs["runcache/misses"]))
		tr.add("experiments.cells_computed", float64(s.ComputedRuns()))
		fmt.Fprintf(os.Stderr, "perfbench: quick-sharded: units %d dispatched %d worker computes %d distinct entries %d local %d\n",
			cs["shard/units"], cs["shard/dispatched"], cs["shard/worker/computed"], int(distinct), cs["shard/local"])
	}
	return []float64{wall}, nil
}
