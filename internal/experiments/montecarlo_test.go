package experiments

import (
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/runcache"
	"repro/internal/shard"
)

// mcDistributions is every (level, selection) pair Fig 11 renders; Fig
// 17's node groups and the selection ablation reuse a subset of them.
const mcDistributions = 4

// concurrently runs every f on its own goroutine and waits for all.
func concurrently(fs ...func()) {
	var wg sync.WaitGroup
	for _, f := range fs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

// TestMonteCarloComputedOncePerSuite runs Fig 11 and Fig 17 concurrently,
// as RunAll does: Fig 17's node-level margin-aware groups must share Fig
// 11's distribution, so each distribution is computed exactly once.
func TestMonteCarloComputedOncePerSuite(t *testing.T) {
	s := New(Options{Seed: 2, Quick: true, Workers: 2})
	concurrently(func() { s.Fig11() }, func() { s.Fig17() })
	if got := s.mcRuns.Load(); got != mcDistributions {
		t.Errorf("computed %d Monte-Carlo distributions, want %d (one per key)", got, mcDistributions)
	}
	_ = s.NodeMarginGroups()
	if got := s.mcRuns.Load(); got != mcDistributions {
		t.Errorf("NodeMarginGroups recomputed a distribution: %d runs", got)
	}
}

// TestMonteCarloMemoSharded checks the memo also fronts the sharded
// path: concurrent callers of one distribution dispatch its trial
// ranges to the fleet once, and the shared result renders the bytes of
// the in-process run.
func TestMonteCarloMemoSharded(t *testing.T) {
	want := New(Options{Seed: 4, Quick: true, Workers: 2}).Fig11().String()

	dir := t.TempDir()
	cache, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(shard.NewWorker("test-v1", cache, nil).Handler())
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	pool := shard.NewPool(shard.PoolOptions{Workers: []string{srv.URL}, Reg: reg})
	s := New(Options{Seed: 4, Quick: true, Workers: 2, CacheVersion: "test-v1", Shard: pool})

	var got string
	concurrently(
		func() { got = s.Fig11().String() },
		func() { s.NodeMarginGroups() },
		func() { s.monteCarlo(shard.LevelNode, montecarlo.MarginAware) },
	)
	if got != want {
		t.Error("sharded Fig 11 rendered different bytes than the in-process run")
	}
	if n := s.mcRuns.Load(); n != mcDistributions {
		t.Errorf("computed %d Monte-Carlo distributions, want %d", n, mcDistributions)
	}
	step := mcUnitShards * montecarlo.ShardTrials
	trials := s.monteCarloConfig().Trials
	perDist := (trials + step - 1) / step
	if units := reg.Snapshot().Counters["shard/units"]; units != uint64(mcDistributions*perDist) {
		t.Errorf("fleet saw %d units, want %d (%d per distribution)", units, mcDistributions*perDist, perDist)
	}
}
