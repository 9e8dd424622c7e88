package node

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

// TestPrefillMemoColdWarmIdentical: a cell that builds its prefilled LLC
// (memo cold) and one that restores it (memo warm) produce deep-equal
// results, for both hierarchies, baseline and Hetero-DMR+FMR.
func TestPrefillMemoColdWarmIdentical(t *testing.T) {
	for _, h := range Hierarchies() {
		for _, repl := range []memctrl.Replication{memctrl.ReplicationNone, memctrl.ReplicationHeteroDMRFMR} {
			t.Run(fmt.Sprintf("%s/%s", h.Name, repl), func(t *testing.T) {
				cfg := short(h, repl, nil)
				if repl.Fast() {
					cfg.Fast = fastPtr()
				}
				cfg.Check = true
				prefills.reset()
				cold := MustRun(cfg, workload.ByName("hpcg"))
				warm := MustRun(cfg, workload.ByName("hpcg"))
				if hits, misses := prefills.counts(); hits != 1 || misses != 1 {
					t.Fatalf("memo hits %d misses %d, want 1 and 1", hits, misses)
				}
				if len(cold.Violations) != 0 {
					t.Fatalf("violations: %v", cold.Violations)
				}
				if !reflect.DeepEqual(cold, warm) {
					t.Errorf("warm result diverges from cold:\ncold %+v\nwarm %+v", cold, warm)
				}
			})
		}
	}
}

// TestPrefillMemoConcurrentRuns: concurrent cells on one key build its
// snapshot once, and every one of them reports the same result.
func TestPrefillMemoConcurrentRuns(t *testing.T) {
	prefills.reset()
	cfg := short(Hierarchy1(), memctrl.ReplicationHeteroDMRFMR, fastPtr())
	const n = 4
	res := make([]Result, n)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = MustRun(cfg, workload.ByName("graph500"))
		}(i)
	}
	wg.Wait()
	if hits, misses := prefills.counts(); hits != n-1 || misses != 1 {
		t.Errorf("memo hits %d misses %d, want %d and 1", hits, misses, n-1)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(res[0], res[i]) {
			t.Errorf("run %d diverges from run 0", i)
		}
	}
}

// TestPrefillSnapshotMatchesDirectPrefill: restoring a memoized snapshot
// leaves an LLC that behaves exactly like one prefilled in place.
func TestPrefillSnapshotMatchesDirectPrefill(t *testing.T) {
	cfg := cache.Config{SizeBytes: 64 << 10, Ways: 16, BlockBytes: 64}
	m := newPrefillMemo(prefillMemoBytes)
	direct := cache.New(cfg)
	prefillL3(direct, 1<<20, 9)
	var arena cache.Arena
	restored := cache.NewIn(&arena, cfg)
	m.restore(restored, 1<<20, 9)
	if restored.Stats != direct.Stats {
		t.Fatalf("counters %+v, direct %+v", restored.Stats, direct.Stats)
	}
	for i := uint64(0); i < 4096; i++ {
		a := (i * 0x9E3779B97F4A7C15 % (1 << 20)) &^ 63
		if restored.Access(a, i%3 == 0) != direct.Access(a, i%3 == 0) {
			t.Fatalf("access %d diverges", i)
		}
	}
	if got, want := fmt.Sprint(restored.CleanDirty(1<<20)), fmt.Sprint(direct.CleanDirty(1<<20)); got != want {
		t.Error("CleanDirty output diverges")
	}
}

// TestPrefillMemoEvictsLRU: over its bound the memo drops the least
// recently used entry.
func TestPrefillMemoEvictsLRU(t *testing.T) {
	cfg := cache.Config{SizeBytes: 16 << 10, Ways: 16, BlockBytes: 64}
	m := newPrefillMemo(2 * cfg.StateBytes())
	key := func(seed uint64) prefillKey { return prefillKey{cfg: cfg, footprint: 1 << 20, seed: seed} }
	m.snapshot(key(1))
	m.snapshot(key(2))
	m.snapshot(key(1)) // 1 is now the most recently used; 2 goes next
	m.snapshot(key(3))
	if _, ok := m.entries[key(2)]; ok {
		t.Error("least recently used key survived eviction")
	}
	if _, ok := m.entries[key(1)]; !ok {
		t.Error("recently used key evicted")
	}
	if m.bytes > m.maxBytes {
		t.Errorf("memo holds %d bytes over its %d bound", m.bytes, m.maxBytes)
	}
	if hits, misses := m.counts(); hits != 1 || misses != 3 {
		t.Errorf("hits %d misses %d, want 1 and 3", hits, misses)
	}
}
