package node_test

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/node"
)

// TestQuickSuitePrefillsOncePerKey: the quick suite's 108 node cells span
// 6 prefill keys — two LLC geometries (one per hierarchy) times the three
// distinct scaled footprints of its six benchmarks (512 MB, 1 GB, 2 GB
// before scaling), at one seed — and a fresh process builds each
// prefilled LLC exactly once, sequentially and at full parallelism.
func TestQuickSuitePrefillsOncePerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		node.ResetPrefills()
		experiments.New(experiments.Options{Seed: 1, Quick: true, Workers: workers}).RunAll()
		hits, misses := node.PrefillCounts()
		if misses != 6 || hits+misses != 108 {
			t.Errorf("workers %d: %d prefills for %d cells, want 6 for 108", workers, misses, hits+misses)
		}
	}
}
