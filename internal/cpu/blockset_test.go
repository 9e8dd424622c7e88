package cpu

import (
	"testing"

	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestBlockSetMatchesCappedMap drives the open-addressed set and the map
// it replaced through the same randomized inserts and deletes, with the
// map's insert-only-below-cap rule, over a block space small enough that
// the set fills to its cap, clusters, and shifts entries back on delete.
func TestBlockSetMatchesCappedMap(t *testing.T) {
	for _, space := range []uint64{3 * nlCap, 64 * nlCap} {
		var s blockSet
		s.reset()
		m := map[uint64]bool{}
		rng := xrand.New(space)
		for i := 0; i < 200_000; i++ {
			b := rng.Uint64n(space)
			if rng.Bool(0.55) {
				if len(m) < nlCap {
					m[b] = true
				}
				s.add(b)
			} else {
				want := m[b]
				delete(m, b)
				if got := s.remove(b); got != want {
					t.Fatalf("space %d, op %d: remove(%d) = %v, map says %v", space, i, b, got, want)
				}
			}
			if s.n != len(m) {
				t.Fatalf("space %d, op %d: set holds %d, map %d", space, i, s.n, len(m))
			}
		}
		for b := uint64(0); b < space; b++ {
			if _, ok := s.find(b); ok != m[b] {
				t.Fatalf("space %d: block %d present=%v, map says %v", space, b, ok, m[b])
			}
		}
		s.reset()
		for _, v := range s.slots {
			if v != 0 {
				t.Fatal("reset left a slot occupied")
			}
		}
	}
}

// TestInitReusesScratch: a reinitialized core keeps its buffers'
// backing but none of their contents, and behaves like a new core.
func TestInitReusesScratch(t *testing.T) {
	c, _ := testCore(t)
	// Every other block: next-line predictions are issued, never used.
	for i := 0; i < 2000; i++ {
		c.Step(workload.Event{Kind: workload.Read, Addr: uint64(i) * 128})
	}
	c.Finish()
	if c.nlIssued.n == 0 {
		t.Fatal("no next-line predictions tracked; the test exercises nothing")
	}
	slots := &c.nlIssued.slots[0]
	fresh, _ := testCore(t)
	c.Init(Config{ID: 0, L1: fresh.l1, L2: fresh.l2, L3: fresh.l3, Mem: fresh.mem, MLP: 4})
	if &c.nlIssued.slots[0] != slots {
		t.Error("Init reallocated the next-line set")
	}
	if c.nlIssued.n != 0 || len(c.outstanding) != 0 || c.Now() != 0 || c.Stats() != (Stats{}) {
		t.Errorf("Init left state behind: nl=%d outstanding=%d now=%d stats=%+v",
			c.nlIssued.n, len(c.outstanding), c.Now(), c.Stats())
	}
}
