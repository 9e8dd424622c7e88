package node

import (
	"container/list"
	"sync"

	"repro/internal/cache"
	"repro/internal/xrand"
)

// prefillL3 seeds the LLC with footprint-resident blocks, a quarter of
// them dirty, approximating steady-state occupancy.
func prefillL3(l3 *cache.Cache, footprint uint64, seed uint64) {
	rng := xrand.New(seed ^ 0xF111F111)
	blocks := l3.Config().SizeBytes / l3.Config().BlockBytes
	for i := 0; i < 2*blocks; i++ {
		addr := rng.Uint64n(footprint) &^ 63
		l3.Fill(addr, rng.Bool(0.25), false)
	}
}

// prefillKey is everything prefillL3 reads: the LLC geometry, the scaled
// footprint and the seed. Cells that differ only in memory design,
// hierarchy core count or channel count share a key.
type prefillKey struct {
	cfg       cache.Config
	footprint uint64
	seed      uint64
}

// prefillEntry is one memoized prefilled LLC. snap is written once,
// before ready closes, and read-only afterwards.
type prefillEntry struct {
	key   prefillKey
	ready chan struct{}
	snap  *cache.Cache
	elem  *list.Element
}

// prefillMemo shares prefilled LLCs across every Run in the process —
// suite workers, shard workers and the simd daemon alike. Each key is
// built once however many callers ask for it concurrently; entries are
// dropped least-recently-used first once their state exceeds maxBytes.
// A caller still copying from a dropped entry keeps its snapshot alive
// until it is done.
type prefillMemo struct {
	maxBytes int

	mu           sync.Mutex
	entries      map[prefillKey]*prefillEntry
	lru          list.List // *prefillEntry, most recently used first
	bytes        int
	hits, misses uint64
}

// prefillMemoBytes bounds the memo. A scaled Hierarchy1 LLC holds about
// 0.7 MB of line state, so this keeps ~45 keys: all 6 of the quick
// suite's and all 30 of the full suite's (two geometries × distinct
// scaled footprints × seeds).
const prefillMemoBytes = 32 << 20

// prefills is package state by design, like scratchPool: the callers that
// share it (suite workers, shard workers, the daemon's jobs) have no
// common owner that could hold it.
var prefills = newPrefillMemo(prefillMemoBytes)

func newPrefillMemo(maxBytes int) *prefillMemo {
	return &prefillMemo{maxBytes: maxBytes, entries: map[prefillKey]*prefillEntry{}}
}

// restore overwrites l3 with the prefilled state for (footprint, seed) at
// l3's geometry, building that state on first use.
func (m *prefillMemo) restore(l3 *cache.Cache, footprint, seed uint64) {
	l3.CopyFrom(m.snapshot(prefillKey{cfg: l3.Config(), footprint: footprint, seed: seed}))
}

// snapshot returns k's prefilled LLC, building it if no caller has. The
// result is shared and must not be modified.
func (m *prefillMemo) snapshot(k prefillKey) *cache.Cache {
	m.mu.Lock()
	if e, ok := m.entries[k]; ok {
		m.hits++
		m.lru.MoveToFront(e.elem)
		m.mu.Unlock()
		<-e.ready
		return e.snap
	}
	m.misses++
	e := &prefillEntry{key: k, ready: make(chan struct{})}
	e.elem = m.lru.PushFront(e)
	m.entries[k] = e
	m.bytes += k.cfg.StateBytes()
	m.evict()
	m.mu.Unlock()

	snap := cache.New(k.cfg)
	prefillL3(snap, k.footprint, k.seed)
	e.snap = snap
	close(e.ready)
	return snap
}

// evict drops entries, least recently used first, until the memo fits
// its bound or holds only the newest entry. m.mu must be held.
func (m *prefillMemo) evict() {
	for m.bytes > m.maxBytes && m.lru.Len() > 1 {
		e := m.lru.Remove(m.lru.Back()).(*prefillEntry)
		delete(m.entries, e.key)
		m.bytes -= e.key.cfg.StateBytes()
	}
}
