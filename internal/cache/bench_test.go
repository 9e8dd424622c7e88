package cache_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/node"
	"repro/internal/xrand"
)

// benchGeometries are Hierarchy1's LLC and per-core L2 at the default
// scale, the two levels node cells fill most.
func benchGeometries() []struct {
	name string
	cfg  cache.Config
} {
	h := node.Hierarchy1()
	return []struct {
		name string
		cfg  cache.Config
	}{
		{"L3", cache.Config{SizeBytes: h.L3TotalBytes >> node.DefaultScaleShift, Ways: 16, BlockBytes: 64}},
		{"L2", cache.Config{SizeBytes: h.L2PerCoreBytes >> node.DefaultScaleShift, Ways: 16, BlockBytes: 64}},
	}
}

// randomBlocks returns n block-aligned addresses drawn from a space far
// larger than any benchmarked cache.
func randomBlocks(seed uint64, n int) []uint64 {
	rng := xrand.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64n(1<<36) << 6
	}
	return out
}

// BenchmarkCacheFill times all-miss fills into a full cache: every
// operation scans the set for the block, then selects and replaces the
// LRU victim. The address ring is many times the cache's capacity, so no
// fill ever finds its block resident.
func BenchmarkCacheFill(b *testing.B) {
	for _, g := range benchGeometries() {
		b.Run(g.name, func(b *testing.B) {
			c := cache.New(g.cfg)
			addrs := randomBlocks(1, 1<<18)
			for _, a := range addrs {
				c.Fill(a, false, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Fill(addrs[i&(len(addrs)-1)], i&3 == 0, false)
			}
		})
	}
}

// BenchmarkCacheAccess times all-hit demand accesses to a half-full cache,
// one in eight a write.
func BenchmarkCacheAccess(b *testing.B) {
	for _, g := range benchGeometries() {
		b.Run(g.name, func(b *testing.B) {
			c := cache.New(g.cfg)
			var resident []uint64
			for _, a := range randomBlocks(2, g.cfg.SizeBytes/g.cfg.BlockBytes/2) {
				c.Fill(a, false, false)
			}
			for _, a := range randomBlocks(2, g.cfg.SizeBytes/g.cfg.BlockBytes/2) {
				if c.Lookup(a) { // a crowded set may have evicted it
					resident = append(resident, a)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(resident[i%len(resident)], i&7 == 0)
			}
		})
	}
}
