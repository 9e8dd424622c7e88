package cache

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// refLine is one way of the reference model.
type refLine struct {
	valid, dirty, prefetched bool
	block, lastUse           uint64
}

// refCache is a plain model of the documented policy — the victim is the
// first invalid way, else the least-recently-used one — written for
// clarity, with no packed keys or dirty index. It borrows only the set
// index function from the cache under test.
type refCache struct {
	c     *Cache // for index() and BlockBytes only
	lines []refLine
	tick  uint64
	st    Stats
}

func newRef(cfg Config) *refCache {
	c := New(cfg)
	return &refCache{c: c, lines: make([]refLine, c.nsets*c.ways)}
}

func (r *refCache) set(addr uint64) ([]refLine, uint64) {
	block := addr / uint64(r.c.cfg.BlockBytes)
	base := r.c.index(block) * r.c.ways
	return r.lines[base : base+r.c.ways], block
}

func (r *refCache) access(addr uint64, write bool) bool {
	r.tick++
	set, block := r.set(addr)
	for i := range set {
		if l := &set[i]; l.valid && l.block == block {
			l.lastUse = r.tick
			l.dirty = l.dirty || write
			if l.prefetched {
				l.prefetched = false
				r.st.PrefetchUseful++
			}
			r.st.Hits++
			return true
		}
	}
	r.st.Misses++
	return false
}

func (r *refCache) fill(addr uint64, write, prefetch bool) (uint64, bool) {
	r.tick++
	set, block := r.set(addr)
	for i := range set {
		if l := &set[i]; l.valid && l.block == block {
			l.lastUse = r.tick
			l.dirty = l.dirty || write
			return 0, false
		}
	}
	v := -1
	for i := range set {
		if !set[i].valid {
			v = i
			break
		}
	}
	if v < 0 {
		v = 0
		for i := range set {
			if set[i].lastUse < set[v].lastUse {
				v = i
			}
		}
	}
	old := set[v]
	set[v] = refLine{valid: true, dirty: write, prefetched: prefetch, block: block, lastUse: r.tick}
	r.st.Fills++
	if prefetch {
		r.st.PrefetchFills++
	}
	if old.valid {
		r.st.Evictions++
		if old.dirty {
			r.st.Writebacks++
			return old.block * uint64(r.c.cfg.BlockBytes), true
		}
	}
	return 0, false
}

func (r *refCache) invalidate(addr uint64) bool {
	set, block := r.set(addr)
	for i := range set {
		if l := &set[i]; l.valid && l.block == block {
			d := l.dirty
			*l = refLine{}
			r.st.Invalidations++
			return d
		}
	}
	return false
}

func (r *refCache) cleanDirty(max int) []uint64 {
	if max <= 0 {
		return nil
	}
	var dirty []*refLine
	for i := range r.lines {
		if l := &r.lines[i]; l.valid && l.dirty {
			dirty = append(dirty, l)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].lastUse < dirty[j].lastUse })
	if len(dirty) > max {
		dirty = dirty[:max]
	}
	var out []uint64
	for _, l := range dirty {
		l.dirty = false
		out = append(out, l.block*uint64(r.c.cfg.BlockBytes))
	}
	r.st.Cleans += uint64(len(out))
	return out
}

// equivGeometries covers 8- and 16-way caches with power-of-two and
// non-power-of-two set counts.
var equivGeometries = []Config{
	{SizeBytes: 64 * 8 * 64, Ways: 8, BlockBytes: 64},   // 64 sets
	{SizeBytes: 64 * 8 * 48, Ways: 8, BlockBytes: 64},   // 48 sets
	{SizeBytes: 64 * 16 * 32, Ways: 16, BlockBytes: 64}, // 32 sets
	{SizeBytes: 64 * 16 * 28, Ways: 16, BlockBytes: 64}, // 28 sets
}

// op is one randomized cache operation.
type op struct {
	kind            int // <40 Access, <85 Fill, <97 Invalidate, else CleanDirty
	addr            uint64
	write, prefetch bool
	max             int
}

// randomOp draws one of Access, Fill, Invalidate and CleanDirty over a
// block space about three times the cache's capacity, so sets fill,
// evict, and develop holes.
func randomOp(rng *xrand.Rand, lines int) op {
	return op{
		kind:     int(rng.Uint64n(100)),
		addr:     rng.Uint64n(uint64(3*lines)) * 64,
		write:    rng.Bool(0.3),
		prefetch: rng.Bool(0.2),
		max:      int(rng.Uint64n(uint64(lines / 4))),
	}
}

// applyOp runs o on c and renders its outcome.
func applyOp(c *Cache, o op) string {
	switch {
	case o.kind < 40:
		return fmt.Sprint("access ", c.Access(o.addr, o.write))
	case o.kind < 85:
		v, d := c.Fill(o.addr, o.write, o.prefetch)
		return fmt.Sprint("fill ", v, d)
	case o.kind < 97:
		return fmt.Sprint("invalidate ", c.Invalidate(o.addr))
	default:
		return fmt.Sprint("clean ", c.CleanDirty(o.max))
	}
}

// applyRef runs o on the reference model and renders its outcome as
// applyOp does.
func applyRef(r *refCache, o op) string {
	switch {
	case o.kind < 40:
		return fmt.Sprint("access ", r.access(o.addr, o.write))
	case o.kind < 85:
		v, d := r.fill(o.addr, o.write, o.prefetch)
		return fmt.Sprint("fill ", v, d)
	case o.kind < 97:
		return fmt.Sprint("invalidate ", r.invalidate(o.addr))
	default:
		return fmt.Sprint("clean ", r.cleanDirty(o.max))
	}
}

// TestFillMatchesReferenceModel drives the cache and the plain reference
// model through the same randomized mixed sequence: every return value,
// counter, and finally every line must agree.
func TestFillMatchesReferenceModel(t *testing.T) {
	for _, cfg := range equivGeometries {
		for seed := uint64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%dway-%dsets-seed%d", cfg.Ways, cfg.SizeBytes/cfg.BlockBytes/cfg.Ways, seed)
			t.Run(name, func(t *testing.T) {
				c, ref := New(cfg), newRef(cfg)
				lines := cfg.SizeBytes / cfg.BlockBytes
				rng := xrand.New(seed)
				for i := 0; i < 40*lines; i++ {
					o := randomOp(rng, lines)
					got, want := applyOp(c, o), applyRef(ref, o)
					if got != want {
						t.Fatalf("op %d: cache %q, reference %q", i, got, want)
					}
					if c.Stats != ref.st {
						t.Fatalf("op %d: counters %+v, reference %+v", i, c.Stats, ref.st)
					}
				}
				for p, l := range ref.lines {
					if (c.tags[p] != invalidTag) != l.valid ||
						(l.valid && (c.tags[p] != l.block || c.lastUse[p] != l.lastUse ||
							(c.flags[p]&flagDirty != 0) != l.dirty ||
							(c.flags[p]&flagPrefetched != 0) != l.prefetched)) {
						t.Fatalf("line %d: cache tag %#x lastUse %d flags %b, reference %+v",
							p, c.tags[p], c.lastUse[p], c.flags[p], l)
					}
				}
				if vs := c.CheckConservation(name); len(vs) != 0 {
					t.Errorf("conservation: %v", vs)
				}
			})
		}
	}
}

// TestCopyFromBehavesLikeSource restores a randomly exercised cache into
// a heap-built and an arena-built copy, then drives source and copies
// through the same later operations: every outcome, counter and clean
// output must match, and every copy's accounting must balance.
func TestCopyFromBehavesLikeSource(t *testing.T) {
	for _, cfg := range equivGeometries {
		t.Run(fmt.Sprintf("%dway-%dB", cfg.Ways, cfg.SizeBytes), func(t *testing.T) {
			lines := cfg.SizeBytes / cfg.BlockBytes
			rng := xrand.New(7)
			src := New(cfg)
			for i := 0; i < 10*lines; i++ {
				applyOp(src, randomOp(rng, lines))
			}
			var arena Arena
			dsts := []*Cache{New(cfg), NewIn(&arena, cfg)}
			for _, d := range dsts {
				// Stale state the restore must overwrite completely.
				for i := 0; i < lines; i++ {
					applyOp(d, randomOp(xrand.New(uint64(i)), lines))
				}
				d.CopyFrom(src)
			}
			for i := 0; i < 20*lines; i++ {
				o := randomOp(rng, lines)
				want := applyOp(src, o)
				for j, d := range dsts {
					if got := applyOp(d, o); got != want {
						t.Fatalf("copy %d, op %d: %q, source %q", j, i, got, want)
					}
					if d.Stats != src.Stats {
						t.Fatalf("copy %d, op %d: counters %+v, source %+v", j, i, d.Stats, src.Stats)
					}
				}
			}
			want := fmt.Sprint(src.CleanDirty(lines))
			for j, d := range dsts {
				if got := fmt.Sprint(d.CleanDirty(lines)); got != want {
					t.Errorf("copy %d: final CleanDirty %s, source %s", j, got, want)
				}
				if vs := d.CheckConservation("copy"); len(vs) != 0 {
					t.Errorf("copy %d conservation: %v", j, vs)
				}
			}
		})
	}
}

func TestCopyFromRejectsOtherGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across geometries did not panic")
		}
	}()
	New(equivGeometries[0]).CopyFrom(New(equivGeometries[1]))
}

// TestConservationFlagsStaleLastUse: Fill's packed victim key relies on
// invalid ways holding lastUse 0, and the self-check enforces it.
func TestConservationFlagsStaleLastUse(t *testing.T) {
	c := small()
	c.Fill(0x1000, false, false)
	c.Invalidate(0x1000)
	if vs := c.CheckConservation("t"); len(vs) != 0 {
		t.Fatalf("clean cache reported %v", vs)
	}
	for p, tag := range c.tags {
		if tag == invalidTag {
			c.lastUse[p] = 5
			break
		}
	}
	vs := c.CheckConservation("t")
	if len(vs) != 1 || vs[0].Name != "invalid-ways-lastuse-zero" {
		t.Errorf("violations %v, want one invalid-ways-lastuse-zero", vs)
	}
}
