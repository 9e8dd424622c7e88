// Package cpu models the simulated out-of-order core of Table IV (3.1GHz,
// 4-wide, 224-entry ROB) at the level of detail the evaluation needs: a
// dependency- and MLP-limited memory access window over the cache
// hierarchy. Non-memory instructions retire at the issue width;
// independent misses overlap up to the workload's memory-level
// parallelism; dependent (pointer-chasing) loads stall the core for their
// full latency; MPI communication time passes unscaled.
//
// This analytic-window core is the documented substitution for Gem5's
// cycle-accurate O3 core (DESIGN.md): node-level results in the paper are
// relative to a baseline with an identical core, so the quantity that
// matters is how execution time responds to memory latency and bandwidth,
// which the window model captures.
package cpu

import (
	"repro/internal/cache"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/workload"
)

// ClockPS is the 3.1GHz core clock period in picoseconds.
const ClockPS = 323

// IssueWidth is the core's sustained non-memory retire width.
const IssueWidth = 4

// CyclesToPS converts a core-cycle count to picoseconds. All cycle→time
// conversions in the core and node models route through this helper: the
// unitflow analyzer (internal/lint) treats *PS-named helpers as the only
// places a cycle-denominated quantity may meet a picosecond one.
func CyclesToPS(cycles int64) int64 { return cycles * ClockPS }

// Memory is the core's view of the memory system (routing across channels
// is the node's concern).
type Memory interface {
	// SubmitRead enqueues a demand or prefetch read and returns a handle.
	SubmitRead(addr uint64, at int64) *memctrl.Request
	// SubmitWrite enqueues a posted writeback.
	SubmitWrite(addr uint64, at int64)
	// WaitFor simulates until the request completes and returns the time.
	WaitFor(r *memctrl.Request) int64
	// Release hands a read handle back to its channel for recycling; the
	// handle must not be touched afterwards. Call it after WaitFor, or
	// immediately for fire-and-forget prefetches.
	Release(r *memctrl.Request)
}

// Stats aggregates a core's execution accounting.
type Stats struct {
	Instructions int64
	ComputePS    int64
	MemStallPS   int64
	CommPS       int64
	L1Misses     uint64
	L2Misses     uint64
	L3Misses     uint64
	DemandReads  uint64
	DemandWrites uint64
	Prefetches   uint64

	// Conservation tallies: memory reads this core submitted and memory
	// reads it completed (waited on). Prefetch reads are fire-and-forget,
	// so after Finish, IssuedMemReads == RetiredMemReads + Prefetches.
	IssuedMemReads  uint64
	RetiredMemReads uint64
}

// Core executes one benchmark event stream.
type Core struct {
	ID int

	l1, l2 *cache.Cache
	l3     *cache.Cache // shared
	mem    Memory

	strideL1 *cache.StridePrefetcher
	nextL1   *cache.NextLinePrefetcher
	strideL2 *cache.StridePrefetcher

	mlp int
	// outstanding holds the in-flight non-dependent misses oldest first;
	// it never exceeds mlp entries, so its backing is allocated once.
	outstanding []*memctrl.Request
	nlIssued    blockSet // next-line predictions awaiting usefulness feedback
	predBuf     []uint64 // prefetch-prediction scratch, reused every miss

	t     int64 // core virtual time, ps
	stats Stats
}

// Config wires a core.
type Config struct {
	ID  int
	L1  *cache.Cache
	L2  *cache.Cache
	L3  *cache.Cache
	Mem Memory
	MLP int
}

// New builds a core. It panics on missing pieces (construction-time
// programmer errors).
func New(cfg Config) *Core {
	c := new(Core)
	c.Init(cfg)
	return c
}

// Init rebuilds c as New(cfg) would, keeping only the backing of its
// scratch buffers, so a caller running many simulations back to back can
// reuse one Core per slot without regrowing them.
func (c *Core) Init(cfg Config) {
	if cfg.L1 == nil || cfg.L2 == nil || cfg.L3 == nil || cfg.Mem == nil {
		panic("cpu: incomplete core config")
	}
	if cfg.MLP <= 0 {
		panic("cpu: non-positive MLP")
	}
	out, nl, pred := c.outstanding[:cap(c.outstanding)], c.nlIssued, c.predBuf[:0]
	clear(out) // drop the last run's handles
	if cap(out) < cfg.MLP {
		out = make([]*memctrl.Request, cfg.MLP)
	}
	nl.reset()
	*c = Core{
		ID:          cfg.ID,
		l1:          cfg.L1,
		l2:          cfg.L2,
		l3:          cfg.L3,
		mem:         cfg.Mem,
		strideL1:    cache.NewStridePrefetcher(2),
		nextL1:      cache.NewNextLinePrefetcher(256, 0.25),
		strideL2:    cache.NewStridePrefetcher(4),
		mlp:         cfg.MLP,
		outstanding: out[:0],
		nlIssued:    nl,
		predBuf:     pred,
	}
}

// Now returns the core's current virtual time.
func (c *Core) Now() int64 { return c.t }

// Stats returns the accumulated statistics.
func (c *Core) Stats() Stats { return c.stats }

// Step consumes one trace event and advances the core's clock.
func (c *Core) Step(ev workload.Event) {
	switch ev.Kind {
	case workload.Compute:
		// Instructions retire IssueWidth per cycle; multiply before the
		// divide so partial issue groups round exactly as they always have.
		d := CyclesToPS(ev.Instr) / IssueWidth
		c.t += d
		c.stats.ComputePS += d
		c.stats.Instructions += ev.Instr
	case workload.Comm:
		c.t += ev.DurationPS
		c.stats.CommPS += ev.DurationPS
	case workload.Read:
		c.stats.DemandReads++
		c.read(ev.Addr, ev.Stream, ev.Dependent)
	case workload.Write:
		c.stats.DemandWrites++
		c.write(ev.Addr, ev.Stream)
	}
}

// Finish waits for all outstanding misses, modelling the pipeline drain at
// the end of the measured region.
func (c *Core) Finish() {
	for _, r := range c.outstanding {
		done := c.mem.WaitFor(r)
		c.mem.Release(r)
		c.stats.RetiredMemReads++
		if done > c.t {
			c.stats.MemStallPS += done - c.t
			c.t = done
		}
	}
	c.outstanding = c.outstanding[:0]
}

// creditNextLine feeds usefulness back to the next-line prefetcher when a
// demand touches a block it predicted.
func (c *Core) creditNextLine(addr uint64) {
	if c.nlIssued.remove(addr / 64) {
		c.nextL1.CreditUseful()
	}
}

// read services a demand load through the hierarchy.
func (c *Core) read(addr uint64, stream int, dependent bool) {
	c.creditNextLine(addr)
	if c.l1.Access(addr, false) {
		return // L1 hits are pipelined
	}
	c.stats.L1Misses++
	c.prefetchL1(addr, stream)
	if c.l2.Access(addr, false) {
		c.fill(c.l1, addr, false)
		if dependent {
			c.stall(c.l2.Config().LatencyPS)
		}
		return
	}
	c.stats.L2Misses++
	c.prefetchL2(addr, stream)
	if c.l3.Access(addr, false) {
		c.fill(c.l2, addr, false)
		c.fill(c.l1, addr, false)
		lat := c.l3.Config().LatencyPS
		if dependent {
			c.stall(lat)
		} else {
			// OoO hides most, but a shared-LLC round trip is not free.
			c.stall(lat / 8)
		}
		return
	}
	c.stats.L3Misses++
	req := c.mem.SubmitRead(addr, c.t)
	c.stats.IssuedMemReads++
	c.fill(c.l3, addr, false)
	c.fill(c.l2, addr, false)
	c.fill(c.l1, addr, false)
	if dependent {
		done := c.mem.WaitFor(req)
		c.mem.Release(req)
		c.stats.RetiredMemReads++
		c.stall(done - c.t + 0) // stall covers the full remaining latency
		if done > c.t {
			c.t = done
		}
		return
	}
	c.track(req)
}

// track adds a non-dependent miss to the window; a full window retires
// its oldest miss first-in first-out, stalling the core until it returns.
func (c *Core) track(req *memctrl.Request) {
	c.outstanding = append(c.outstanding, req)
	if len(c.outstanding) < c.mlp {
		return
	}
	oldest := c.outstanding[0]
	// Shift down rather than reslice forward, so the backing never
	// migrates and append never reallocates.
	n := copy(c.outstanding, c.outstanding[1:])
	c.outstanding = c.outstanding[:n]
	done := c.mem.WaitFor(oldest)
	c.mem.Release(oldest)
	c.stats.RetiredMemReads++
	if done > c.t {
		c.stats.MemStallPS += done - c.t
		c.t = done
	}
}

// stall charges a dependent-load stall.
func (c *Core) stall(d int64) {
	if d <= 0 {
		return
	}
	c.t += d
	c.stats.MemStallPS += d
}

// write services a store (write-allocate: a miss fetches the block, the
// line becomes dirty, and dirtiness flows down on eviction).
func (c *Core) write(addr uint64, stream int) {
	c.creditNextLine(addr)
	if c.l1.Access(addr, true) {
		return
	}
	c.stats.L1Misses++
	if c.l2.Access(addr, true) {
		c.fill(c.l1, addr, true)
		return
	}
	c.stats.L2Misses++
	if c.l3.Access(addr, true) {
		c.fill(c.l2, addr, true)
		c.fill(c.l1, addr, true)
		return
	}
	c.stats.L3Misses++
	// Fetch-for-write: posted, retires via the store buffer.
	req := c.mem.SubmitRead(addr, c.t)
	c.stats.IssuedMemReads++
	c.fill(c.l3, addr, true)
	c.fill(c.l2, addr, true)
	c.fill(c.l1, addr, true)
	c.track(req)
	_ = stream
}

// fill inserts a block into a level and propagates dirty evictions toward
// memory.
func (c *Core) fill(level *cache.Cache, addr uint64, write bool) {
	victim, dirty := level.Fill(addr, write, false)
	if !dirty {
		return
	}
	switch level {
	case c.l1:
		// Dirty L1 victim folds into L2.
		if !c.l2.Access(victim, true) {
			c.fill(c.l2, victim, true)
		}
	case c.l2:
		if !c.l3.Access(victim, true) {
			c.fill(c.l3, victim, true)
		}
	default: // L3 victim goes to DRAM
		c.mem.SubmitWrite(victim, c.t)
	}
}

// prefetchL1 runs the L1 prefetchers (stride degree 2 plus next-line with
// auto turn-off) on an L1 demand miss, filling into L1.
func (c *Core) prefetchL1(addr uint64, stream int) {
	block := addr / 64
	preds := c.predBuf[:0]
	if stream != 0 {
		preds = c.strideL1.AppendObserve(preds, stream, block)
	}
	preds = c.nextL1.AppendObserve(preds, block)
	c.predBuf = preds
	for _, pb := range preds {
		pa := pb * 64
		if c.l1.Lookup(pa) {
			continue
		}
		// Prefetch into L1; pull from lower levels silently (latency
		// hidden, traffic charged when it reaches memory).
		if !c.l2.Lookup(pa) && !c.l3.Lookup(pa) {
			// Fire-and-forget: release the handle right away; the channel
			// recycles it once the read retires.
			c.mem.Release(c.mem.SubmitRead(pa, c.t))
			c.stats.IssuedMemReads++
			c.stats.Prefetches++
			c.fill(c.l3, pa, false)
		}
		c.fill(c.l1, pa, false)
		if pb == block+1 && c.nextL1.Enabled() {
			c.nlIssued.add(pb)
		}
	}
}

// prefetchL2 runs the L2 stride prefetcher (degree 4) on an L2 miss,
// filling into L2/L3 and charging memory traffic for L3 misses.
func (c *Core) prefetchL2(addr uint64, stream int) {
	if stream == 0 {
		return
	}
	block := addr / 64
	c.predBuf = c.strideL2.AppendObserve(c.predBuf[:0], stream, block)
	for _, pb := range c.predBuf {
		pa := pb * 64
		if c.l2.Lookup(pa) {
			continue
		}
		if !c.l3.Lookup(pa) {
			c.mem.Release(c.mem.SubmitRead(pa, c.t))
			c.stats.IssuedMemReads++
			c.stats.Prefetches++
			c.fill(c.l3, pa, false)
		}
		c.fill(c.l2, pa, false)
	}
}

// CheckConservation verifies the core's memory-access accounting. Call it
// after Finish: every issued memory read must have been retired, except
// prefetches (fire-and-forget by design), and the demand-miss chain must
// be monotone through the hierarchy.
func (c *Core) CheckConservation(source string) []obs.Violation {
	ck := obs.NewChecker(source)
	s := c.stats
	ck.Check(len(c.outstanding) == 0, "no-outstanding-reads",
		"%d reads still in flight (Finish not called?)", len(c.outstanding))
	ck.CheckEq(int64(s.IssuedMemReads), int64(s.RetiredMemReads+s.Prefetches),
		"mem-reads-issued==retired+prefetches")
	ck.Check(s.L1Misses >= s.L2Misses, "l1-misses>=l2-misses",
		"%d L1, %d L2", s.L1Misses, s.L2Misses)
	ck.Check(s.L2Misses >= s.L3Misses, "l2-misses>=l3-misses",
		"%d L2, %d L3", s.L2Misses, s.L3Misses)
	ck.Check(s.L1Misses <= s.DemandReads+s.DemandWrites, "l1-misses<=demand-accesses",
		"%d misses, %d accesses", s.L1Misses, s.DemandReads+s.DemandWrites)
	return ck.Violations()
}
