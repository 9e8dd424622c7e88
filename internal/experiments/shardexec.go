package experiments

import (
	"sync"

	"repro/internal/montecarlo"
	"repro/internal/shard"
)

// sharded reports whether this suite fans work out to the dispatch
// pool. Instrumented runs never shard: a payload decoded from a worker
// cannot replay trace events or re-run conservation checks, exactly the
// rule the persistent cache layer follows.
func (s *Suite) sharded() bool {
	return s.opt.Shard != nil && !s.opt.Check && s.opt.Obs == nil
}

// prewarmSharded dispatches the not-yet-materialized cells of a run
// matrix to the worker fleet and commits the decoded results into the
// in-memory run cache in positional order. The table-building loops
// that follow consume the run cache sequentially, so rendering — and
// therefore output bytes — is identical to an in-process run. A cell
// whose payload fails to decode (schema drift that slipped past the
// version key) is simply left unmaterialized; the rendering path then
// computes it locally via runSeed.
func (s *Suite) prewarmSharded(reqs []runReq) {
	type cell struct {
		key  runKey
		unit shard.Unit
	}
	seen := map[runKey]bool{}
	var cells []cell
	for _, r := range reqs {
		key := runKey{hier: r.h.Name, d: r.d, bench: r.prof.Name, seed: r.seed}
		if seen[key] {
			continue
		}
		seen[key] = true
		if s.runs.peek(key) {
			continue
		}
		cells = append(cells, cell{
			key:  key,
			unit: shard.NewNodeUnit(s.opt.CacheVersion, s.nodeConfig(r.h, r.d, r.seed), r.prof),
		})
	}
	if len(cells) == 0 {
		return
	}
	units := make([]shard.Unit, len(cells))
	for i := range cells {
		units[i] = cells[i].unit
	}
	results := s.opt.Shard.Run(units)
	for i, r := range results {
		res, err := shard.DecodeNodeResult(r.Payload)
		if err != nil {
			s.runs.encodeErrs.Add(1)
			continue
		}
		s.runs.commit(cells[i].key, res, r.Computed)
	}
}

// mcUnitShards is how many fixed-size Monte-Carlo RNG shards one
// dispatch unit covers: units stay few enough to amortize the HTTP
// round trip but plentiful enough to spread across a small fleet
// (100k trials / (16·1024) ≈ 7 units per level/policy call).
const mcUnitShards = 16

// mcKey names one Monte-Carlo distribution of a Suite.
type mcKey struct {
	level string
	sel   montecarlo.Selection
}

// mcEntry is one memoized distribution: the first caller computes it
// and concurrent callers for the same key block on once until it is
// ready. The shared Result is read-only.
type mcEntry struct {
	once sync.Once
	res  montecarlo.Result
}

// monteCarlo returns the suite's Monte-Carlo distribution for one level
// and selection policy, computing it once per Suite: Fig 11, Fig 17's
// node groups and the selection ablation share the same runs, in
// process or sharded.
func (s *Suite) monteCarlo(level string, sel montecarlo.Selection) montecarlo.Result {
	v, _ := s.mc.LoadOrStore(mcKey{level, sel}, new(mcEntry))
	e := v.(*mcEntry)
	e.once.Do(func() {
		s.mcRuns.Add(1)
		e.res = s.computeMonteCarlo(level, sel)
	})
	return e.res
}

// computeMonteCarlo runs one Monte-Carlo experiment, fanning
// shard-aligned trial ranges out to the worker fleet when sharding is
// on. Each range is positionally seeded (montecarlo.*Range), committed
// into its slot of the margins slice, and bit-identical to the
// in-process loop, so Groups/FractionAtLeast render the same bytes
// either way.
func (s *Suite) computeMonteCarlo(level string, sel montecarlo.Selection) montecarlo.Result {
	cfg := s.monteCarloConfig()
	if !s.sharded() {
		if level == shard.LevelChannel {
			return montecarlo.ChannelLevel(cfg, sel)
		}
		return montecarlo.NodeLevel(cfg, sel)
	}
	step := mcUnitShards * montecarlo.ShardTrials
	var units []shard.Unit
	for lo := 0; lo < cfg.Trials; lo += step {
		hi := lo + step
		if hi > cfg.Trials {
			hi = cfg.Trials
		}
		units = append(units, shard.NewMCUnit(s.opt.CacheVersion, cfg, sel, level, lo, hi))
	}
	results := s.opt.Shard.Run(units)
	margins := make([]float64, cfg.Trials)
	for i, r := range results {
		u := units[i].MC
		vals, err := shard.DecodeMargins(r.Payload)
		if err != nil || len(vals) != u.Hi-u.Lo {
			// Undecodable payload: recompute the range locally — the
			// positional write keeps the merge exact regardless.
			if level == shard.LevelChannel {
				vals = montecarlo.ChannelLevelRange(cfg, sel, u.Lo, u.Hi)
			} else {
				vals = montecarlo.NodeLevelRange(cfg, sel, u.Lo, u.Hi)
			}
		}
		copy(margins[u.Lo:u.Hi], vals)
	}
	return montecarlo.Result{Margins: margins}
}
