package experiments

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/report"
)

// Entry pairs an experiment id with its driver.
type Entry struct {
	ID    string
	Title string
	Run   func(s *Suite) *report.Table
}

// Registry lists every reproducible table and figure in paper order.
func Registry() []Entry {
	return []Entry{
		{"tab1", "Table I: study scale", (*Suite).Table1},
		{"fig1", "Fig 1: job memory utilization", (*Suite).Fig1},
		{"fig2", "Fig 2: margin distribution", (*Suite).Fig2},
		{"fig3", "Fig 3: module factors", (*Suite).Fig3},
		{"fig4", "Fig 4: other factors", (*Suite).Fig4},
		{"tab2", "Table II: margin settings", (*Suite).Table2},
		{"fig5", "Fig 5: margin speedup", (*Suite).Fig5},
		{"fig6", "Fig 6: error rates", (*Suite).Fig6},
		{"fig11", "Fig 11: margin Monte Carlo", (*Suite).Fig11},
		{"fig12", "Fig 12: node performance", (*Suite).Fig12},
		{"fig12d", "Fig 12 detail: per-benchmark performance", (*Suite).Fig12Detail},
		{"fig13", "Fig 13: energy per instruction", (*Suite).Fig13},
		{"fig14", "Fig 14: DRAM access overhead", (*Suite).Fig14},
		{"fig15", "Fig 15: bandwidth utilization", (*Suite).Fig15},
		{"fig16", "Fig 16: silicon corroboration", (*Suite).Fig16},
		{"fig17", "Fig 17: system-wide simulation", (*Suite).Fig17},
		{"config", "Tables III-IV: configurations", (*Suite).TableIIIIV},
	}
}

// ByID returns the registry or ablation entry with the given id.
func ByID(id string) (Entry, error) {
	for _, e := range append(Registry(), Ablations()...) {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll executes every experiment and returns the tables in paper
// order. Independent drivers run concurrently on the suite's worker
// pool; node simulations shared across figures coalesce in the
// singleflight run cache, and every driver derives its randomness
// positionally from Options.Seed, so the rendered tables are
// byte-identical for any worker count (including the sequential
// Workers=1 path).
func (s *Suite) RunAll() []*report.Table {
	return parallel.Map(s.opt.Workers, Registry(), func(_ int, e Entry) *report.Table {
		return e.Run(s)
	})
}
