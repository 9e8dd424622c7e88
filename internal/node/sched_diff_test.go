package node

import (
	"reflect"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/workload"
)

// TestEventSchedulerEquivalentAtNodeScale is the tentpole differential
// test at full-node scale: a complete simulation — cores, cache
// hierarchy, prefetchers, channel router, proactive cleaning, and the
// memory controllers — must produce deeply equal Results whether the
// controllers run event-driven (default) or on the legacy poll-per-step
// scan paths (run's scan parameter). Covers both hierarchies (1 and 4
// channels) and all replication designs, so every index — clock jump,
// refresh deadline, close heap, row-hit chains, write-projection floor —
// is exercised against its scan twin.
func TestEventSchedulerEquivalentAtNodeScale(t *testing.T) {
	fast := fastPoint()
	cases := []struct {
		name string
		h    Hierarchy
		repl memctrl.Replication
		prof string
	}{
		{"H1-baseline", Hierarchy1(), memctrl.ReplicationNone, "hpcg"},
		{"H1-fmr", Hierarchy1(), memctrl.ReplicationFMR, "lulesh"},
		{"H1-heterodmr", Hierarchy1(), memctrl.ReplicationHeteroDMR, "hpcg"},
		{"H2-baseline", Hierarchy2(), memctrl.ReplicationNone, "kripke"},
		{"H2-heterodmr-fmr", Hierarchy2(), memctrl.ReplicationHeteroDMRFMR, "npb.mg"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := short(tc.h, tc.repl, nil)
			if tc.repl.Fast() {
				f := fast
				cfg.Fast = &f
			}
			prof := workload.ByName(tc.prof)

			event := MustRun(cfg, prof)

			scan, err := run(cfg, prof, true)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(event, scan) {
				t.Errorf("event-driven result diverges from scan-based:\nevent: %+v\nscan:  %+v",
					event, scan)
			}
		})
	}
}
