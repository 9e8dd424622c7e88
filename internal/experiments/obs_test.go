package experiments

import (
	"testing"

	"repro/internal/dramspec"
	"repro/internal/memctrl"
	"repro/internal/obs"
)

// TestCheckedDriversCleanAndByteStable runs the Fig 12 and Fig 17
// drivers with conservation checks and full instrumentation enabled, at
// Workers=1 and Workers=4, and requires zero violations plus rendered
// output byte-identical to an unchecked run: observability must never
// perturb results, at any worker count.
func TestCheckedDriversCleanAndByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick node matrix")
	}
	plain := New(Options{Seed: 1, Quick: true, Workers: 1})
	base := plain.Fig12().String() + plain.Fig17().String()

	for _, workers := range []int{1, 4} {
		s := New(Options{Seed: 1, Quick: true, Workers: workers, Check: true, Obs: obs.NewRegistry()})
		got := s.Fig12().String() + s.Fig17().String()
		if got != base {
			t.Errorf("Workers=%d: checked run rendered different bytes than unchecked run", workers)
		}
		for _, v := range s.Violations() {
			t.Errorf("Workers=%d: violation: %s", workers, v)
		}
		if len(s.opt.Obs.Snapshot().Names) == 0 {
			t.Errorf("Workers=%d: registry empty after instrumented run", workers)
		}
	}
}

// TestViolationsSortedAndStable pins that the suite's violation list is
// deterministic: Violations always returns a sorted copy.
func TestViolationsSortedAndStable(t *testing.T) {
	s := New(Options{Seed: 1, Quick: true})
	s.addViolations([]obs.Violation{
		{Source: "b", Name: "n2", Detail: "d"},
		{Source: "a", Name: "n1", Detail: "d"},
	})
	vs := s.Violations()
	if len(vs) != 2 || vs[0].Source != "a" || vs[1].Source != "b" {
		t.Errorf("violations not sorted: %v", vs)
	}
}

// TestDesignObsNamesDistinct: designs that share a replication mode get
// distinct obs scopes, so concurrent instrumented cells never write the
// same trace recorder (Hetero-DMR at two margins, Fig 5's settings).
func TestDesignObsNamesDistinct(t *testing.T) {
	s := New(Options{Quick: true})
	ds := append(s.fig12Matrix(),
		design{repl: memctrl.ReplicationNone, setting: dramspec.SettingLatencyMargin, marginMTs: 800},
		design{repl: memctrl.ReplicationNone, setting: dramspec.SettingFrequencyMargin, marginMTs: 800},
		design{repl: memctrl.ReplicationNone, setting: dramspec.SettingFreqLatMargin, marginMTs: 800})
	seen := map[string]design{}
	for _, d := range ds {
		if prev, ok := seen[d.obsName()]; ok {
			t.Errorf("designs %+v and %+v share obs name %q", prev, d, d.obsName())
		}
		seen[d.obsName()] = d
	}
}
