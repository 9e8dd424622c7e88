package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/node"
)

func quick(t *testing.T) *Suite {
	t.Helper()
	return New(Options{Seed: 1, Quick: true})
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"tab1", "fig1", "fig2", "fig3", "fig4", "tab2", "fig5",
		"fig6", "fig11", "fig12", "fig12d", "fig13", "fig14", "fig15", "fig16", "fig17", "config"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"fig12", "abl-ecc"} {
		if e, err := ByID(id); err != nil || e.ID != id {
			t.Errorf("ByID(%q) = %q, %v", id, e.ID, err)
		}
	}
	for _, id := range []string{"fig99", "abl-nope"} {
		if _, err := ByID(id); err == nil {
			t.Errorf("unknown id %q accepted", id)
		}
	}
}

func TestCharacterizationTables(t *testing.T) {
	s := quick(t)
	tab1 := s.Table1()
	if len(tab1.Rows) != 7 {
		t.Errorf("Table I rows %d, want 7 studies", len(tab1.Rows))
	}
	if !strings.Contains(tab1.Rows[0][3], "3006") {
		t.Errorf("Table I chip census row: %v", tab1.Rows[0])
	}

	fig1 := s.Fig1()
	if len(fig1.Rows) != 2 {
		t.Errorf("Fig 1 rows %d", len(fig1.Rows))
	}

	fig2 := s.Fig2()
	if len(fig2.Rows) == 0 {
		t.Error("Fig 2 empty")
	}
	// The 800 MT/s bucket should be the mode for major brands.
	bestRow, bestCount := "", -1
	for _, row := range fig2.Rows {
		n := 0
		for _, c := range row[1:4] {
			v, _ := strconv.Atoi(c)
			n += v
		}
		if n > bestCount {
			bestCount, bestRow = n, row[0]
		}
	}
	if bestRow != "800" {
		t.Errorf("modal margin bucket %s, want 800", bestRow)
	}

	if rows := len(s.Fig3().Rows); rows < 8 {
		t.Errorf("Fig 3 rows %d", rows)
	}
	if rows := len(s.Fig4().Rows); rows < 9 {
		t.Errorf("Fig 4 rows %d", rows)
	}
	tab2 := s.Table2()
	if len(tab2.Rows) != 4 {
		t.Errorf("Table II rows %d", len(tab2.Rows))
	}
	if tab2.Rows[3][1] != "4000MT/s" {
		t.Errorf("freq+lat rate %s", tab2.Rows[3][1])
	}
	if rows := len(s.Fig6().Rows); rows != 5 {
		t.Errorf("Fig 6 rows %d", rows)
	}
}

func TestFig11Table(t *testing.T) {
	tab := quick(t).Fig11()
	if len(tab.Rows) != 4 {
		t.Fatalf("Fig 11 rows %d", len(tab.Rows))
	}
}

func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestFig12Shape(t *testing.T) {
	s := quick(t)
	tab := s.Fig12()
	if len(tab.Rows) != 10 { // 5 designs x 2 hierarchies
		t.Fatalf("Fig 12 rows %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		b0 := parse(t, row[2])
		b2 := parse(t, row[4])
		if b2 != 1 {
			t.Errorf("%s %s: >=50%% bucket %v, want 1.0 (falls back to baseline)", row[0], row[1], b2)
		}
		if b0 < 0.7 || b0 > 1.6 {
			t.Errorf("%s %s: <25%% bucket %v implausible", row[0], row[1], b0)
		}
	}
	// On the bandwidth-bound Hierarchy1, Hetero-DMR@0.8 must beat the
	// baseline and the 0.6 GT/s margin must not beat 0.8.
	var h1hd8, h1hd6 float64
	for _, row := range tab.Rows {
		if row[0] == "Hierarchy1" && row[1] == "Hetero-DMR@0.8GT/s" {
			h1hd8 = parse(t, row[2])
		}
		if row[0] == "Hierarchy1" && row[1] == "Hetero-DMR@0.6GT/s" {
			h1hd6 = parse(t, row[2])
		}
	}
	if h1hd8 < 1.03 {
		t.Errorf("H1 Hetero-DMR@0.8 = %v, want clear win", h1hd8)
	}
	if h1hd6 > h1hd8+0.02 {
		t.Errorf("0.6GT/s margin (%v) beats 0.8GT/s (%v)", h1hd6, h1hd8)
	}
}

func TestFig13EPIImproves(t *testing.T) {
	s := quick(t)
	tab := s.Fig13()
	for _, row := range tab.Rows {
		if row[0] == "Hierarchy1" && row[1] == "Hetero-DMR@0.8GT/s" {
			if r := parse(t, row[2]); r > 1.03 {
				t.Errorf("H1 Hetero-DMR EPI ratio %v, want <= ~1", r)
			}
		}
	}
}

func TestFig14OverheadSmall(t *testing.T) {
	tab := quick(t).Fig14()
	for _, row := range tab.Rows {
		if r := parse(t, row[3]); r > 1.12 {
			t.Errorf("%s access overhead ratio %v", row[0], r)
		}
	}
}

func TestFig15WriteShare(t *testing.T) {
	tab := quick(t).Fig15()
	for _, row := range tab.Rows {
		ws := parse(t, row[2])
		if ws < 0.03 || ws > 0.30 {
			t.Errorf("%s write share %v", row[0], ws)
		}
	}
}

func TestFig16EmulationTracksSimulation(t *testing.T) {
	tab := quick(t).Fig16()
	for _, row := range tab.Rows {
		sim := parse(t, row[2])
		emu := parse(t, row[3])
		if diff := sim - emu; diff > 0.25 || diff < -0.25 {
			t.Errorf("%s: simulated %v vs emulated %v diverge", row[0], sim, emu)
		}
	}
}

func TestFig17SystemShape(t *testing.T) {
	s := quick(t)
	tab := s.Fig17()
	if len(tab.Rows) != 5 { // 2 systems x 2 hierarchies + control
		t.Fatalf("Fig 17 rows %d", len(tab.Rows))
	}
	for _, row := range tab.Rows[:4] {
		exec := parse(t, row[2])
		turn := parse(t, row[4])
		if exec < 0.99 {
			t.Errorf("%s %s execution speedup %v below 1", row[0], row[1], exec)
		}
		if turn < exec-0.02 {
			t.Errorf("%s %s turnaround %v below execution %v", row[0], row[1], turn, exec)
		}
	}
}

func TestRunCaching(t *testing.T) {
	s := quick(t)
	_ = s.Fig15()
	n := s.CachedRuns()
	_ = s.Fig15()
	if s.CachedRuns() != n {
		t.Error("repeated experiment re-ran simulations")
	}
}

func TestHierarchyWeightedSpeedups(t *testing.T) {
	s := quick(t)
	a8, a6 := s.HeteroDMRWeightedSpeedup(node.Hierarchy1())
	if a8 <= 0 || a6 <= 0 {
		t.Fatalf("speedups %v %v", a8, a6)
	}
}

// TestRunAllDeterministicAcrossWorkers pins the engine's headline
// guarantee: the rendered tables of a parallel RunAll are byte-identical
// to the sequential (Workers=1) run, because every layer derives its
// randomness positionally from Options.Seed rather than from scheduling
// order.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		s := New(Options{Seed: 7, Quick: true, Seeds: 1, Workers: workers})
		var b strings.Builder
		for _, tab := range s.RunAll() {
			b.WriteString(tab.String())
		}
		return b.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		sl, pl := strings.Split(seq, "\n"), strings.Split(par, "\n")
		for i := range sl {
			if i >= len(pl) || sl[i] != pl[i] {
				t.Fatalf("parallel output diverges at line %d:\n seq: %q\n par: %q", i, sl[i], pl[i])
			}
		}
		t.Fatalf("parallel output truncated: %d vs %d lines", len(sl), len(pl))
	}
}

// TestPrewarmSharesRunsAcrossFigures checks the singleflight cache
// coalesces the runs figures 12-16 share: re-running a figure whose
// matrix is a subset of an already-warm one computes nothing new. It
// also asserts the cache's counter/map invariant: the materialized-run
// counter must equal the number of materialized map entries (the two
// are updated in one critical section; a divergence means a panic or
// early return left them inconsistent).
func TestPrewarmSharesRunsAcrossFigures(t *testing.T) {
	s := New(Options{Seed: 3, Quick: true, Workers: 4})
	_ = s.Fig12()
	n := s.CachedRuns()
	if done := s.runs.doneEntries(); done != n {
		t.Errorf("size()=%d but %d map entries are done", n, done)
	}
	if s.ComputedRuns() != n {
		t.Errorf("no persistent store attached, yet computed=%d != materialized=%d",
			s.ComputedRuns(), n)
	}
	_ = s.Fig13() // same design matrix as Fig 12
	if s.CachedRuns() != n {
		t.Errorf("Fig 13 re-ran %d simulations Fig 12 already cached", s.CachedRuns()-n)
	}
	if done := s.runs.doneEntries(); done != s.CachedRuns() {
		t.Errorf("size()=%d but %d map entries are done", s.CachedRuns(), done)
	}
}
