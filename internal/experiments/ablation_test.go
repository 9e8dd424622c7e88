package experiments

import (
	"strconv"
	"testing"
)

func TestAblationRegistry(t *testing.T) {
	abls := Ablations()
	if len(abls) != 6 {
		t.Fatalf("ablation count %d", len(abls))
	}
}

func TestAblationSelection(t *testing.T) {
	tab := quick(t).AblationSelection()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	aware, _ := strconv.ParseFloat(tab.Rows[0][3], 64)
	unaware, _ := strconv.ParseFloat(tab.Rows[1][3], 64)
	if aware < unaware {
		t.Errorf("margin-aware expected speedup %v below unaware %v", aware, unaware)
	}
}

func TestAblationMarginSweepMonotoneish(t *testing.T) {
	tab := quick(t).AblationMarginSweep()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	first, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if last <= first {
		t.Errorf("speedup at 800MT/s (%v) not above 200MT/s (%v)", last, first)
	}
}

func TestAblationErrorRateCurve(t *testing.T) {
	tab := quick(t).AblationErrorRate()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	clean, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	dirty, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if dirty >= clean {
		t.Errorf("1e-2 error rate (%v) not slower than clean (%v)", dirty, clean)
	}
	if corrections := tab.Rows[0][2]; corrections != "0" {
		t.Errorf("corrections at zero rate: %s", corrections)
	}
}

func TestAblationECCMode(t *testing.T) {
	tab := quick(t).AblationECCMode()
	var sawCorrectionSDC bool
	for _, row := range tab.Rows {
		w, _ := strconv.Atoi(row[0])
		escapes, _ := strconv.Atoi(row[2])
		sdcs, _ := strconv.Atoi(row[3])
		if escapes != 0 {
			t.Errorf("width %d: detection-only escaped %d times", w, escapes)
		}
		if w <= 4 && sdcs != 0 {
			t.Errorf("width %d within correction radius produced %d SDCs", w, sdcs)
		}
		if w > 8 && sdcs > 0 {
			sawCorrectionSDC = true
		}
	}
	if !sawCorrectionSDC {
		t.Log("no miscorrections observed at this trial count (rare but possible)")
	}
}

func TestAblationUtilization(t *testing.T) {
	tab := quick(t).AblationUtilization()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Below 25%: two copies; 25-50%: one; above: off.
	if tab.Rows[0][3] != "Hetero-DMR+FMR" || tab.Rows[3][3] != "Hetero-DMR" ||
		tab.Rows[6][3] != "Commercial Baseline" {
		t.Errorf("activation ladder wrong: %v %v %v", tab.Rows[0], tab.Rows[3], tab.Rows[6])
	}
}

func TestAblationDDR5(t *testing.T) {
	tab := quick(t).AblationDDR5()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	d4, _ := strconv.ParseFloat(tab.Rows[0][3], 64)
	d5, _ := strconv.ParseFloat(tab.Rows[1][3], 64)
	if d5 >= d4 {
		t.Errorf("DDR5 gain %v not below DDR4's %v (relative margin shrinks)", d5, d4)
	}
	if d5 < 0.85 {
		t.Errorf("DDR5 Hetero-DMR speedup %v implausibly low", d5)
	}
}
