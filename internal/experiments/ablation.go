package experiments

import (
	"fmt"

	"repro/internal/dramspec"
	"repro/internal/ecc"
	"repro/internal/memctrl"
	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/report"
	"repro/internal/rs"
	"repro/internal/shard"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Ablations returns the design-choice studies that go beyond the paper's
// figures: each isolates one Hetero-DMR design decision that DESIGN.md
// calls out and quantifies what it buys.
func Ablations() []Entry {
	return []Entry{
		{"abl-selection", "Ablation: margin-aware module selection (§III-D1)", (*Suite).AblationSelection},
		{"abl-margin", "Ablation: node margin sweep (speedup vs margin)", (*Suite).AblationMarginSweep},
		{"abl-errors", "Ablation: copy error rate vs performance (§III-C)", (*Suite).AblationErrorRate},
		{"abl-ecc", "Ablation: detection-only vs correcting ECC (§III-B)", (*Suite).AblationECCMode},
		{"abl-util", "Ablation: utilization sweep / cloud scenario (§III-F)", (*Suite).AblationUtilization},
		{"abl-ddr5", "Ablation: forward-looking DDR5 node (§III-F)", (*Suite).AblationDDR5},
	}
}

// AblationSelection quantifies §III-D1's margin-aware selection at the
// system level: the fraction of nodes reaching each margin group directly
// sets how many jobs run at the 0.8 GT/s speedup.
func (s *Suite) AblationSelection() *report.Table {
	t := report.New("Ablation — what margin-aware selection buys",
		"selection", "nodes >=0.8GT/s", "nodes >=0.6GT/s", "expected node speedup")
	h := node.Hierarchy1()
	at800, at600 := s.HeteroDMRWeightedSpeedup(h)
	for _, sel := range []montecarlo.Selection{montecarlo.MarginAware, montecarlo.MarginUnaware} {
		g := s.monteCarlo(shard.LevelNode, sel).Groups()
		// Expected speedup across the node population for <50%-util jobs.
		exp := g.At800*at800 + g.At600*at600 + g.Below*1
		t.AddRow(sel.String(), fmtPct(g.At800), fmtPct(g.At800+g.At600), fmt.Sprintf("%.3f", exp))
	}
	t.Note("unaware selection wastes high-margin modules paired with low-margin ones in the same channel")
	return t
}

// AblationMarginSweep sweeps the node-level frequency margin and reports
// the Hetero-DMR speedup at each step — the performance curve behind the
// 0.8/0.6 GT/s groups.
func (s *Suite) AblationMarginSweep() *report.Table {
	t := report.New("Ablation — Hetero-DMR speedup vs node margin (Hierarchy1)",
		"margin", "speedup vs baseline")
	h := node.Hierarchy1()
	prof := workload.ByName("hpcg")
	for _, m := range []dramspec.DataRate{200, 400, 600, 800} {
		sp := s.speedup(h, design{repl: memctrl.ReplicationHeteroDMR, marginMTs: m}, prof)
		t.AddRowf(fmt.Sprintf("%dMT/s", int(m)), sp)
	}
	t.Note("benchmark: hpcg; larger margins raise the copy module's data rate toward the 4000MT/s cap")
	return t
}

// AblationErrorRate sweeps the detected-error rate of the unsafely fast
// copies and reports the performance cost of the §III-C correction flow
// (two frequency switches plus a spec-speed access pair per error).
func (s *Suite) AblationErrorRate() *report.Table {
	t := report.New("Ablation — copy error rate vs performance (Hierarchy1)",
		"per-read error probability", "speedup vs baseline", "corrections")
	h := node.Hierarchy1()
	prof := workload.ByName("hpcg")
	base := s.run(h, design{repl: memctrl.ReplicationNone}, prof)
	for _, rate := range []float64{0, 1e-5, 1e-4, 1e-3, 1e-2} {
		spec := dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800)
		fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
		cfg := node.Config{
			H: h, Replication: memctrl.ReplicationHeteroDMR,
			Spec: spec, Fast: &fast, CopyErrorRate: rate, Seed: s.opt.Seed,
		}
		if s.opt.Quick {
			cfg.InstructionsPerCore = 40_000
			cfg.WarmupInstructions = 15_000
		}
		res := node.MustRun(cfg, prof)
		t.AddRowf(fmt.Sprintf("%.0e", rate),
			float64(base.ExecPS)/float64(res.ExecPS), res.Mem.Corrections)
	}
	t.Note("the measured 23°C error rates (Fig 6) sit well below 1e-5/read: corrections are performance-free")
	return t
}

// AblationECCMode demonstrates §III-B's core reliability argument
// empirically: with wide (beyond-correction) errors, conventional
// correcting decode miscorrects into silent data corruption at a
// measurable rate, while detection-only decode never accepts a bad word.
func (s *Suite) AblationECCMode() *report.Table {
	t := report.New("Ablation — detection-only vs correcting ECC under wide errors",
		"error width (bytes)", "trials", "detect-only escapes", "correcting SDCs")
	code := rs.MustNew(ecc.BlockSize, ecc.ParityBytes)
	rng := xrand.New(s.opt.Seed)
	trials := 3000
	if s.opt.Quick {
		trials = 600
	}
	for _, width := range []int{2, 5, 8, 12, 20} {
		detectEscapes, correctSDCs := 0, 0
		data := make([]byte, ecc.BlockSize)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		clean := code.Encode(data)
		for trial := 0; trial < trials; trial++ {
			cw := append([]byte(nil), clean...)
			for _, pos := range rng.Perm(len(cw))[:width] {
				var e byte
				for e == 0 {
					e = byte(rng.Uint64())
				}
				cw[pos] ^= e
			}
			if code.Detect(cw) == nil {
				detectEscapes++
			}
			fixed := append([]byte(nil), cw...)
			if _, err := code.Correct(fixed); err == nil {
				same := true
				for i := range fixed {
					if fixed[i] != clean[i] {
						same = false
						break
					}
				}
				if !same {
					correctSDCs++ // decoded to a VALID but WRONG codeword
				}
			}
		}
		t.AddRowf(width, trials, detectEscapes, correctSDCs)
	}
	t.Note("detection-only escapes require all 64 recomputed code bits to match by chance (2^-64); correction miscorrects once errors exceed its radius — exactly why Hetero-DMR spends all ECC on detection for copies")
	return t
}

// AblationDDR5 runs Hetero-DMR on a forward-looking DDR5-4800 node
// (§III-F: JEDEC's constant eye-width requirement predicts DDR5 margins
// comparable to DDR4's, so the same absolute margin is applied).
func (s *Suite) AblationDDR5() *report.Table {
	t := report.New("Ablation — Hetero-DMR on a DDR5-4800 node (Hierarchy1)",
		"generation", "baseline exec (ms)", "Hetero-DMR exec (ms)", "speedup")
	h := node.Hierarchy1()
	prof := workload.ByName("hpcg")
	runPair := func(name string, spec dramspec.Config, fast dramspec.Config) {
		cfgB := node.Config{H: h, Replication: memctrl.ReplicationNone, Spec: spec, Seed: s.opt.Seed}
		cfgD := node.Config{H: h, Replication: memctrl.ReplicationHeteroDMR, Spec: spec, Fast: &fast, Seed: s.opt.Seed}
		if s.opt.Quick {
			cfgB.InstructionsPerCore, cfgB.WarmupInstructions = 40_000, 15_000
			cfgD.InstructionsPerCore, cfgD.WarmupInstructions = 40_000, 15_000
		}
		b := node.MustRun(cfgB, prof)
		d := node.MustRun(cfgD, prof)
		t.AddRowf(name, float64(b.ExecPS)/1e9, float64(d.ExecPS)/1e9,
			float64(b.ExecPS)/float64(d.ExecPS))
	}
	runPair("DDR4-3200 (+800)",
		dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800),
		dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800))
	runPair("DDR5-4800 (+800)",
		dramspec.DDR5Config(dramspec.DDR5_4800, 0),
		dramspec.DDR5Config(dramspec.DDR5_4800, 800))
	t.Note("with today's workload, DDR5's higher baseline bandwidth absorbs the demand and the Hetero-DMR gain shrinks toward break-even; §III-F expects DDR5-era CPUs to raise bandwidth demand (core-count scaling), restoring the benefit")
	return t
}

// AblationUtilization sweeps memory utilization (§III-F's generality
// argument: Cloud averages 50-60%): Hetero-DMR's benefit is gated by the
// free-module threshold, degrading gracefully to baseline behaviour.
func (s *Suite) AblationUtilization() *report.Table {
	t := report.New("Ablation — utilization sweep (Hetero-DMR activation, §III-E/F)",
		"memory utilization", "replication", "copies per block", "effective design")
	for _, u := range []float64{0.10, 0.20, 0.30, 0.45, 0.55, 0.70, 0.90} {
		repl := "off"
		copies := 0
		eff := "Commercial Baseline"
		if u < 0.25 {
			repl, copies, eff = "on", 2, "Hetero-DMR+FMR"
		} else if u < 0.50 {
			repl, copies, eff = "on", 1, "Hetero-DMR"
		}
		t.AddRow(fmtPct(u), repl, fmt.Sprint(copies), eff)
	}
	t.Note("Cloud's 50-60%% average utilization (§III-F) leaves Hetero-DMR active on the large minority of under-utilized hosts, like CPU turbo-boost")
	return t
}
