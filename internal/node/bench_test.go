package node

import (
	"testing"

	"repro/internal/memctrl"
	"repro/internal/workload"
)

// BenchmarkNodeCell runs one quick-scale cell per hierarchy — the suite's
// instruction budgets, Hetero-DMR+FMR at the 0.8 GT/s margin, hpcg — as
// the experiment engine runs it: pooled scratch and, after the first
// iteration, the LLC prefill restored from the memo.
func BenchmarkNodeCell(b *testing.B) {
	for _, h := range Hierarchies() {
		b.Run(h.Name, func(b *testing.B) {
			cfg := Config{
				H:                   h,
				Replication:         memctrl.ReplicationHeteroDMRFMR,
				Spec:                specPoint(),
				Fast:                fastPtr(),
				InstructionsPerCore: 40_000,
				WarmupInstructions:  15_000,
				Seed:                1,
			}
			prof := workload.ByName("hpcg")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MustRun(cfg, prof)
			}
		})
	}
}
