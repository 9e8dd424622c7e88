package hpc

import "testing"

// BenchmarkSimulate times one cluster simulation at the quick suite's
// trace scale (6000 jobs, 256 nodes) and at Grizzly scale (58K jobs,
// 1490 nodes), on Fig 17's grouped cluster under both policies. Trace
// generation is outside the timed region.
func BenchmarkSimulate(b *testing.B) {
	scales := []struct {
		name        string
		jobs, nodes int
		periodS     float64
	}{
		{"quick", 6000, 256, TracePeriodS / 8},
		{"grizzly", GrizzlyJobs, GrizzlyNodes, TracePeriodS},
	}
	model := HeteroDMRModel(1.21, 1.17)
	for _, sc := range scales {
		tr := GenerateTrace(sc.jobs, sc.nodes, sc.periodS, TargetNodeUtil, testFrac, 1)
		cluster := GroupedCluster(sc.nodes, 0.62, 0.36)
		for _, policy := range []Policy{PolicyMarginAware, PolicyDefault} {
			b.Run(sc.name+"/"+policy.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Simulate(tr, cluster, policy, model, 1)
				}
			})
		}
	}
}
