package hpc

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Cluster is a set of nodes bucketed by memory frequency margin; nodes
// within a group are interchangeable.
type Cluster struct {
	margins []int // distinct margins, descending
	total   []int // node count per group, aligned with margins
}

// NewCluster builds a cluster from margin -> node-count.
func NewCluster(counts map[int]int) *Cluster {
	var keys []int
	for m := range counts {
		keys = append(keys, m)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(keys)))
	c := &Cluster{}
	for _, m := range keys {
		n := counts[m]
		if n < 0 {
			panic(fmt.Sprintf("hpc: negative node count for margin %d", m))
		}
		if n == 0 {
			continue
		}
		c.margins = append(c.margins, m)
		c.total = append(c.total, n)
	}
	if len(c.margins) == 0 {
		panic("hpc: empty cluster")
	}
	return c
}

// UniformCluster is a cluster whose nodes all share one margin (the
// conventional system uses margin 0).
func UniformCluster(nodes, marginMTs int) *Cluster {
	return NewCluster(map[int]int{marginMTs: nodes})
}

// GroupedCluster splits `nodes` per the Fig 11 node-margin shares.
func GroupedCluster(nodes int, at800, at600 float64) *Cluster {
	n800 := int(float64(nodes) * at800)
	n600 := int(float64(nodes) * at600)
	rest := nodes - n800 - n600
	return NewCluster(map[int]int{800: n800, 600: n600, 0: rest})
}

// Nodes returns the total node count.
func (c *Cluster) Nodes() int {
	t := 0
	for _, n := range c.total {
		t += n
	}
	return t
}

// JobMetrics is one job's outcome.
type JobMetrics struct {
	JobID       int
	WaitS       float64
	ExecS       float64
	TurnaroundS float64
	MinMargin   int
}

// Result aggregates a simulation.
type Result struct {
	Jobs           []JobMetrics
	MeanWaitS      float64
	MeanExecS      float64
	MeanTurnaround float64
	// P50WaitS/P95WaitS summarize the queuing-delay distribution; means
	// alone hide the tail that users experience during campaigns.
	P50WaitS float64
	P95WaitS float64
}

func (r *Result) finalize() {
	var w, e, t float64
	for i := range r.Jobs {
		w += r.Jobs[i].WaitS
		e += r.Jobs[i].ExecS
		t += r.Jobs[i].TurnaroundS
	}
	n := float64(len(r.Jobs))
	if n == 0 {
		return
	}
	r.MeanWaitS, r.MeanExecS, r.MeanTurnaround = w/n, e/n, t/n
	waits := make([]float64, len(r.Jobs))
	for i := range r.Jobs {
		waits[i] = r.Jobs[i].WaitS
	}
	r.P50WaitS = stats.Percentile(waits, 50)
	r.P95WaitS = stats.Percentile(waits, 95)
}

// running is one started job. The running set is a slice ordered by
// (endS, start order): start inserts by binary search after every job
// with an equal or earlier end, so the front is always the next
// completion, and jobs that end at the same instant complete — and count
// toward the backfill shadow — in the order they started.
type running struct {
	endS  float64
	alloc []int // nodes taken per group, aligned with Cluster.margins
	job   *Job
}

// insertRunning adds r to the end-time-ordered running set.
func insertRunning(run []running, r running) []running {
	i := sort.Search(len(run), func(i int) bool { return run[i].endS > r.endS })
	run = append(run, running{})
	copy(run[i+1:], run[i:])
	run[i] = r
	return run
}

// Simulate runs the trace through the scheduler and returns per-job
// metrics. The cluster, policy, and speedup model together define the
// system (conventional = uniform margin-0 cluster + ConventionalModel).
func Simulate(tr *Trace, cluster *Cluster, policy Policy, model SpeedupModel, seed uint64) *Result {
	res, _ := SimulateObserved(tr, cluster, policy, model, seed, nil, "")
	return res
}

// SimulateObserved is Simulate with observability: scheduler queue-depth
// samples land in reg (nil skips them, scope defaults to "hpc"), and the
// returned violations report the run's conservation checks — every
// submitted job completes exactly once, the queue drains, all nodes
// return to the free pool, and no job has negative wait or non-positive
// execution time. Instrumentation never changes the Result.
func SimulateObserved(tr *Trace, cluster *Cluster, policy Policy, model SpeedupModel, seed uint64, reg *obs.Registry, scope string) (*Result, []obs.Violation) {
	if tr == nil || cluster == nil || model == nil {
		panic("hpc: nil simulation inputs")
	}
	if scope == "" {
		scope = "hpc"
	}
	queueHist := reg.Histogram(scope+"/sched/queue_depth",
		[]int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	rng := xrand.New(seed)
	free := append([]int(nil), cluster.total...)
	freeTotal := cluster.Nodes()

	var run []running // ordered by (endS, start order)
	res := &Result{}
	queue := []*Job{} // FCFS
	next := 0         // next arrival index
	now := 0.0

	start := func(j *Job, t float64) {
		alloc, min := allocate(cluster, free, j.Nodes, policy, rng)
		for g, n := range alloc {
			free[g] -= n
		}
		freeTotal -= j.Nodes
		exec := j.BaseS / model(min, j.Bucket)
		run = insertRunning(run, running{endS: t + exec, alloc: alloc, job: j})
		res.Jobs = append(res.Jobs, JobMetrics{
			JobID: j.ID, WaitS: t - j.SubmitS, ExecS: exec,
			TurnaroundS: t - j.SubmitS + exec, MinMargin: min,
		})
	}

	schedule := func() {
		// FCFS: start queue heads while they fit.
		for len(queue) > 0 && queue[0].Nodes <= freeTotal {
			start(queue[0], now)
			queue = queue[1:]
		}
		if len(queue) == 0 {
			return
		}
		// EASY backfill: reserve for the head, let later jobs jump ahead
		// if they do not delay it (runtimes are known exactly here).
		head := queue[0]
		shadowT, freedAtShadow := shadow(run, freeTotal, head.Nodes)
		extra := freeTotal + freedAtShadow - head.Nodes
		for i := 1; i < len(queue) && freeTotal > 0; i++ {
			j := queue[i]
			if j.Nodes > freeTotal {
				continue
			}
			// Backfill decisions use user runtime estimates, which are
			// notoriously inflated; model them as 2x the actual runtime
			// (this is what keeps real queues from being backfilled flat).
			estimate := 2 * j.BaseS
			if now+estimate <= shadowT || j.Nodes <= extra {
				start(j, now)
				if j.Nodes > extra {
					extra = 0
				} else if now+estimate > shadowT {
					extra -= j.Nodes
				}
				queue = append(queue[:i], queue[i+1:]...)
				i--
			}
		}
	}

	for next < len(tr.Jobs) || len(run) > 0 {
		// Next event: arrival or completion.
		var tArr, tEnd float64 = -1, -1
		if next < len(tr.Jobs) {
			tArr = tr.Jobs[next].SubmitS
		}
		if len(run) > 0 {
			tEnd = run[0].endS
		}
		if tArr >= 0 && (tEnd < 0 || tArr <= tEnd) {
			now = tArr
			queue = append(queue, &tr.Jobs[next])
			next++
		} else {
			now = tEnd
			done := run[0]
			run = run[1:]
			for g, n := range done.alloc {
				free[g] += n
			}
			freeTotal += done.job.Nodes
		}
		queueHist.Observe(int64(len(queue)))
		schedule()
	}
	res.finalize()
	if reg != nil {
		reg.Counter(scope + "/sched/jobs").Add(uint64(len(res.Jobs)))
	}

	ck := obs.NewChecker(scope)
	ck.CheckEq(int64(len(res.Jobs)), int64(len(tr.Jobs)), "jobs-completed==jobs-submitted")
	ck.CheckEq(int64(len(queue)), 0, "queue-drained")
	ck.CheckEq(int64(freeTotal), int64(cluster.Nodes()), "free-nodes-restored")
	for g, m := range cluster.margins {
		ck.Check(free[g] == cluster.total[g], fmt.Sprintf("group-%d-restored", m),
			"%d free, %d total", free[g], cluster.total[g])
	}
	badWait, badExec := 0, 0
	for i := range res.Jobs {
		if res.Jobs[i].WaitS < 0 {
			badWait++
		}
		if res.Jobs[i].ExecS <= 0 {
			badExec++
		}
	}
	ck.CheckEq(int64(badWait), 0, "waits-non-negative")
	ck.CheckEq(int64(badExec), 0, "exec-times-positive")
	return res, ck.Violations()
}

// shadow computes when the queue head could start (jobs finish in
// running-set order until enough nodes are free) and how many nodes will
// be free then beyond the head's need. It walks only the front of the
// ordered running set.
func shadow(run []running, freeNow, need int) (shadowT float64, freedAtShadow int) {
	if freeNow >= need {
		return 0, 0
	}
	acc := freeNow
	for i := range run {
		acc += run[i].job.Nodes
		if acc >= need {
			return run[i].endS, acc - need
		}
	}
	return 1e18, 0
}

// allocate picks nodes for a job and returns the per-group allocation
// (aligned with c.margins) and the minimum margin among them (the job's
// effective speed, §III-D3).
func allocate(c *Cluster, free []int, need int, policy Policy, rng *xrand.Rand) ([]int, int) {
	alloc := make([]int, len(c.margins))
	min := -1
	take := func(g, n int) {
		if n <= 0 {
			return
		}
		alloc[g] += n
		if m := c.margins[g]; min < 0 || m < min {
			min = m
		}
	}
	switch policy {
	case PolicyMarginAware:
		// Fastest single group that fits...
		for g := range c.margins {
			if free[g] >= need {
				take(g, need)
				return alloc, min
			}
		}
		// ...else the fastest `need` free nodes across groups.
		left := need
		for g := range c.margins {
			n := free[g]
			if n > left {
				n = left
			}
			take(g, n)
			left -= n
			if left == 0 {
				break
			}
		}
		if left > 0 {
			panic("hpc: allocate called without enough free nodes")
		}
		return alloc, min
	default:
		// Margin-oblivious: draw nodes uniformly from the free pool,
		// visiting groups in c.margins order.
		left := need
		for left > 0 {
			freeTotal := 0
			for g := range c.margins {
				freeTotal += free[g] - alloc[g]
			}
			if freeTotal < left {
				panic("hpc: allocate called without enough free nodes")
			}
			pick := int(rng.Uint64n(uint64(freeTotal)))
			for g := range c.margins {
				avail := free[g] - alloc[g]
				if pick < avail {
					// Take a contiguous chunk from this group to keep the
					// loop near O(groups).
					chunk := avail - pick
					if chunk > left {
						chunk = left
					}
					take(g, chunk)
					left -= chunk
					break
				}
				pick -= avail
			}
		}
		return alloc, min
	}
}
