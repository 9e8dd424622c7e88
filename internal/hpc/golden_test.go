package hpc

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/simulate_golden.txt from the current scheduler")

const goldenPath = "testdata/simulate_golden.txt"

// goldenSystems are the clusters the golden pins: the conventional
// system, and the grouped cluster under both policies (margin-aware
// group fits, and the margin-oblivious draws that consume the RNG).
var goldenSystems = []struct {
	name    string
	cluster func(nodes int) *Cluster
	policy  Policy
	model   SpeedupModel
}{
	{"uniform/default", func(n int) *Cluster { return UniformCluster(n, 0) }, PolicyDefault, ConventionalModel},
	{"grouped/margin-aware", func(n int) *Cluster { return GroupedCluster(n, 0.62, 0.36) }, PolicyMarginAware, HeteroDMRModel(1.21, 1.17)},
	{"grouped/default", func(n int) *Cluster { return GroupedCluster(n, 0.62, 0.36) }, PolicyDefault, HeteroDMRModel(1.21, 1.17)},
}

// resultDigest hashes every JobMetrics field of r, floats by their exact
// bits, in completion-record order.
func resultDigest(r *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, j := range r.Jobs {
		put(uint64(int64(j.JobID)))
		put(math.Float64bits(j.WaitS))
		put(math.Float64bits(j.ExecS))
		put(math.Float64bits(j.TurnaroundS))
		put(uint64(int64(j.MinMargin)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests simulates the quick-suite trace scale (6000 jobs, 256
// nodes) at seeds 1-3 on every golden system.
func goldenDigests(t *testing.T) []string {
	const jobs, nodes = 6000, 256
	var lines []string
	for seed := uint64(1); seed <= 3; seed++ {
		tr := GenerateTrace(jobs, nodes, TracePeriodS/8, TargetNodeUtil, testFrac, seed)
		for _, sys := range goldenSystems {
			res, vs := SimulateObserved(tr, sys.cluster(nodes), sys.policy, sys.model, seed, nil, "")
			if len(vs) != 0 {
				t.Fatalf("seed %d %s: violations %v", seed, sys.name, vs)
			}
			lines = append(lines, fmt.Sprintf("seed=%d %s %s", seed, sys.name, resultDigest(res)))
		}
	}
	return lines
}

// TestSimulateGolden pins the scheduler's per-job output bit for bit.
// The digests were captured from the heap-based scheduler that preceded
// the end-time-ordered running set; regenerate with -update only for an
// intended behaviour change.
func TestSimulateGolden(t *testing.T) {
	got := goldenDigests(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
