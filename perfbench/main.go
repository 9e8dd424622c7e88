// Command perfbench is the repository benchmark. It runs one named
// workload in process through the experiment engine's public entry
// points, checks every output against an in-process reference, and
// prints one JSON result line:
//
//	perfbench --workload quick-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, with
// --trace 1 the per-layer metrics of a separate traced run. README.md
// lists every metric, its unit, and the end-to-end metric and workload
// each layer metric should move. run.sh builds and runs it from the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/runcache"
)

// config is one invocation's parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tmp      string // parent of every temporary cache directory
	commit   string
	nproc    int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.Float64Var(&c.seconds, "seconds", 10, "measured duration (at least one iteration always runs)")
	fs.IntVar(&trace, "trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	fs.StringVar(&c.tmp, "tmp", "", "directory for temporary cache directories (default: the system temp dir)")
	fs.StringVar(&c.commit, "commit", "unknown", "commit recorded in the environment line")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() != 0 {
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[c.workload]; !ok {
		return c, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloadNames())
	}
	if c.seed == 0 {
		return c, fmt.Errorf("--seed must be positive")
	}
	if c.seconds <= 0 {
		return c, fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1")
	}
	c.trace = trace == 1
	c.nproc = runtime.NumCPU()
	return c, nil
}

// environment is printed before the result so every recorded number
// carries the host and build it was measured on. CodeVersion is the
// run-cache key component; every cache directory is fresh per
// invocation, so a fallback version can never replay another build's
// cells.
type environment struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Trace       bool   `json:"trace"`
	CodeVersion string `json:"code_version"`
	Host        string `json:"host"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go"`
	Commit      string `json:"commit"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	host, _ := os.Hostname()
	env := environment{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		CodeVersion: runcache.CodeVersion(), Host: host,
		NumCPU: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: cfg.commit,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
