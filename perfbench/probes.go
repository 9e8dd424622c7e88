package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/dramspec"
	"repro/internal/heterodmr"
	"repro/internal/hpc"
	"repro/internal/margin"
	"repro/internal/memctrl"
	"repro/internal/memuse"
	"repro/internal/montecarlo"
	"repro/internal/node"
	"repro/internal/report"
	"repro/internal/rs"
	"repro/internal/runcache"
	"repro/internal/shard"
	"repro/internal/simd"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The layer probes time calls into each layer's public functions from
// outside, on inputs derived from the run seed, at the geometry and
// scale the quick suite uses. They run identically on every workload.

// scaleShift mirrors node.DefaultScaleShift: quick cells shrink caches
// and footprints by 2^4.
const scaleShift = node.DefaultScaleShift

// quickProfiles are the quick suite's benchmarks: the first of each
// benchmark suite.
func quickProfiles() []workload.Profile {
	var out []workload.Profile
	for _, s := range workload.Suites() {
		out = append(out, workload.BySuite(s)[0])
	}
	return out
}

// scaled shrinks a profile's footprint the way node.Run does.
func scaled(p workload.Profile) workload.Profile {
	p.FootprintBytes >>= scaleShift
	if p.FootprintBytes < 1<<20 {
		p.FootprintBytes = 1 << 20
	}
	p.WarmSetBytes >>= scaleShift
	return p
}

// memEvent is one memory reference of a generated stream.
type memEvent struct {
	addr  uint64
	write bool
}

func probes(b *bench, tr *layers) error {
	seed := b.cfg.seed
	rng := xrand.NewAt(seed, 0x9e0be5)
	refs := probeWorkload(tr, seed)
	probeCache(tr, refs, rng)
	probeMemctrl(tr, refs)
	if err := probeHeteroDMR(tr, seed); err != nil {
		return fmt.Errorf("heterodmr probe: %w", err)
	}
	if err := probeRS(tr, rng); err != nil {
		return fmt.Errorf("rs probe: %w", err)
	}
	cells, err := probeNode(tr, seed)
	if err != nil {
		return err
	}
	probeSystem(tr, seed)
	probeRender(tr, b.ref)
	if err := probeRuncache(b, tr, cells); err != nil {
		return err
	}
	if err := probeShard(b, tr, cells); err != nil {
		return err
	}
	if !tr.has("simd.submit_ms") {
		return probeSimd(b, tr)
	}
	return nil
}

// probeWorkload times stream generation and returns the memory
// references of one scaled stream per quick benchmark.
func probeWorkload(tr *layers, seed uint64) []memEvent {
	const instrs = 400_000
	var refs []memEvent
	var events int
	t0 := time.Now()
	for i, p := range quickProfiles() {
		st := scaled(p).NewStream(seed+uint64(i)*104729, instrs)
		for {
			ev, ok := st.Next()
			if !ok {
				break
			}
			events++
			if ev.Kind == workload.Read || ev.Kind == workload.Write {
				refs = append(refs, memEvent{ev.Addr, ev.Kind == workload.Write})
			}
		}
	}
	tr.add("workload.event_ns", 1e9*time.Since(t0).Seconds()/float64(events))
	return refs
}

// probeCache drives the LLC at Hierarchy1's scaled geometry: the
// generated references for hit ratio and fill count, then all-hit
// Access calls and all-miss Fill calls on random blocks for their costs.
func probeCache(tr *layers, refs []memEvent, rng *xrand.Rand) {
	h := node.Hierarchy1()
	cfg := cache.Config{SizeBytes: h.L3TotalBytes >> scaleShift, Ways: 16, BlockBytes: 64, LatencyPS: 22 * dramspec.Nanosecond}
	c := cache.New(cfg)
	for _, r := range refs {
		if !c.Access(r.addr, r.write) {
			c.Fill(r.addr, r.write, false)
		}
	}
	tr.ratio("cache.hit_ratio", float64(c.Hits), float64(c.Hits+c.Misses))
	tr.add("cache.fills", float64(c.Fills))

	const n = 1 << 20
	lines := cfg.SizeBytes / cfg.BlockBytes
	c = cache.New(cfg)
	resident := make([]uint64, lines/2)
	for i := range resident {
		resident[i] = rng.Uint64n(1<<30) << 6
		c.Fill(resident[i], false, false)
	}
	fresh := make([]uint64, n)
	for i := range fresh {
		fresh[i] = (1<<36 + rng.Uint64n(1<<30)) << 6
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Access(resident[i%len(resident)], i&7 == 0)
	}
	tr.add("cache.access_ns", 1e9*time.Since(t0).Seconds()/n)
	t0 = time.Now()
	for _, a := range fresh {
		c.Fill(a, false, false)
	}
	tr.add("cache.fill_ns", 1e9*time.Since(t0).Seconds()/n)
}

// hdmrChannelConfig is one Hetero-DMR channel at the suite's 0.8 GT/s
// margin operating point.
func hdmrChannelConfig() memctrl.Config {
	spec := dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800)
	fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
	return memctrl.DefaultConfig(memctrl.ReplicationHeteroDMR, spec, &fast)
}

// probeMemctrl replays the generated references against one Hetero-DMR
// channel: each read waits for completion, writes are posted.
func probeMemctrl(tr *layers, refs []memEvent) {
	ch := memctrl.MustNewChannel(hdmrChannelConfig())
	reads := 0
	t0 := time.Now()
	for _, r := range refs {
		if r.write {
			ch.SubmitWrite(r.addr, ch.Now())
			continue
		}
		req := ch.SubmitRead(r.addr, ch.Now())
		ch.WaitFor(req)
		ch.Release(req)
		reads++
	}
	tr.add("memctrl.read_ns", 1e9*time.Since(t0).Seconds()/float64(reads))
}

// probeHeteroDMR times the data-plane fast-read path over written blocks.
func probeHeteroDMR(tr *layers, seed uint64) error {
	pop := margin.GeneratePopulation(seed)
	c, err := heterodmr.New(heterodmr.Config{
		Modules: pop.MajorBrands()[:2],
		Bench:   margin.NewBench(23, seed),
		Faults:  heterodmr.FaultModel{PerReadErrorProb: 1e-3},
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	const blocks, n = 1024, 200_000
	data := make([]byte, heterodmr.BlockSize)
	for i := 0; i < blocks; i++ {
		for j := range data {
			data[j] = byte(i + j + int(seed))
		}
		c.Write(uint64(i)*heterodmr.BlockSize, data)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := c.Read(uint64(i%blocks) * heterodmr.BlockSize); err != nil {
			return err
		}
	}
	tr.add("heterodmr.read_ns", 1e9*time.Since(t0).Seconds()/n)
	return nil
}

// probeRS times detection-only decoding of the Bamboo geometry (64 data
// + 8 address bytes, 8 parity bytes) on clean codewords.
func probeRS(tr *layers, rng *xrand.Rand) error {
	code := rs.MustNew(72, 8)
	const words, n = 64, 1 << 20
	cws := make([][]byte, words)
	for i := range cws {
		data := make([]byte, 72)
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		cws[i] = code.Encode(data)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := code.Detect(cws[i%words]); err != nil {
			return err
		}
	}
	tr.add("rs.detect_ns", 1e9*time.Since(t0).Seconds()/n)
	return nil
}

// probeCell is one node cell the probes ran, with its encoded result.
type probeCell struct {
	cfg     node.Config
	prof    workload.Profile
	payload []byte
}

// quickCellConfig resolves a quick-scale node cell as the suite does.
func quickCellConfig(h node.Hierarchy, repl memctrl.Replication, seed uint64) node.Config {
	cfg := node.Config{
		H:                   h,
		Replication:         repl,
		Spec:                dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800),
		Seed:                seed,
		InstructionsPerCore: 40_000,
		WarmupInstructions:  15_000,
	}
	if repl.Fast() {
		fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
		cfg.Fast = &fast
	}
	return cfg
}

// probeNode runs one quick cell per hierarchy × {baseline,
// Hetero-DMR+FMR at 0.8 GT/s} × quick benchmark, and reads the memory
// controller's counters from the results.
func probeNode(tr *layers, seed uint64) ([]probeCell, error) {
	var cells []probeCell
	var instrs, wall float64
	var rowHits, rowAll, acts, switches uint64
	for _, h := range node.Hierarchies() {
		for _, repl := range []memctrl.Replication{memctrl.ReplicationNone, memctrl.ReplicationHeteroDMRFMR} {
			for _, p := range quickProfiles() {
				cfg := quickCellConfig(h, repl, seed)
				t0 := time.Now()
				res, err := node.Run(cfg, p)
				if err != nil {
					return nil, fmt.Errorf("node probe: %w", err)
				}
				d := time.Since(t0).Seconds()
				wall += d
				tr.add("node.cell_ms", 1e3*d)
				instrs += float64(h.Cores) * float64(cfg.InstructionsPerCore+cfg.WarmupInstructions)
				rowHits += res.Mem.RowHits
				rowAll += res.Mem.RowHits + res.Mem.RowMisses + res.Mem.RowConflicts
				acts += res.Activates
				switches += res.Mem.ModeSwitches
				payload, err := shard.EncodeNodeResult(res)
				if err != nil {
					return nil, err
				}
				cells = append(cells, probeCell{cfg, p, payload})
			}
		}
	}
	tr.add("node.sim_minstr_per_s", instrs/wall/1e6)
	tr.ratio("memctrl.row_hit_ratio", float64(rowHits), float64(rowAll))
	tr.add("memctrl.acts", float64(acts))
	tr.add("memctrl.mode_switches", float64(switches))
	return cells, nil
}

// probeSystem times the system-level layers at quick scale: the study
// population, the Fig 1 job analysis, Monte-Carlo trial ranges, and one
// margin-aware cluster simulation of the quick Fig 17 trace.
func probeSystem(tr *layers, seed uint64) {
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		margin.GeneratePopulation(seed + uint64(i))
		tr.add("margin.population_ms", 1e3*time.Since(t0).Seconds())
	}
	var frac memuse.Fractions
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		frac = memuse.Analyze(memuse.Generate(memuse.GeneratorConfig{Jobs: 5_000, Seed: seed}))
		tr.add("memuse.analyze_ms", 1e3*time.Since(t0).Seconds())
	}
	mc := montecarlo.DefaultConfig(seed)
	const trials = 16 * montecarlo.ShardTrials
	t0 := time.Now()
	montecarlo.ChannelLevelRange(mc, montecarlo.MarginAware, 0, trials)
	montecarlo.NodeLevelRange(mc, montecarlo.MarginAware, 0, trials)
	tr.add("montecarlo.trial_ns", 1e9*time.Since(t0).Seconds()/(2*trials))

	const jobs, nodes = 6_000, 256
	trace := hpc.GenerateTrace(jobs, nodes, hpc.TracePeriodS/8, hpc.TargetNodeUtil, frac, seed)
	cluster := hpc.GroupedCluster(nodes, 0.62, 0.36)
	model := hpc.HeteroDMRModel(1.10, 1.05)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		hpc.Simulate(trace, cluster, hpc.PolicyMarginAware, model, seed)
		d := time.Since(t0).Seconds()
		tr.add("hpc.simulate_ms", 1e3*d)
		tr.add("hpc.jobs_per_s", jobs/d)
	}
}

// probeRender times rendering every reference table as the CLI prints it.
func probeRender(tr *layers, ref reference) {
	tables := make([]*report.Table, 0, len(ref.tables))
	for _, t := range ref.tables {
		tables = append(tables, t)
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		render(tables)
		tr.add("report.render_ms", 1e3*time.Since(t0).Seconds())
	}
}

// probeRuncache keys, writes and reads back the probe cells' payloads in
// a fresh cache directory, checking every byte read.
func probeRuncache(b *bench, tr *layers, cells []probeCell) error {
	dir, err := os.MkdirTemp(b.tmp, "probe-runcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := runcache.Open(dir)
	if err != nil {
		return err
	}
	version := runcache.CodeVersion()
	var bytesTotal float64
	for _, cell := range cells {
		t0 := time.Now()
		k := runcache.KeyOf(version, shard.NodeMaterial{Cfg: cell.cfg, Prof: cell.prof})
		t1 := time.Now()
		if err := c.Put(k, cell.payload); err != nil {
			return fmt.Errorf("runcache probe: %w", err)
		}
		t2 := time.Now()
		got, ok := c.Get(k)
		t3 := time.Now()
		b.tally.check(ok && string(got) == string(cell.payload), "runcache probe: entry read back differs")
		tr.add("runcache.key_us", 1e6*t1.Sub(t0).Seconds())
		tr.add("runcache.put_us", 1e6*t2.Sub(t1).Seconds())
		tr.add("runcache.get_us", 1e6*t3.Sub(t2).Seconds())
		bytesTotal += float64(len(cell.payload))
	}
	tr.add("runcache.bytes_per_entry", bytesTotal/float64(len(cells)))
	return nil
}

// probeShard times single-unit round trips through a pool to one
// loopback worker whose cache already holds the units: dispatch,
// transport and encoding, without simulation.
func probeShard(b *bench, tr *layers, cells []probeCell) error {
	dir, err := os.MkdirTemp(b.tmp, "probe-shard-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := runcache.Open(dir)
	if err != nil {
		return err
	}
	version := runcache.CodeVersion()
	units := make([]shard.Unit, len(cells))
	for i, cell := range cells {
		units[i] = shard.NewNodeUnit(version, cell.cfg, cell.prof)
		if _, _, err := shard.Execute(units[i], c); err != nil {
			return fmt.Errorf("shard probe: %w", err)
		}
	}
	srv := httptest.NewServer(shard.NewWorker(version, c, nil).Handler())
	defer srv.Close()
	pool := shard.NewPool(shard.PoolOptions{Workers: []string{srv.URL}, InFlight: 1})
	for rep := 0; rep < 3; rep++ {
		for i, u := range units {
			t0 := time.Now()
			out := pool.Run([]shard.Unit{u})
			tr.add("shard.unit_rtt_ms", 1e3*time.Since(t0).Seconds())
			b.tally.check(string(out[0].Payload) == string(cells[i].payload), "shard probe: unit payload differs")
		}
	}
	return nil
}

// probeSimd submits one quick Fig 11 job to a fresh daemon over loopback
// HTTP, then the same spec again, on workloads that do not go through
// the daemon themselves.
func probeSimd(b *bench, tr *layers) error {
	dir, err := os.MkdirTemp(b.tmp, "probe-simd-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := runcache.Open(dir)
	if err != nil {
		return err
	}
	srv := httptest.NewServer(simd.New(simd.Config{Workers: 1, Cache: c}).Handler())
	defer srv.Close()
	sp := simd.JobSpec{Experiments: []string{"fig11"}, Seed: b.cfg.seed, Quick: true, Seeds: 1}
	want, err := resultBytes(sp, b.ref.tables["fig11"])
	if err != nil {
		return err
	}
	client := srv.Client()
	for rep := 0; rep < 3; rep++ {
		got, tm, err := submitAndFetch(client, srv.URL, "probe", sp)
		if err != nil {
			return fmt.Errorf("simd probe: %w", err)
		}
		b.tally.check(string(got) == string(want), "simd probe: job result bytes differ from the in-process run")
		tr.add("simd.submit_ms", 1e3*tm.submit)
		tr.add("simd.result_ms", 1e3*tm.result)
	}
	return nil
}
