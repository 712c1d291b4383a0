package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/harness"
	"repro/internal/overlay"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// workload is one input set the benchmark runs.
type workload struct {
	name, why string
	scenario  string
	durSec    float64 // simulated traffic seconds; 0 keeps the scenario's own
	shards    int     // engine shards per session; 0 is the sequential engine
	kind      kind
}

type kind int

const (
	kindSweep kind = iota // harness.ScenarioSweep over every cell
	kindCell              // the scenario's one cell, stepped through core.Checkpointer
	kindChurn             // every cell, snapshotted each simulated second and restored once
)

// sweepWorkers is the sweep pool width. It is fixed, not GOMAXPROCS, so the
// workload is the same on every machine.
const sweepWorkers = 2

var workloads = []workload{
	{name: "sweep-16", scenario: "waxman-zipf-16", kind: kindSweep,
		why: "the paper-style sweep path: pool workers, blueprint-cache hits, (σ,ρ) vs (σ,ρ,λ) regulators and MUXes at moderate event density"},
	{name: "scale-64", scenario: "waxman-zipf-64", durSec: 2, kind: kindCell,
		why: "one 10k-host cell compiled cold on the sequential engine, where the scheduler and the drain tail dominate"},
	{name: "sharded-64", scenario: "waxman-zipf-64", durSec: 2, shards: 2, kind: kindCell,
		why: "scale-64's physics on 2 shards, so the coordinator, barriers and partition are the only difference"},
	{name: "churn-ckpt-16", scenario: "reopt-churn-waxman-16", kind: kindChurn,
		why: "churn, repair and reopt under a snapshot each simulated second plus one restore per cell checked bit-equal"},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sample is one repetition's measurements by metric name.
type sample map[string]float64

// bench is a workload resolved for one seed: the scenario, the simulated
// duration, and the correctness state carried across repetitions.
type bench struct {
	w     workload
	seed  uint64
	sc    scenario.Scenario
	dur   des.Duration
	small bool // reduced size, for the self-test

	ck    checks
	first *fingerprint // the first repetition's outcome
	gold  *fingerprint // stored outcome at defaultSeed, full size only

	groups []core.GroupSpec // last repetition's membership
	cfgs   []core.Config    // last repetition's cell configs
	sweep  harness.ScenarioResult
	cell   core.Result // last repetition's result (kindCell)
}

// newBench resolves workload name at seed. small shrinks hosts and
// simulated time so the self-test runs in seconds.
func newBench(name string, seed uint64, small bool) (*bench, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Lookup(w.scenario)
	if err != nil {
		return nil, err
	}
	durSec := w.durSec
	if durSec == 0 {
		durSec = sc.DurationSec
	}
	if small {
		sc.NumHosts /= 10
		durSec = 2
		if w.kind == kindCell {
			durSec = 0.5
		}
	}
	if seed == 0 {
		seed = defaultSeed // as harness.Options reads a zero seed, so the sweep and the cells agree
	}
	return &bench{w: w, seed: seed, sc: sc, dur: des.Seconds(durSec), small: small}, nil
}

// useGolden makes every repetition at the default seed and full size
// check against the stored fingerprint.
func (b *bench) useGolden() error {
	if b.seed != defaultSeed || b.small {
		return nil
	}
	g, err := golden(b.w.name)
	if err != nil {
		return err
	}
	b.gold = &g
	return nil
}

// configs compiles every (load, combo) cell exactly as the sweep plan does:
// shared specs and membership, the traffic seed derived per load index.
func (b *bench) configs(groups []core.GroupSpec) ([]core.Config, error) {
	mix, err := b.sc.ParseMix()
	if err != nil {
		return nil, err
	}
	wl, err := b.sc.ParseWorkload()
	if err != nil {
		return nil, err
	}
	specs := core.DefaultSpecsN(wl, mix, b.sc.GroupCount(), b.seed)
	var cfgs []core.Config
	for li, load := range b.sc.Loads {
		for _, combo := range b.sc.Combos {
			cfg, err := b.sc.SessionConfig(combo, load, b.seed,
				core.UseSeed(harness.DeriveSeed(b.seed, li)), b.dur, specs, groups)
			if err != nil {
				return nil, err
			}
			cfg.Shards = b.w.shards
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs, nil
}

func (b *bench) cellName(i int) string {
	nc := len(b.sc.Combos)
	return cellName(b.sc.Combos[i%nc].String(), b.sc.Loads[i/nc])
}

// setup is the timed path from workload start to the first event:
// membership, cell configs and the cold compile of the first session.
func (b *bench) setup(tr *tracer, s sample) (core.Checkpointer, error) {
	core.FlushSubstrateCache()
	var err error
	var cp core.Checkpointer
	s["setup_s"] = tr.do("workload.setup", "setup", func() {
		s["scenario.groups_s"] = tr.do("scenario.groups", "", func() {
			b.groups = b.sc.Groups(b.seed)
		}).Seconds()
		tr.do("scenario.session_config", "", func() { b.cfgs, err = b.configs(b.groups) })
		if err != nil {
			return
		}
		s["core.compile_cold_s"] = tr.do("core.compile_cold", "", func() {
			cp = core.NewCheckpointer(b.cfgs[0])
		}).Seconds()
	}).Seconds()
	return cp, err
}

// iterate runs one timed repetition and checks its outcome.
func (b *bench) iterate(tr *tracer) (sample, error) {
	s := sample{}
	a0 := readAllocs()
	hp := startHeapPeak()
	var f fingerprint
	var err error
	switch b.w.kind {
	case kindSweep:
		f, err = b.iterSweep(tr, s)
	case kindCell:
		f, err = b.iterCell(tr, s)
	case kindChurn:
		f, err = b.iterChurn(tr, s)
	}
	s["peak_heap_mb"] = hp.Stop()
	if err != nil {
		return nil, err
	}
	a1 := readAllocs()
	s["alloc_mb"] = float64(a1.bytes-a0.bytes) / (1 << 20)
	s["mallocs"] = float64(a1.count - a0.count)
	s["deliveries_per_s"] = float64(f.Delivered) / s["run_s"]
	s["core.delivered"] = float64(f.Delivered)
	s["core.lost"] = float64(f.Lost)
	s["core.joins"] = float64(f.Joins)
	s["core.leaves"] = float64(f.Leaves)
	s["core.regrafts"] = float64(f.Regrafts)
	s["core.reopts"] = float64(f.Reopts)

	b.ck.expect(f.Delivered > 0 && s["wdb_s"] > 0 && !math.IsInf(s["wdb_s"], 0),
		"%s: empty or unbounded outcome (delivered %d, wdb %v)", b.w.name, f.Delivered, s["wdb_s"])
	if b.first == nil {
		b.first = &f
	} else {
		b.ck.expectSame(b.w.name+": repetition equals the first", f, *b.first)
	}
	if b.gold != nil {
		b.ck.expectSame(b.w.name+": golden fingerprint", f, *b.gold)
	}
	return s, nil
}

func (b *bench) iterSweep(tr *tracer, s sample) (fingerprint, error) {
	// The session set-up compiles is dropped: it leaves the blueprint in
	// the cache, so every sweep cell compiles warm.
	if _, err := b.setup(tr, s); err != nil {
		return fingerprint{}, err
	}
	opts := harness.Options{Seed: b.seed, Workers: sweepWorkers, Duration: b.dur}
	var err error
	cpu0 := cpuSeconds()
	run := tr.do("harness.sweep", "sweep", func() { b.sweep, err = harness.ScenarioSweep(b.sc, opts) })
	cpu := cpuSeconds() - cpu0
	if err != nil {
		return fingerprint{}, err
	}
	s["run_s"] = run.Seconds()
	s["harness.pool_util"] = cpu / (run.Seconds() * sweepWorkers)
	s["proc.cpu_util"] = cpu / (run.Seconds() * float64(runtime.GOMAXPROCS(0)))
	var means []float64
	for _, c := range b.sweep.Curves {
		b.ck.expect(c.Violations == 0, "%s: %s breaks its theory bound at %d loads",
			b.w.name, c.Combo, c.Violations)
		for li := range b.sweep.Loads {
			s["wdb_s"] = math.Max(s["wdb_s"], c.WDB.Y[li])
			means = append(means, c.MeanDelay.Y[li])
		}
	}
	s["mean_delay_s"] = mean(means)
	return sweepFingerprint(b.w.name, b.seed, b.sweep), nil
}

func (b *bench) iterCell(tr *tracer, s sample) (fingerprint, error) {
	cp, err := b.setup(tr, s)
	if err != nil {
		return fingerprint{}, err
	}
	var traffic, drain time.Duration
	cpu0 := cpuSeconds()
	run := tr.do("core.run", "", func() {
		traffic = tr.do("core.traffic", "traffic", func() { cp.Start(); cp.RunTo(b.dur) })
		drain = tr.do("core.drain", "drain", func() { b.cell = cp.Finish() })
	})
	cpu := cpuSeconds() - cpu0
	r := b.cell
	s["run_s"] = run.Seconds()
	s["core.traffic_s"] = traffic.Seconds()
	s["core.drain_s"] = drain.Seconds()
	s["proc.cpu_util"] = cpu / (run.Seconds() * float64(runtime.GOMAXPROCS(0)))
	s["wdb_s"] = r.WDB
	s["mean_delay_s"] = r.MeanDelay
	s["des.epochs"] = float64(r.Epochs)
	s["des.cross_shard_msgs"] = float64(r.CrossShardMsgs)
	s["des.stall_share"] = r.StallShare
	if r.Epochs > 0 {
		s["des.deliveries_per_epoch"] = float64(r.Delivered) / float64(r.Epochs)
	}
	f := fingerprint{Workload: b.w.name, Seed: b.seed}
	f.addResult(b.cellName(0), r)
	return f, nil
}

func (b *bench) iterChurn(tr *tracer, s sample) (fingerprint, error) {
	cp, err := b.setup(tr, s)
	if err != nil {
		return fingerprint{}, err
	}
	f := fingerprint{Workload: b.w.name, Seed: b.seed}
	last := int(math.Ceil(b.dur.Seconds()))
	keep := (last + 1) / 2 // the checkpoint each cell is restored from
	results := make([]core.Result, len(b.cfgs))
	kept := make([][]byte, len(b.cfgs))
	var warm, run, traffic, drain, snapT time.Duration
	var snapBytes, snaps int
	var means []float64
	var cpu float64
	for i, cfg := range b.cfgs {
		// Each later cell compiles (warm) just before it runs, so only one
		// session is live at a time, as in a sweep worker.
		if i > 0 {
			warm += tr.do("core.compile_warm", "setup", func() { cp = core.NewCheckpointer(cfg) })
		}
		cpu0 := cpuSeconds()
		run += tr.do("core.run", "", func() {
			traffic += tr.do("core.traffic", "traffic", func() { cp.Start() })
			for t := 1; t <= last && err == nil; t++ {
				at := min(des.Time(t)*des.Second, b.dur)
				traffic += tr.do("core.traffic", "traffic", func() { cp.RunTo(at) })
				var data []byte
				snapT += tr.do("core.snapshot", "snapshot", func() { data, err = cp.Snapshot() })
				snapBytes += len(data)
				snaps++
				if t == keep {
					kept[i] = data
				}
			}
			if err == nil {
				drain += tr.do("core.drain", "drain", func() { results[i] = cp.Finish() })
			}
		})
		cpu += cpuSeconds() - cpu0
		if err != nil {
			return fingerprint{}, fmt.Errorf("%s: snapshot: %w", b.cellName(i), err)
		}
		r := results[i]
		f.addResult(b.cellName(i), r)
		s["wdb_s"] = math.Max(s["wdb_s"], r.WDB)
		means = append(means, r.MeanDelay)
	}
	s["setup_s"] += warm.Seconds()
	s["core.compile_warm_s"] = warm.Seconds() / float64(len(b.cfgs)-1)
	var restoreT time.Duration
	for i := range b.cfgs {
		var rc core.Checkpointer
		restoreT += tr.do("core.restore", "restore", func() { rc, err = core.Restore(b.cfgs[i], kept[i]) })
		if err != nil {
			return fingerprint{}, fmt.Errorf("%s: restore: %w", b.cellName(i), err)
		}
		var rr core.Result
		tr.do("check.restored_finish", "check", func() { rr = rc.Finish() })
		b.ck.expect(reflect.DeepEqual(rr, results[i]),
			"%s: %s restored at %d s differs from the straight run", b.w.name, b.cellName(i), keep)
	}
	s["run_s"] = run.Seconds()
	s["proc.cpu_util"] = cpu / (run.Seconds() * float64(runtime.GOMAXPROCS(0)))
	s["core.traffic_s"] = traffic.Seconds()
	s["core.drain_s"] = drain.Seconds()
	s["core.snapshot_s"] = snapT.Seconds()
	s["core.restore_s"] = restoreT.Seconds()
	s["snap.bytes"] = float64(snapBytes) / float64(snaps)
	s["mean_delay_s"] = mean(means)
	return f, nil
}

// probe measures, once per traced run, the layer costs a repetition does
// not separate: a warm compile, the overlay strategy's tree builds on the
// compiled network, and for the sweep every cell run one at a time.
func (b *bench) probe(tr *tracer) (sample, error) {
	s := sample{}
	cfg := b.cfgs[0]
	cfg.Shards = 0
	var sess *core.Session
	s["core.compile_warm_s"] = tr.do("core.compile_warm", "setup", func() { sess = core.NewSession(cfg) }).Seconds()

	strategies := map[string]bool{}
	for _, c := range b.sc.Combos {
		strategies[strategyOf(b.sc, c)] = true
	}
	var build time.Duration
	for name := range strategies {
		strat, err := overlay.LookupStrategy(name)
		if err != nil {
			return nil, err
		}
		trees := make([]*overlay.Tree, len(b.groups))
		build += tr.do("overlay.build", "setup", func() {
			for g, spec := range b.groups {
				trees[g], err = strat.Build(sess.Network(), spec.Members, spec.Source,
					overlay.Config{K: cfg.ClusterK, Seed: xrand.DeriveSeed(b.seed, g)})
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("overlay %s build: %w", name, err)
		}
		if name == strategyOf(b.sc, b.sc.Combos[0]) {
			same := true
			for g, t := range sess.Trees() {
				same = same && t.Layers() == trees[g].Layers() && t.Size() == trees[g].Size()
			}
			b.ck.expect(same, "%s: %s trees built outside the session differ from the session's", b.w.name, name)
		}
	}
	s["overlay.build_s"] = build.Seconds()

	if b.w.kind == kindSweep {
		var cells []float64
		var traffic, drain time.Duration
		replay := fingerprint{Workload: b.w.name, Seed: b.seed}
		for i, cfg := range b.cfgs {
			var cp core.Checkpointer
			var r core.Result
			cells = append(cells, tr.do("harness.cell", "", func() {
				tr.do("core.compile_warm", "setup", func() { cp = core.NewCheckpointer(cfg) })
				traffic += tr.do("core.traffic", "traffic", func() { cp.Start(); cp.RunTo(b.dur) })
				drain += tr.do("core.drain", "drain", func() { r = cp.Finish() })
			}).Seconds())
			replay.Delivered += r.Delivered
			replay.Lost += r.Lost
			replay.Cells = append(replay.Cells, cellPrint{Cell: b.cellName(i), Lost: r.Lost,
				Layers: r.Layers, WDBBits: []string{bits(r.WDB)}, MeanBits: bits(r.MeanDelay)})
		}
		b.ck.expectSame(b.w.name+": cells run one by one equal the sweep", replay,
			sweepFingerprint(b.w.name, b.seed, b.sweep))
		_, p50, _ := quartiles(cells)
		sort.Float64s(cells)
		s["harness.cell_s.p50"] = p50
		s["harness.cell_s.max"] = cells[len(cells)-1]
		s["core.traffic_s"] = traffic.Seconds()
		s["core.drain_s"] = drain.Seconds()
	}
	return s, nil
}

// crossCheck runs the seed-independent checks that need a second engine:
// the sharded workload must reproduce the sequential engine's physics.
func (b *bench) crossCheck(tr *tracer) {
	if b.w.kind != kindCell || b.w.shards <= 1 {
		return
	}
	cfg := b.cfgs[0]
	cfg.Shards = 0
	var seq core.Result
	tr.do("check.sequential_reference", "check", func() { seq = core.Run(cfg) })
	sh := b.cell
	same := seq.Delivered == sh.Delivered && seq.Lost == sh.Lost &&
		len(seq.PerGroupWDB) == len(sh.PerGroupWDB)
	for g := 0; same && g < len(seq.PerGroupWDB); g++ {
		same = math.Float64bits(seq.PerGroupWDB[g]) == math.Float64bits(sh.PerGroupWDB[g])
	}
	b.ck.expect(same, "%s: sharded delivered/lost/per-group WDB (%d/%d) differ from sequential (%d/%d)",
		b.w.name, sh.Delivered, sh.Lost, seq.Delivered, seq.Lost)
}

// strategyOf names the overlay strategy a combo builds with.
func strategyOf(sc scenario.Scenario, c scenario.Combo) string {
	if name := sc.StrategyFor(c); name != "" {
		return name
	}
	return "dsct"
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
