// Command perfbench is the simulator's benchmark. One process runs one
// workload for a fixed wall-time budget, repeating it, checking every
// outcome, and printing medians:
//
//	go run . --workload scale-64 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run is split in two halves, the
// first untraced and the second traced (spans around every layer call
// plus a CPU profile labelled by phase), and the metrics are the per-layer
// ones. The line before it is a record with the environment, quartiles
// and the profile's per-phase split. run.sh builds and runs it from the
// repository root; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// metric is a reported metric with its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a simulator user sees, reported with --trace 0.
var endToEnd = []metric{
	{"setup_s", "s"}, {"run_s", "s"}, {"deliveries_per_s", "1/s"},
	{"peak_heap_mb", "MB"}, {"wdb_s", "s"}, {"mean_delay_s", "s"},
}

// perLayer are the metrics of single layers, reported with --trace 1.
var perLayer = func() []metric {
	m := []metric{
		{"harness.cell_s.p50", "s"}, {"harness.cell_s.max", "s"}, {"harness.pool_util", "ratio"},
		{"scenario.groups_s", "s"}, {"overlay.build_s", "s"},
		{"core.compile_cold_s", "s"}, {"core.compile_warm_s", "s"},
		{"core.traffic_s", "s"}, {"core.drain_s", "s"},
		{"core.snapshot_s", "s"}, {"core.restore_s", "s"}, {"snap.bytes", "B"},
		{"core.delivered", "count"}, {"core.lost", "count"}, {"core.joins", "count"},
		{"core.leaves", "count"}, {"core.regrafts", "count"}, {"core.reopts", "count"},
		{"des.epochs", "count"}, {"des.cross_shard_msgs", "count"}, {"des.stall_share", "ratio"},
		{"des.deliveries_per_epoch", "count"}, {"proc.cpu_util", "ratio"},
		{"des.sort_share", "ratio"}, {"runtime.gc_share", "ratio"},
		{"alloc_mb", "MB"}, {"mallocs", "count"}, {"profile.samples", "count"},
		{"trace.run_s", "s"}, {"trace.overhead_s", "s"},
	}
	for _, pkg := range packages {
		m = append(m, metric{pkg + ".self_share", "ratio"})
	}
	for _, ph := range phases {
		m = append(m, metric{"phase." + ph + ".share", "ratio"})
	}
	return m
}()

// minReps is the fewest repetitions a measurement makes, whatever the
// budget.
const minReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 30, "wall-time budget for the measured repetitions")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build/perfbench", "directory for profiles and spans")
	goldenDir := fs.String("write-golden", "", "run once at the default seed and store the fingerprint in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	if *goldenDir != "" {
		if err := recordGolden(*name, *goldenDir); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	b, err := newBench(*name, *seed, false)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := b.useGolden(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, rec, err := measure(b, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is a metric's spread over the repetitions of one run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// repeat runs timed repetitions until the budget would be overrun, with
// at least minReps. Each starts from a collected heap.
func repeat(b *bench, tr *tracer, budget time.Duration) ([]sample, error) {
	start := time.Now()
	var out []sample
	for {
		runtime.GC()
		tr.iter = len(out)
		s, err := b.iterate(tr)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		elapsed := time.Since(start)
		if len(out) >= minReps && elapsed+elapsed/time.Duration(len(out)) > budget {
			return out, nil
		}
	}
}

func summarize(samples []sample) map[string]summary {
	vals := map[string][]float64{}
	for _, s := range samples {
		for k, v := range s {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]summary{}
	for k, vs := range vals {
		q1, med, q3 := quartiles(vs)
		out[k] = summary{Median: med, Q1: q1, Q3: q3, Max: slices.Max(vs), N: len(vs)}
	}
	return out
}

// measure runs the workload and assembles the result line and the record.
func measure(b *bench, budget time.Duration, traced bool, outDir string) (result, map[string]any, error) {
	rec := map[string]any{"workload": b.w.name, "seed": b.seed, "trace": traced,
		"budget_s": budget.Seconds(), "env": environment(b.seed)}
	var metrics map[string]value
	if !traced {
		samples, err := repeat(b, newTracer(false), budget)
		if err != nil {
			return result{}, nil, err
		}
		sum := summarize(samples)
		b.crossCheck(newTracer(false))
		// The heap peak is the run's maximum, not a median: whether a
		// repetition's sampler catches the heap just before a collection
		// depends on GC timing, so per-repetition peaks are bimodal.
		metrics = pick(endToEnd, sum, map[string]float64{"peak_heap_mb": sum["peak_heap_mb"].Max})
		rec["summary"] = sum
	} else {
		var err error
		metrics, err = measureTraced(b, budget, outDir, rec)
		if err != nil {
			return result{}, nil, err
		}
	}
	failedRatio := float64(b.ck.failed) / float64(max(b.ck.attempted, 1))
	rec["failed_ratio"] = failedRatio
	return result{Correct: b.ck.failed == 0 && b.ck.attempted > 0, Attempted: b.ck.attempted,
		Failed: b.ck.failed, Metrics: metrics}, rec, nil
}

// measureTraced spends half the budget untraced and half traced, so the
// tracing overhead is measured in the same process.
func measureTraced(b *bench, budget time.Duration, outDir string, rec map[string]any) (map[string]value, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	untraced, err := repeat(b, newTracer(false), budget/2)
	if err != nil {
		return nil, err
	}
	base := fmt.Sprintf("%s-seed%d", b.w.name, b.seed)
	profPath := filepath.Join(outDir, base+".pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	tr := newTracer(true)
	samples, err := repeat(b, tr, budget/2)
	var probe sample
	if err == nil {
		tr.iter = -1
		probe, err = b.probe(tr)
	}
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	b.crossCheck(tr)

	prof, err := analyzeProfile(profPath)
	if err != nil {
		return nil, err
	}
	spansPath := filepath.Join(outDir, base+".spans.json")
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(spansPath, data, 0o644); err != nil {
		return nil, err
	}

	sum := summarize(samples)
	plain := summarize(untraced)
	extra := map[string]float64{
		"trace.run_s":      sum["run_s"].Median,
		"trace.overhead_s": sum["run_s"].Median - plain["run_s"].Median,
		"des.sort_share":   prof.share(prof.Sort),
		"runtime.gc_share": prof.share(prof.GC),
		"profile.samples":  float64(prof.Samples),
	}
	for k, v := range probe {
		extra[k] = v
	}
	for _, pkg := range packages {
		extra[pkg+".self_share"] = prof.share(prof.Leaf[pkg])
	}
	for _, ph := range phases {
		extra["phase."+ph+".share"] = prof.phaseShare(ph)
	}
	rec["summary"] = sum
	rec["untraced_summary"] = plain
	rec["profile"] = map[string]any{"file": profPath, "samples": prof.Samples, "measured": prof.Measured,
		"largest_package": prof.largest(), "phases": prof.phaseShares()}
	rec["spans"] = map[string]any{"file": spansPath, "count": len(tr.spans)}
	return pick(perLayer, sum, extra), nil
}

// pick reports each metric's median, overridden by extra where present; a
// metric the workload does not exercise reads 0.
func pick(ms []metric, sum map[string]summary, extra map[string]float64) map[string]value {
	out := map[string]value{}
	for _, m := range ms {
		v := sum[m.name].Median
		if x, ok := extra[m.name]; ok {
			v = x
		}
		if math.IsNaN(v) {
			v = 0
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	return out
}

// environment stamps the record with what the numbers depend on.
func environment(seed uint64) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "seed": seed, "commit": commit}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// recordGolden runs one repetition of the workload at the default seed
// and stores its fingerprint.
func recordGolden(name, dir string) error {
	b, err := newBench(name, defaultSeed, false)
	if err != nil {
		return err
	}
	if _, err := b.iterate(newTracer(false)); err != nil {
		return err
	}
	return writeGolden(dir, *b.first)
}
