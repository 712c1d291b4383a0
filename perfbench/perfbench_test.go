package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
}

func TestGoldenPerWorkload(t *testing.T) {
	for _, w := range workloads {
		g, err := golden(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Workload != w.name || g.Seed != defaultSeed || g.Delivered == 0 || len(g.Cells) == 0 {
			t.Errorf("%s: golden fingerprint is %s at seed %d with %d deliveries in %d cells",
				w.name, g.Workload, g.Seed, g.Delivered, len(g.Cells))
		}
	}
}

// TestSmallRunsReportEveryMetric runs each workload at a tenth of its hosts
// for a short budget, untraced and traced, and checks that every metric is
// printed with its unit and every check passes.
func TestSmallRunsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			b, err := newBench(w.name, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			res, rec, err := measure(b, time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, v, m.unit)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
				continue
			}
			if res.Metrics["profile.samples"].Value <= 0 {
				t.Errorf("%s: traced run took no profile samples", w.name)
			}
			if _, ok := rec["profile"]; !ok {
				t.Errorf("%s: traced record has no profile section", w.name)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 {
				t.Errorf("%s: result line has keys %v, want correct, attempted, failed, metrics", w.name, keys)
			}
		}
	}
}

// TestTamperedFingerprintFails checks the golden comparison: a repetition
// matching its fingerprint passes, and one bit flipped in a stored delay
// makes the next repetition fail.
func TestTamperedFingerprintFails(t *testing.T) {
	b, err := newBench("scale-64", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.iterate(newTracer(false)); err != nil {
		t.Fatal(err)
	}
	good := *b.first
	b.gold = &good
	if _, err := b.iterate(newTracer(false)); err != nil {
		t.Fatal(err)
	}
	if b.ck.failed != 0 {
		t.Fatalf("untampered fingerprint failed %d checks", b.ck.failed)
	}
	bad := good
	bad.Cells = append([]cellPrint(nil), good.Cells...)
	bad.Cells[0].WDBBits = append([]string(nil), good.Cells[0].WDBBits...)
	bad.Cells[0].WDBBits[0] = bits(0.5)
	b.gold = &bad
	if _, err := b.iterate(newTracer(false)); err != nil {
		t.Fatal(err)
	}
	if b.ck.failed != 1 {
		t.Fatalf("tampered fingerprint failed %d checks, want 1", b.ck.failed)
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: samples
-----------+-------------------------------------------------------
     phase:  traffic
         3   repro/internal/des.sortReady
             repro/internal/des.(*Engine).fill
-----------+-------------------------------------------------------
         2   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     phase:  drain
         5   repro/internal/mux.(*Mux).Push (inline)
             repro/internal/core.(*Session).receive
-----------+-------------------------------------------------------
     phase:  check
         4   repro/internal/des.sortReady
-----------+-------------------------------------------------------
`)
	p, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if p.Samples != 14 || p.Measured != 10 || p.ByPhase["check"]["des"] != 4 ||
		p.Leaf["des"] != 3 || p.Leaf["runtime"] != 2 || p.Leaf["mux"] != 5 ||
		p.Sort != 3 || p.GC != 2 || p.ByPhase["drain"]["mux"] != 5 || p.largest() != "mux" {
		t.Fatalf("parsed %+v", p)
	}
}

// TestZeroSeedIsDefault pins seed 0 to the default seed, as the sweep
// harness reads it, so the sweep and the benchmark's own cells agree.
func TestZeroSeedIsDefault(t *testing.T) {
	b, err := newBench("sweep-16", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if b.seed != defaultSeed {
		t.Fatalf("seed 0 resolved to %d, want %d", b.seed, defaultSeed)
	}
}
