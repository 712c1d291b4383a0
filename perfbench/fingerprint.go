package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/core"
	"repro/internal/harness"
)

// defaultSeed is the seed the golden fingerprints were recorded at.
const defaultSeed = 1

// fingerprint is the exact simulated outcome of one workload repetition:
// every count and every delay as float64 bits. It must not move under a
// change that claims bit-identical physics.
type fingerprint struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Delivered  uint64      `json:"delivered"`
	Lost       uint64      `json:"lost"`
	Joins      int         `json:"joins"`
	Leaves     int         `json:"leaves"`
	Regrafts   int         `json:"regrafts"`
	Reopts     int         `json:"reopts"`
	ReoptMoves int         `json:"reopt_moves"`
	Epochs     uint64      `json:"epochs,omitempty"`
	CrossMsgs  uint64      `json:"cross_shard_msgs,omitempty"`
	Cells      []cellPrint `json:"cells"`
}

// cellPrint is one session's outcome. A sweep exposes one worst-case delay
// per cell; a session run directly exposes one per group.
type cellPrint struct {
	Cell      string   `json:"cell"`
	Delivered uint64   `json:"delivered,omitempty"`
	Lost      uint64   `json:"lost"`
	Layers    int      `json:"layers"`
	WDBBits   []string `json:"wdb_bits"`
	MeanBits  string   `json:"mean_bits"`
}

func bits(f float64) string { return fmt.Sprintf("%#016x", math.Float64bits(f)) }

// addResult folds one session's result into the fingerprint.
func (f *fingerprint) addResult(cell string, r core.Result) {
	f.Delivered += r.Delivered
	f.Lost += r.Lost
	f.Joins += r.Joins
	f.Leaves += r.Leaves
	f.Regrafts += r.Regrafts
	f.Reopts += r.Reopts
	f.ReoptMoves += r.ReoptMoves
	f.Epochs += r.Epochs
	f.CrossMsgs += r.CrossShardMsgs
	c := cellPrint{Cell: cell, Delivered: r.Delivered, Lost: r.Lost, Layers: r.Layers,
		MeanBits: bits(r.MeanDelay)}
	for _, w := range r.PerGroupWDB {
		c.WDBBits = append(c.WDBBits, bits(w))
	}
	f.Cells = append(f.Cells, c)
}

// sweepFingerprint is the fingerprint of a whole scenario sweep.
func sweepFingerprint(name string, seed uint64, r harness.ScenarioResult) fingerprint {
	f := fingerprint{Workload: name, Seed: seed, Delivered: r.Delivered, Lost: r.Lost,
		Joins: r.Joins, Leaves: r.Leaves, Regrafts: r.Regrafts,
		Reopts: r.Reopts, ReoptMoves: r.ReoptMoves}
	for li, load := range r.Loads {
		for _, c := range r.Curves {
			f.Cells = append(f.Cells, cellPrint{Cell: cellName(c.Combo.String(), load),
				Lost: c.Lost[li], Layers: c.Layers[li],
				WDBBits: []string{bits(c.WDB.Y[li])}, MeanBits: bits(c.MeanDelay.Y[li])})
		}
	}
	return f
}

func cellName(combo string, load float64) string { return fmt.Sprintf("%s@%.2f", combo, load) }

//go:embed golden/*.json
var goldenFS embed.FS

// golden returns the stored fingerprint of a workload at defaultSeed.
func golden(workload string) (fingerprint, error) {
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return fingerprint{}, fmt.Errorf("no golden fingerprint for %s: %w", workload, err)
	}
	var f fingerprint
	if err := json.Unmarshal(data, &f); err != nil {
		return fingerprint{}, fmt.Errorf("golden fingerprint for %s: %w", workload, err)
	}
	return f, nil
}

// writeGolden stores f as the workload's golden fingerprint under dir.
func writeGolden(dir string, f fingerprint) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, f.Workload+".json"), append(data, '\n'), 0o644)
}

// checks counts the correctness checks a run attempted and failed.
type checks struct {
	attempted, failed int
}

// expect records one check; a failure is reported on standard error.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// expectSame records one check that two fingerprints are identical.
func (c *checks) expectSame(what string, got, want fingerprint) {
	same := reflect.DeepEqual(got, want)
	if !same {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		c.expect(false, "%s: fingerprint differs\n  got  %s\n  want %s", what, g, w)
		return
	}
	c.expect(true, "%s", what)
}
