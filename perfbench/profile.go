package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// packages are the layers profile samples are attributed to, by the
// package of the sample's leaf frame. Leaves outside repro/internal count
// as "runtime" or "other".
var packages = []string{"des", "regulator", "mux", "netsim", "core", "snap", "stats",
	"traffic", "overlay", "topo", "scenario", "harness", "xrand", "calculus", "runtime", "other"}

// phases are the pprof labels the tracer puts on the benchmark's calls.
var phases = []string{"setup", "sweep", "traffic", "drain", "snapshot", "restore", "check"}

// gcFrames mark a sample as garbage-collector work wherever they appear
// in its stack.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.deductSweepCredit", "runtime.GC"}

// profileSummary is the CPU profile attributed to layers and phases.
//
// Samples in the "check" phase (reference runs that verify an outcome but
// are not part of any timed metric) count in ByPhase only; the package,
// sort and GC counts and their shares cover the Measured samples.
type profileSummary struct {
	Samples, Measured int
	// Leaf counts samples by the package of their leaf frame; ByPhase
	// splits them further by phase label ("" for unlabelled samples).
	Leaf    map[string]int
	ByPhase map[string]map[string]int
	Sort    int // leaf in des.sortReady or des.eventLess
	GC      int // samples with a garbage-collector frame
}

// share is n as a fraction of the measured samples.
func (p profileSummary) share(n int) float64 {
	if p.Measured == 0 {
		return 0
	}
	return float64(n) / float64(p.Measured)
}

// phaseShare is a phase's fraction of all samples.
func (p profileSummary) phaseShare(phase string) float64 {
	n := 0
	for _, c := range p.ByPhase[phase] {
		n += c
	}
	if p.Samples == 0 {
		return 0
	}
	return float64(n) / float64(p.Samples)
}

// largest names the package with the most leaf samples.
func (p profileSummary) largest() string {
	best := ""
	for _, pkg := range packages {
		if best == "" || p.Leaf[pkg] > p.Leaf[best] {
			best = pkg
		}
	}
	return best
}

// analyzeProfile reads a CPU profile through "go tool pprof -traces".
func analyzeProfile(path string) (profileSummary, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return profileSummary{}, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return parseTraces(out)
}

var (
	labelLine = regexp.MustCompile(`^\s*(\w+):\s+(.*)$`)
	valueLine = regexp.MustCompile(`^\s*(\d+)\s+(\S.*)$`)
)

// parseTraces attributes the samples of pprof's -traces listing. Each
// trace is a separator line, its label lines, then its sample count beside
// the leaf frame, then the callers one per line.
func parseTraces(out []byte) (profileSummary, error) {
	p := profileSummary{Leaf: map[string]int{}, ByPhase: map[string]map[string]int{}}
	var (
		inTrace bool
		phase   string
		count   int
		frames  []string
	)
	flush := func() {
		if count == 0 || len(frames) == 0 {
			return
		}
		pkg := packageOf(frames[0])
		p.Samples += count
		if p.ByPhase[phase] == nil {
			p.ByPhase[phase] = map[string]int{}
		}
		p.ByPhase[phase][pkg] += count
		if phase == "check" {
			return
		}
		p.Measured += count
		p.Leaf[pkg] += count
		if frames[0] == "repro/internal/des.sortReady" || frames[0] == "repro/internal/des.eventLess" {
			p.Sort += count
		}
		for _, f := range frames {
			if isGC(f) {
				p.GC += count
				break
			}
		}
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTrace, phase, count, frames = true, "", 0, nil
			continue
		}
		if !inTrace || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		switch {
		case count == 0 && labelLine.MatchString(line):
			m := labelLine.FindStringSubmatch(line)
			if m[1] == "phase" {
				phase = strings.TrimSpace(m[2])
			}
		case count == 0:
			m := valueLine.FindStringSubmatch(line)
			if m == nil {
				return p, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			n, err := strconv.Atoi(m[1])
			if err != nil {
				return p, err
			}
			count = n
			frames = append(frames, strings.TrimSuffix(m[2], " (inline)"))
		default:
			frames = append(frames, frame)
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return p, err
	}
	if p.Samples == 0 {
		return p, fmt.Errorf("pprof -traces: no samples")
	}
	return p, nil
}

// packageOf maps a frame's function name to its layer.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, pkg := range packages {
			if pkg == rest {
				return pkg
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal") {
		return "runtime"
	}
	return "other"
}

func isGC(fn string) bool {
	for _, g := range gcFrames {
		if fn == g {
			return true
		}
	}
	return false
}

// phaseShares is each phase's share of the samples and each package's
// share within that phase, for the record.
func (p profileSummary) phaseShares() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	keys := make([]string, 0, len(p.ByPhase))
	for ph := range p.ByPhase {
		keys = append(keys, ph)
	}
	sort.Strings(keys)
	for _, ph := range keys {
		name := ph
		if name == "" {
			name = "unlabelled"
		}
		total := 0
		for _, n := range p.ByPhase[ph] {
			total += n
		}
		m := map[string]float64{"share": p.phaseShare(ph)}
		for pkg, n := range p.ByPhase[ph] {
			m[pkg] = float64(n) / float64(total)
		}
		out[name] = m
	}
	return out
}
