package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// sampledLayers are the packages below System.Fit. The benchmark cannot
// put spans inside them, so their cost is their inclusive share of CPU
// profile samples: a sample counts for every package on its stack.
var sampledLayers = []string{"ml", "pipeline", "preprocess", "search", "ensemble"}

// treeSortFrame marks the tree kernel's per-node feature sort, the
// grid's largest single hotspot.
const treeSortFrame = "orderByFeature"

// profile is a CPU profile being written to f.
type profile struct{ f *os.File }

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{f: f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// shares is a profile aggregated by package: each sampled layer's and
// the tree sort's inclusive share of all samples.
type shares struct {
	layer    map[string]float64
	treeSort float64
	samples  time.Duration
}

// profileShares aggregates the profile at path with the installed
// `go tool pprof`, which prints every sampled stack with its weight.
func profileShares(binary, path string) (shares, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", binary, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return shares{}, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` output: blocks separated by dashed
// lines, each opening with the sample weight and the leaf frame, then
// one caller frame per line.
func parseTraces(out []byte) (shares, error) {
	res := shares{layer: make(map[string]float64)}
	inclusive := make(map[string]time.Duration)
	var sort, total time.Duration
	var weight time.Duration
	var stack []string
	flush := func() {
		if weight == 0 {
			return
		}
		total += weight
		seen := make(map[string]bool)
		sorting := false
		for _, fn := range stack {
			seen[packageOf(fn)] = true
			sorting = sorting || strings.Contains(fn, treeSortFrame)
		}
		for pkg := range seen {
			inclusive[pkg] += weight
		}
		if sorting {
			sort += weight
		}
		weight, stack = 0, stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if !strings.HasPrefix(line, " ") || len(fields) == 0 {
			continue
		}
		if len(fields) >= 2 && weight == 0 && len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return res, fmt.Errorf("pprof traces: sample weight %q: %w", fields[0], err)
			}
			weight = d
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0]) // an inlined frame ends in "(inline)"
	}
	flush()
	if err := sc.Err(); err != nil {
		return res, err
	}
	if total == 0 {
		return res, fmt.Errorf("pprof traces: no samples")
	}
	for _, l := range sampledLayers {
		res.layer[l] = float64(inclusive["repro/internal/"+l]) / float64(total)
	}
	res.treeSort = float64(sort) / float64(total)
	res.samples = total
	return res, nil
}

// packageOf returns the import path of a symbolized Go function name,
// e.g. "repro/internal/ml" for "repro/internal/ml.(*treeCore).fit".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// gcSample is the runtime's cumulative GC CPU time, total CPU time, GC
// cycles and heap bytes allocated; a phase's cost is the delta of two.
type gcSample struct {
	gcCPU, totalCPU, cycles, allocBytes float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return gcSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}

func (a gcSample) sub(b gcSample) gcSample {
	return gcSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.cycles - b.cycles, a.allocBytes - b.allocBytes}
}
