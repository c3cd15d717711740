package bench

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/openml"
)

// benchGridCfg is a small but non-trivial grid: 2 datasets × 2 seeds ×
// 1 budget over the full system lineup (~28 cells), big enough that the
// worker pool has work to schedule and small enough for -benchtime=1x
// smoke runs.
func benchGridCfg(workers int) Config {
	return Config{
		Datasets: openml.Suite()[:2],
		Budgets:  []time.Duration{10 * time.Second},
		Seeds:    2,
		Workers:  workers,
	}
}

func benchmarkRunGrid(b *testing.B, workers int) {
	systems := DefaultSystems()
	cfg := benchGridCfg(workers)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		records := mustRunGrid(b, systems, cfg)
		if len(records) == 0 {
			b.Fatal("empty grid")
		}
	}
}

// BenchmarkRunGridSerial pins the single-worker baseline.
func BenchmarkRunGridSerial(b *testing.B) { benchmarkRunGrid(b, 1) }

// BenchmarkRunGridParallel runs the same grid on the full worker pool;
// the serial/parallel ratio is the scheduler's speedup on this machine.
func BenchmarkRunGridParallel(b *testing.B) { benchmarkRunGrid(b, runtime.NumCPU()) }

// BenchmarkRunGridParallel8 fixes the pool at 8 workers — the ratio to
// BenchmarkRunGridSerial is comparable across machines.
func BenchmarkRunGridParallel8(b *testing.B) { benchmarkRunGrid(b, 8) }

// BenchmarkSweepEndToEnd is the end-to-end cost of a small sweep:
// grid plus the paper's bootstrap aggregation, as an experiment driver
// would run it.
func BenchmarkSweepEndToEnd(b *testing.B) {
	systems := DefaultSystems()
	cfg := benchGridCfg(0) // default worker pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		records := mustRunGrid(b, systems, cfg)
		stats := Aggregate(records, rand.New(rand.NewPCG(1, 2)))
		if len(stats) == 0 {
			b.Fatal("empty aggregation")
		}
	}
}
