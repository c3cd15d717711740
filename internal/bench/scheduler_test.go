package bench

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/openml"
	"repro/internal/repo"
)

// withWorkers returns cfg pinned to a worker count.
func withWorkers(cfg Config, n int) Config {
	cfg.Workers = n
	return cfg
}

// TestParallelGridIsByteIdentical is the scheduler's determinism
// contract: the records — and therefore the CSV and JSON exports built
// from them — must be byte-identical at every worker count, for clean
// and fault-injected grids alike.
func TestParallelGridIsByteIdentical(t *testing.T) {
	configs := map[string]Config{
		"clean": {
			Datasets: openml.Suite()[:3],
			Budgets:  []time.Duration{10 * time.Second, time.Minute},
			Seeds:    2,
		},
		"faults": faultCfg(0.3, 4),
	}
	counts := []int{1, 4, runtime.NumCPU()}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			var wantCSV, wantJSON []byte
			var want []Record
			for _, n := range counts {
				records := RunGrid(DefaultSystems(), withWorkers(cfg, n))
				var csv, js bytes.Buffer
				if err := WriteCSV(&csv, records); err != nil {
					t.Fatal(err)
				}
				if err := WriteJSON(&js, records); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want, wantCSV, wantJSON = records, csv.Bytes(), js.Bytes()
					continue
				}
				if !reflect.DeepEqual(records, want) {
					t.Fatalf("workers=%d records differ from workers=%d", n, counts[0])
				}
				if !bytes.Equal(csv.Bytes(), wantCSV) {
					t.Fatalf("workers=%d CSV export differs from workers=%d", n, counts[0])
				}
				if !bytes.Equal(js.Bytes(), wantJSON) {
					t.Fatalf("workers=%d JSON export differs from workers=%d", n, counts[0])
				}
			}
		})
	}
}

// TestParallelResumeAfterKill kills a serial run mid-grid (the store is
// cut to a few intact cells plus a torn temp file) and resumes it with
// a parallel worker pool. The resumed records must match the
// uninterrupted serial run exactly: replay looks cells up by identity,
// whatever order they reached the store in.
func TestParallelResumeAfterKill(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := withStore(faultCfg(0.3, 4), rp)
	want, _, err := runGrid(DefaultSystems(), withWorkers(cfg, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	missing := cutStore(t, rp, Fingerprint(DefaultSystems(), cfg), 4)

	got, stats, err := runGrid(DefaultSystems(), withWorkers(cfg, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("parallel resume differs from the uninterrupted serial run")
	}
	if stats.Misses != missing {
		t.Errorf("parallel resume executed %d cells, want the %d missing ones", stats.Misses, missing)
	}

	// The store now holds every cell; a fresh resume at yet another
	// worker count replays it without executing anything.
	again, stats, err := runGrid(DefaultSystems(), withWorkers(cfg, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) || stats.Misses != 0 {
		t.Errorf("fully stored parallel rerun differs from the original records (stats %+v)", stats)
	}
}

// TestWorkersNotInFingerprint pins the design decision that the worker
// count is a throughput knob, not part of the grid's identity: a store
// filled at one count must resume at any other.
func TestWorkersNotInFingerprint(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	base := Fingerprint(DefaultSystems(), withWorkers(cfg, 1))
	for _, n := range []int{2, 8, 0} {
		if Fingerprint(DefaultSystems(), withWorkers(cfg, n)) != base {
			t.Fatalf("workers=%d changed the grid fingerprint", n)
		}
	}
}

// withCellParallelism returns cfg pinned to a within-cell parallelism.
func withCellParallelism(cfg Config, n int) Config {
	cfg.Parallelism = n
	return cfg
}

// TestGridParallelismInvariance is the within-cell counterpart of
// TestParallelGridIsByteIdentical: records and exports must be
// byte-identical at every kernel parallelism level, for clean and
// fault-injected grids alike. Together with the ml package's
// parallelism-equivalence suite this closes the determinism chain from
// kernel float ops up to exported bytes.
func TestGridParallelismInvariance(t *testing.T) {
	configs := map[string]Config{
		"clean": {
			Datasets: openml.Suite()[:3],
			Budgets:  []time.Duration{10 * time.Second, time.Minute},
			Seeds:    2,
		},
		"faults": faultCfg(0.3, 4),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			var wantCSV, wantJSON []byte
			var want []Record
			for _, p := range []int{1, 2, 4} {
				records := RunGrid(DefaultSystems(), withCellParallelism(cfg, p))
				var csv, js bytes.Buffer
				if err := WriteCSV(&csv, records); err != nil {
					t.Fatal(err)
				}
				if err := WriteJSON(&js, records); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want, wantCSV, wantJSON = records, csv.Bytes(), js.Bytes()
					continue
				}
				if !reflect.DeepEqual(records, want) {
					t.Fatalf("parallelism=%d records differ from parallelism=1", p)
				}
				if !bytes.Equal(csv.Bytes(), wantCSV) {
					t.Fatalf("parallelism=%d CSV export differs from parallelism=1", p)
				}
				if !bytes.Equal(js.Bytes(), wantJSON) {
					t.Fatalf("parallelism=%d JSON export differs from parallelism=1", p)
				}
			}
		})
	}
}

// TestParallelismNotInFingerprint pins the design decision that the
// within-cell parallelism level, like Workers, is a throughput knob and
// not part of the grid's identity: a store filled at one level must
// resume at any other.
func TestParallelismNotInFingerprint(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	base := Fingerprint(DefaultSystems(), withCellParallelism(cfg, 1))
	for _, p := range []int{2, 8, 0} {
		if Fingerprint(DefaultSystems(), withCellParallelism(cfg, p)) != base {
			t.Fatalf("parallelism=%d changed the grid fingerprint", p)
		}
	}
}

// TestCellParallelismAuto checks the automatic budget: explicit values
// win, saturated grids stay sequential per cell, and idle workers are
// split across the cells that remain.
func TestCellParallelismAuto(t *testing.T) {
	mkCells := func(uncached, cached int) []gridCell {
		cells := make([]gridCell, 0, uncached+cached)
		for i := 0; i < uncached; i++ {
			cells = append(cells, gridCell{})
		}
		for i := 0; i < cached; i++ {
			cells = append(cells, gridCell{cached: &Record{}})
		}
		return cells
	}
	cases := []struct {
		name             string
		parallelism      int
		workers          int
		uncached, cached int
		want             int
	}{
		{name: "explicit wins", parallelism: 3, workers: 8, uncached: 100, want: 3},
		{name: "saturated grid stays sequential", workers: 4, uncached: 16, want: 1},
		{name: "idle workers split across tail", workers: 8, uncached: 2, cached: 30, want: 4},
		{name: "single live cell gets everything", workers: 8, uncached: 1, cached: 63, want: 8},
		{name: "fully cached grid is moot", workers: 8, cached: 10, want: 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Parallelism: tc.parallelism, Workers: tc.workers}
			if got := cellParallelism(cfg, mkCells(tc.uncached, tc.cached)); got != tc.want {
				t.Fatalf("cellParallelism = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestStoreWriteFailureDrainsWorkers kills the store (every write past
// the third fails, as a dying disk would) under a parallel run: the run
// must surface the error, every worker goroutine must drain rather than
// leak, and the cells that landed before the failure must still resume
// to the full grid.
func TestStoreWriteFailureDrainsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := withStore(faultCfg(0.3, 4), openTestRepo(t, repo.Options{}))
	failing := func(point string, seq int, _ string) error {
		if point == crashStoreStart && seq >= 3 {
			return errors.New("injected store device failure")
		}
		return nil
	}
	_, _, err := runGrid(DefaultSystems(), withWorkers(cfg, 4), failing)
	if err == nil || !strings.Contains(err.Error(), "store device failure") {
		t.Fatalf("store failure returned %v, want the injected device error", err)
	}

	// The worker pool must have drained: give lingering goroutines a
	// moment to unwind, then require the count to settle near where it
	// started.
	settled := false
	for i := 0; i < 200 && !settled; i++ {
		settled = runtime.NumGoroutine() <= before+2
		if !settled {
			//greenlint:allow wallclock test-only settle poll while goroutines unwind; nothing measured
			time.Sleep(5 * time.Millisecond)
		}
	}
	if n := runtime.NumGoroutine(); !settled {
		t.Fatalf("worker goroutines leaked after store failure: %d before the run, %d after", before, n)
	}

	// The store holds the three cells that beat the failure; resuming
	// from it must reproduce the uninterrupted grid.
	got, stats, err := runGrid(DefaultSystems(), withWorkers(cfg, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 3 {
		t.Errorf("resume replayed %d cells, want the 3 stored before the failure", stats.Hits)
	}
	if !reflect.DeepEqual(got, RunGrid(DefaultSystems(), faultCfg(0.3, 4))) {
		t.Error("resume from the partial store differs from an uninterrupted run")
	}
}
