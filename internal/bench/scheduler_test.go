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
				records := mustRunGrid(t, DefaultSystems(), withWorkers(cfg, n))
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

// TestStoreWriteFailureDrainsWorkers kills the store (every write past
// the third fails, as a dying disk would) at one worker and at four: the
// run must surface the error with no records, every worker goroutine
// must drain rather than leak, and the cells that landed before the
// failure must still resume to the full grid.
func TestStoreWriteFailureDrainsWorkers(t *testing.T) {
	want := mustRunGrid(t, DefaultSystems(), faultCfg(0.3, 4))
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		cfg := withWorkers(withStore(faultCfg(0.3, 4), openTestRepo(t, repo.Options{})), workers)
		failing := func(point string, seq int, _ string) error {
			if point == crashStoreStart && seq >= 3 {
				return errors.New("injected store device failure")
			}
			return nil
		}
		records, _, err := runGrid(DefaultSystems(), cfg, failing)
		if err == nil || !strings.Contains(err.Error(), "store device failure") {
			t.Fatalf("workers=%d: store failure returned %v, want the injected device error", workers, err)
		}
		if records != nil {
			t.Fatalf("workers=%d: store failure returned %d records alongside its error, want none", workers, len(records))
		}

		// The worker pool must have drained: give lingering goroutines a
		// moment to unwind, then require the count to settle near where
		// it started.
		settled := false
		for i := 0; i < 200 && !settled; i++ {
			settled = runtime.NumGoroutine() <= before+2
			if !settled {
				//greenlint:allow wallclock test-only settle poll while goroutines unwind; nothing measured
				time.Sleep(5 * time.Millisecond)
			}
		}
		if n := runtime.NumGoroutine(); !settled {
			t.Fatalf("workers=%d: worker goroutines leaked after store failure: %d before the run, %d after", workers, before, n)
		}

		// The store holds the three cells that beat the failure;
		// resuming from it must reproduce the uninterrupted grid.
		got, stats, err := runGrid(DefaultSystems(), withWorkers(cfg, 4), nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Hits != 3 {
			t.Errorf("workers=%d: resume replayed %d cells, want the 3 stored before the failure", workers, stats.Hits)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: resume from the partial store differs from an uninterrupted run", workers)
		}
	}
}
