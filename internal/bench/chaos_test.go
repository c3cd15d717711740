package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/automl"
	"repro/internal/faults"
	"repro/internal/openml"
	"repro/internal/repo"
)

// chaosSystems keeps the chaos grids small enough to rerun dozens of
// times per test: two systems, two datasets, one budget, two seeds.
func chaosSystems() []automl.System { return DefaultSystems()[:2] }

// chaosCfg is the crash-chaos grid: crash/error faults plus injected
// hangs under a fast watchdog, on deliberately tiny datasets. The fault
// seed is pinned so the baseline grid contains at least one stalled
// cell (asserted by the tests that rely on it).
func chaosCfg() Config {
	return Config{
		Datasets: openml.Suite()[:2],
		Budgets:  []time.Duration{10 * time.Second},
		Seeds:    2,
		Scale: openml.ScaleProfile{
			RowExponent: 0.3, MinRows: 60, MaxRows: 90,
			FeatureExponent: 0.3, MinFeatures: 4, MaxFeatures: 8,
			MaxClasses: 4,
		},
		Faults:   faults.Config{Rate: 0.25, HangRate: 0.2, Seed: 11},
		Watchdog: WatchdogPolicy{Probes: 2, Interval: 5 * time.Millisecond},
	}
}

// chaosKill returns a crash hook that kills the run at its seq-th store
// write by calling die, after leaving the store in the state the mode
// names:
//
//   - start: before any byte of the cell is written;
//   - torn: the cell's temp file half-written, never renamed;
//   - written: the temp file complete and synced, never renamed;
//   - synced: the cell renamed into place and durable.
//
// torn and written let the write finish and then rewind its rename, so
// the temp file beside the cell holds exactly the bytes a kill inside
// atomicio's write would have left. ok is false for an unknown mode.
func chaosKill(mode string, seq int, die func() error) (hook crashFn, ok bool) {
	point := crashStoreDone
	switch mode {
	case "start":
		point = crashStoreStart
	case "torn", "written", "synced":
	default:
		return nil, false
	}
	return func(p string, s int, path string) error {
		if p != point || s != seq {
			return nil
		}
		if mode == "torn" || mode == "written" {
			tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp-killed")
			if err := os.Rename(path, tmp); err != nil {
				return err
			}
			if mode == "torn" {
				fi, err := os.Stat(tmp)
				if err != nil {
					return err
				}
				if err := os.Truncate(tmp, fi.Size()/2); err != nil {
					return err
				}
			}
		}
		return die()
	}, true
}

// chaosKiller simulates the process dying at one deterministic store
// crash point (see chaosKill for the modes): before the fatal write
// nothing is affected, and every write after it fails immediately — a
// dead process writes nothing more. Parallel workers consult it
// concurrently, hence the atomics.
type chaosKiller struct {
	dead, fired atomic.Bool
	kill        crashFn
}

func newChaosKiller(t *testing.T, mode string, at int) *chaosKiller {
	k := &chaosKiller{}
	kill, ok := chaosKill(mode, at, func() error {
		k.dead.Store(true)
		k.fired.Store(true)
		return errors.New("chaos: killed in mode " + mode)
	})
	if !ok {
		t.Fatalf("unknown chaos mode %q", mode)
	}
	k.kill = kill
	return k
}

func (k *chaosKiller) hook(point string, seq int, path string) error {
	if k.dead.Load() {
		return errors.New("chaos: store belongs to a dead process")
	}
	return k.kill(point, seq, path)
}

// chaosExports renders the artifacts greenbench would write from the
// records: CSV, JSON, and the fig3 SVG chart.
func chaosExports(t *testing.T, records []Record) (csv, js, svg []byte) {
	t.Helper()
	var csvBuf, jsBuf, svgBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, records); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsBuf, records); err != nil {
		t.Fatal(err)
	}
	stats := Aggregate(records, rand.New(rand.NewPCG(9, 9)))
	if err := WriteFig3SVG(&svgBuf, stats, false); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), jsBuf.Bytes(), svgBuf.Bytes()
}

// TestChaosKillResumeByteIdentical is the crash-chaos contract: a run
// killed at every deterministic store crash point — before the write,
// with the cell's temp file torn, with it complete but never renamed,
// and after the rename — and then resumed against the same store must
// yield records and CSV/JSON/SVG exports byte-identical to an
// uninterrupted run, at worker counts 1 and 4.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	cfg := chaosCfg()
	want := mustRunGrid(t, chaosSystems(), withWorkers(cfg, 1))
	stalls := 0
	for _, r := range want {
		if r.Failure == faults.Stall {
			stalls++
			if !r.Fallback || !r.Scored() {
				t.Fatalf("%s/%s: stalled cell must degrade to a scored fallback: %+v", r.System, r.Dataset, r)
			}
		}
	}
	if stalls == 0 {
		t.Fatal("chaos baseline has no stalled cells — retune chaosCfg's hang rate or fault seed")
	}
	wantCSV, wantJSON, wantSVG := chaosExports(t, want)
	writes := len(want) // every cell is stored exactly once in an uninterrupted run

	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"start", "torn", "written", "synced"} {
			// The torn-write mode — the trickiest recovery — is swept at
			// every write; the cleaner kills sample first/middle/last to
			// keep the matrix affordable under -race.
			seqs := []int{0, writes / 2, writes - 1}
			if mode == "torn" {
				seqs = seqs[:0]
				for at := 0; at < writes; at++ {
					seqs = append(seqs, at)
				}
			}
			for _, at := range seqs {
				name := fmt.Sprintf("workers=%d/%s/write=%d", workers, mode, at)
				scfg := withStore(withWorkers(cfg, workers), openTestRepo(t, repo.Options{}))
				kill := newChaosKiller(t, mode, at)
				_, _, err := runGrid(chaosSystems(), scfg, kill.hook)
				if err == nil || !kill.fired.Load() {
					t.Fatalf("%s: kill did not abort the run (err=%v, fired=%v)", name, err, kill.fired.Load())
				}

				got, _, err := runGrid(chaosSystems(), scfg, nil)
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: resumed records differ from the uninterrupted run", name)
				}
				csv, js, svg := chaosExports(t, got)
				if !bytes.Equal(csv, wantCSV) || !bytes.Equal(js, wantJSON) || !bytes.Equal(svg, wantSVG) {
					t.Fatalf("%s: resumed exports are not byte-identical", name)
				}
			}
		}
	}
}

// TestChaosTornCellIgnoredAndRerun pins what a kill mid-write leaves
// behind: a half-written ".<hash>.cell.tmp-*" beside the cells. Walk,
// Get and MergeStores must all ignore it — the cell reads as missing,
// never as damage — and the resumed run must execute that cell again.
func TestChaosTornCellIgnoredAndRerun(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	rp := openTestRepo(t, repo.Options{})
	scfg := withStore(withWorkers(cfg, 1), rp)
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	const at = 2
	if _, _, err := runGrid(systems, scfg, newChaosKiller(t, "torn", at).hook); err == nil {
		t.Fatal("torn kill did not abort the run")
	}
	torn, err := filepath.Glob(filepath.Join(rp.Dir(), fingerprint, ".*.cell.tmp-*"))
	if err != nil || len(torn) != 1 {
		t.Fatalf("want exactly one torn temp file beside the cells, got %v (err %v)", torn, err)
	}
	tornCell := refs[at] // workers=1 writes cells in grid order
	if !strings.HasPrefix(filepath.Base(torn[0]), "."+filepath.Base(rp.CellPath(fingerprint, tornCell.ID()))+".tmp-") {
		t.Fatalf("torn temp %s does not sit beside cell %s", torn[0], tornCell.ID())
	}

	walked := 0
	if damaged, err := rp.Walk(func(*repo.Entry) error { walked++; return nil }); err != nil || damaged != 0 || walked != at {
		t.Errorf("Walk saw %d cells, %d damaged (err %v), want the %d intact ones", walked, damaged, err, at)
	}
	if e, damaged, err := rp.Get(fingerprint, tornCell.ID()); e != nil || damaged || err != nil {
		t.Errorf("Get of the torn cell = (%v, %v, %v), want a clean miss", e, damaged, err)
	}
	merged, err := MergeStores([]*repo.Repository{rp}, fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Damaged != 0 || len(merged.Missing) != len(refs)-at || merged.Missing[0] != tornCell {
		t.Errorf("merge saw %d damaged and %d missing (first %v), want 0 damaged and the torn cell first of %d missing",
			merged.Damaged, len(merged.Missing), merged.Missing, len(refs)-at)
	}

	got, stats, err := runGrid(systems, scfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (RepoStats{Hits: at, Misses: len(refs) - at, Stored: len(refs) - at}) {
		t.Errorf("resume stats %+v, want %d hits and the torn cell among %d reruns", stats, at, len(refs)-at)
	}
	if !reflect.DeepEqual(got, mustRunGrid(t, systems, withWorkers(cfg, 1))) {
		t.Error("resumed records differ from an uninterrupted run")
	}
}

// TestWatchdogReclaimsHangCells injects a hang into every Fit attempt:
// the watchdog must reclaim each cell (recorded as a stall, charged the
// budget it burned, scored by the fallback) without wedging the worker
// pool, and identically at worker counts 1 and 4.
func TestWatchdogReclaimsHangCells(t *testing.T) {
	cfg := chaosCfg()
	cfg.Faults = faults.Config{HangRate: 1, Seed: 3}
	want := mustRunGrid(t, chaosSystems(), withWorkers(cfg, 1))
	if n := expectedCells(chaosSystems(), cfg); len(want) != n {
		t.Fatalf("got %d records, want %d — stalled cells must not shrink the grid", len(want), n)
	}
	for _, r := range want {
		if r.Failure != faults.Stall {
			t.Fatalf("%s/%s: failure %q, want stall", r.System, r.Dataset, r.Failure)
		}
		if !r.Fallback || !r.Scored() || r.TestScore <= 0 {
			t.Fatalf("%s/%s: stalled cell must yield a scored fallback: %+v", r.System, r.Dataset, r)
		}
		if r.ExecKWh <= 0 || r.ExecTime <= 0 {
			t.Errorf("%s/%s: the budget a hang burned before abandonment must stay charged: %v kWh, %v",
				r.System, r.Dataset, r.ExecKWh, r.ExecTime)
		}
		if r.Attempts != 1 {
			t.Errorf("%s/%s: stalled cell retried (%d attempts); a wedged trainer must degrade, not retry",
				r.System, r.Dataset, r.Attempts)
		}
	}
	got := mustRunGrid(t, chaosSystems(), withWorkers(cfg, 4))
	if !reflect.DeepEqual(got, want) {
		t.Error("stall records differ between worker counts — abandonment leaked real time into the records")
	}
}

// TestChaosExportCrashLeavesOldArtifact covers the export-boundary
// crash point: a re-render that dies partway through must leave the
// previous artifact byte-intact under the final name and no temp
// litter behind.
func TestChaosExportCrashLeavesOldArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig3.svg")
	records := []Record{{System: "S", Dataset: "d", Budget: time.Second, TestScore: 0.5}}
	stats := Aggregate(records, rand.New(rand.NewPCG(1, 2)))
	if err := WriteSVGFile(path, func(w io.Writer) error { return WriteFig3SVG(w, stats, false) }); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("chaos: render killed mid-export")
	err = WriteSVGFile(path, func(w io.Writer) error {
		if _, werr := w.Write([]byte("<svg>torn")); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed render returned %v, want the render error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed re-render corrupted the previous artifact")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("failed export left temp litter: %d directory entries", len(entries))
	}
}
