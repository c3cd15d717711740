package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/repo"
)

// withStore returns cfg writing into (and replaying from) rp.
func withStore(cfg Config, rp *repo.Repository) Config {
	cfg.Repo = rp
	return cfg
}

// cellFiles lists the grid's cell files in the store, sorted by name;
// atomicio temp files beside them are not cells and are left out.
func cellFiles(t *testing.T, rp *repo.Repository, fingerprint string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(rp.Dir(), fingerprint, "*.cell"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	return matches
}

// cutStore turns a complete store into the one a run killed mid-grid
// leaves: the first keep cells survive, the next one is torn — half of
// its bytes under an atomicio temp name, nothing under the cell's own
// name — and the rest were never written. It returns how many cells the
// resume must execute.
func cutStore(t *testing.T, rp *repo.Repository, fingerprint string, keep int) int {
	t.Helper()
	cells := cellFiles(t, rp, fingerprint)
	if len(cells) <= keep+1 {
		t.Fatalf("store holds only %d cells", len(cells))
	}
	torn := cells[keep]
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(filepath.Dir(torn), "."+filepath.Base(torn)+".tmp-1234")
	if err := os.WriteFile(tmp, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range cells[keep:] {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	return len(cells) - keep
}

// TestResumableMatchesPlainRun: a run against a store yields the plain
// run's records, and a second run replays all of them from the store.
func TestResumableMatchesPlainRun(t *testing.T) {
	cfg := withStore(faultCfg(0.3, 4), openTestRepo(t, repo.Options{}))
	want := mustRunGrid(t, DefaultSystems(), faultCfg(0.3, 4))
	got, err := RunShard(DefaultSystems(), cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want) {
		t.Error("run against a store differs from a plain run")
	}
	again, err := RunShard(DefaultSystems(), cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Records, want) {
		t.Error("fully stored rerun differs from the original records")
	}
	if again.Repo != (RepoStats{Hits: len(want)}) {
		t.Errorf("rerun stats %+v, want %d pure hits", again.Repo, len(want))
	}
}

// TestResumeAfterKill simulates a run killed mid-grid: the store keeps
// a few cells, one torn temp file, and nothing else. Resuming is a warm
// replay that executes exactly the missing cells and must reproduce the
// uninterrupted run's records.
func TestResumeAfterKill(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := withStore(faultCfg(0.3, 4), rp)
	want, _, err := runGrid(DefaultSystems(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	missing := cutStore(t, rp, Fingerprint(DefaultSystems(), cfg), 4)

	got, stats, err := runGrid(DefaultSystems(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("killed-then-resumed run differs from the uninterrupted run")
	}
	if stats != (RepoStats{Hits: len(want) - missing, Misses: missing, Stored: missing}) {
		t.Errorf("resume stats %+v, want %d hits and %d misses re-stored", stats, len(want)-missing, missing)
	}
}

// TestStoreIsolatesOtherGrid: cells live under their grid's
// fingerprint, so a store filled by one grid never replays into a
// different one — the other grid misses everywhere, runs live, and
// lands under its own fingerprint beside the first.
func TestStoreIsolatesOtherGrid(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := withStore(faultCfg(0.3, 4), rp)
	if _, _, err := runGrid(DefaultSystems(), cfg, nil); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seeds = 3
	got, stats, err := runGrid(DefaultSystems(), other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 0 || stats.Misses != len(got) {
		t.Errorf("a different grid replayed cells of the stored one: %+v", stats)
	}
	other.Repo = nil
	if !reflect.DeepEqual(got, mustRunGrid(t, DefaultSystems(), other)) {
		t.Error("the other grid's records differ from a plain run of it")
	}
	if fps, err := rp.Fingerprints(); err != nil || len(fps) != 2 {
		t.Errorf("store fingerprints %v (err %v), want both grids side by side", fps, err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	base := Fingerprint(DefaultSystems(), cfg)
	if base != Fingerprint(DefaultSystems(), cfg) {
		t.Error("fingerprint is not deterministic")
	}
	altered := cfg
	altered.Faults.Seed++
	if Fingerprint(DefaultSystems(), altered) == base {
		t.Error("fault seed change did not alter the fingerprint")
	}
	altered = cfg
	altered.Retry.MaxAttempts = 7
	if Fingerprint(DefaultSystems(), altered) == base {
		t.Error("retry policy change did not alter the fingerprint")
	}
	if Fingerprint(DefaultSystems()[:3], cfg) == base {
		t.Error("system lineup change did not alter the fingerprint")
	}
}

// TestStoreKeepsCellsWithoutPredictions pins the zero-row bugfix: cells
// that produced no predictions — here, every cell of a dataset whose
// generation faulted — are stored with their record alone, so a warm
// replay of a fault-injected grid misses nothing, fits nothing and
// exports byte-identical CSV at every worker count. Ensemble simulation
// still counts those cells as missing members, never as members.
func TestStoreKeepsCellsWithoutPredictions(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := withStore(faultCfg(0.3, 1), rp)
	cfg.Retry.MaxAttempts = 1 // no retry rescues the faulted dataset
	cold, coldStats, err := runGrid(DefaultSystems(), withWorkers(cfg, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	datasetErrors := 0
	for _, r := range cold {
		if r.Failure == faults.DatasetError {
			datasetErrors++
		}
	}
	if datasetErrors == 0 || datasetErrors == len(cold) {
		t.Fatalf("%d of %d cells are dataset errors — retune the fault config so some, not all, are", datasetErrors, len(cold))
	}
	if coldStats.Stored != len(cold) {
		t.Fatalf("cold run stored %d of %d cells", coldStats.Stored, len(cold))
	}
	coldCSV, _ := exportBytes(t, cold)

	for _, workers := range []int{1, 4} {
		ResetFitProbe()
		warm, stats, err := runGrid(DefaultSystems(), withWorkers(cfg, workers), nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats != (RepoStats{Hits: len(cold)}) || FitProbeCount() != 0 {
			t.Errorf("workers=%d: warm stats %+v with %d fit(s), want %d pure hits and no fits", workers, stats, FitProbeCount(), len(cold))
		}
		if csv, _ := exportBytes(t, warm); string(csv) != string(coldCSV) {
			t.Errorf("workers=%d: warm CSV differs from cold", workers)
		}
	}

	sim, err := SimulateEnsembles(DefaultSystems(), cfg, rp)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Missing < datasetErrors || sim.Hits+sim.Missing != len(cold) {
		t.Errorf("simulation saw %d members and %d missing over %d cells, %d without predictions", sim.Hits, sim.Missing, len(cold), datasetErrors)
	}
	if _, _, err := PortfolioFromRepo(rp, 4); err != nil {
		t.Errorf("portfolio over a store with zero-row cells: %v", err)
	}
}
