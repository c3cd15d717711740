package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/repo"
)

// mergeCfg is the merge tests' grid: the chaos grid without hang
// faults, so the dozens of shard runs the property test performs do not
// each pay the watchdog's real-time probe intervals.
func mergeCfg() Config {
	cfg := chaosCfg()
	cfg.Faults.HangRate = 0
	cfg.Watchdog = WatchdogPolicy{}
	return cfg
}

// runShards executes the listed shards of an n-way split, in the given
// completion order, all writing into the shared store rp.
func runShards(t *testing.T, rp *repo.Repository, cfg Config, n int, order []int, workers int) {
	t.Helper()
	for _, i := range order {
		scfg := withStore(withWorkers(cfg, workers), rp)
		scfg.Shard = ShardSpec{Index: i, Count: n}
		if _, err := RunShard(chaosSystems(), scfg, ""); err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
	}
}

// reopen opens another handle on rp's directory with the given options.
func reopen(t *testing.T, rp *repo.Repository, opts repo.Options) *repo.Repository {
	t.Helper()
	h, err := repo.Open(rp.Dir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMergeDeterminismProperty fuzzes the merge invariant: for random
// shard counts, worker counts and shard completion orders, the merge of
// the store the shards shared must equal the unsharded single-worker
// oracle byte for byte.
func TestMergeDeterminismProperty(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	want := mustRunGrid(t, systems, withWorkers(cfg, 1))
	wantCSV, wantJSON, wantSVG := chaosExports(t, want)
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	trials := 10
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewPCG(0x6d65, 0x7267))
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.IntN(5)
		workers := 1 + rng.IntN(4)
		order := rng.Perm(n)
		rp := openTestRepo(t, repo.Options{})
		runShards(t, rp, cfg, n, order, workers)

		res, err := MergeStores([]*repo.Repository{rp}, fingerprint, refs)
		if err != nil {
			t.Fatalf("trial %d (n=%d workers=%d order=%v): %v", trial, n, workers, order, err)
		}
		if len(res.Missing) != 0 || res.Damaged != 0 {
			t.Fatalf("trial %d: clean merge reports %d missing, %d damaged", trial, len(res.Missing), res.Damaged)
		}
		if !reflect.DeepEqual(res.Records, want) {
			t.Fatalf("trial %d (n=%d workers=%d order=%v): merged records differ from oracle", trial, n, workers, order)
		}
		csv, js, svg := chaosExports(t, res.Records)
		if !bytes.Equal(csv, wantCSV) || !bytes.Equal(js, wantJSON) || !bytes.Equal(svg, wantSVG) {
			t.Fatalf("trial %d: merged exports differ from oracle", trial)
		}
	}
}

// TestMergeToleratesOverlapAcrossShardCounts: stores filled by a 2-way
// and a 4-way split of the same grid overlap completely; the union must
// accept the agreement, in either argument order, and still reproduce
// the oracle.
func TestMergeToleratesOverlapAcrossShardCounts(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	want := mustRunGrid(t, systems, withWorkers(cfg, 1))
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	two := openTestRepo(t, repo.Options{})
	runShards(t, two, cfg, 2, []int{0, 1}, 1)
	four := openTestRepo(t, repo.Options{})
	runShards(t, four, cfg, 4, []int{3, 1, 0, 2}, 2)

	for _, stores := range [][]*repo.Repository{{two, four}, {four, two}} {
		res, err := MergeStores(stores, fingerprint, refs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Records, want) {
			t.Error("overlapping merge differs from oracle")
		}
		if len(res.PerStore) != 2 || res.PerStore[0].Cells != len(refs) || res.PerStore[1].Cells != len(refs) {
			t.Errorf("PerStore %+v, want two stores each covering all %d cells", res.PerStore, len(refs))
		}
	}
}

// TestMergeRejectsConflictingRecords: two stores disagreeing about the
// same cell is a determinism violation and must refuse to merge, never
// silently pick a side.
func TestMergeRejectsConflictingRecords(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	honest := openTestRepo(t, repo.Options{})
	runShards(t, honest, cfg, 1, []int{0}, 1)

	// Forge one cell into a second store: the same key with a rewritten
	// score, in a perfectly valid cell file, so only the merge's
	// conflict detection can catch it.
	forged := openTestRepo(t, repo.Options{})
	tampered := false
	for _, ref := range refs {
		e, _, err := honest.Get(fingerprint, ref.ID())
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		if err := json.Unmarshal(e.Record, &rec); err != nil {
			t.Fatal(err)
		}
		if !rec.Scored() {
			continue
		}
		rec.TestScore += 0.125
		if e.Record, err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
		if err := forged.Put(e); err != nil {
			t.Fatal(err)
		}
		tampered = true
		break
	}
	if !tampered {
		t.Fatal("no scored record found to tamper with")
	}

	_, err := MergeStores([]*repo.Repository{honest, forged}, fingerprint, refs)
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Errorf("conflicting stores merged (err=%v)", err)
	}
}

// TestMergeRejectsForeignFingerprint: a store holding only a different
// grid configuration must refuse to merge.
func TestMergeRejectsForeignFingerprint(t *testing.T) {
	cfg := mergeCfg()
	refs := EnumerateCellRefs(chaosSystems(), cfg)
	rp := openTestRepo(t, repo.Options{})
	runShards(t, rp, cfg, 1, []int{0}, 1)
	_, err := MergeStores([]*repo.Repository{rp}, "feedfacefeedface", refs)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign store merged (err=%v)", err)
	}
}

// TestMergeReportsMissingCellsAsShardFailures: merging an incomplete
// store keeps the grid full-size — the uncovered cells appear in
// Missing and as shard-failure records in the taxonomy, exactly where a
// dead shard's cells land.
func TestMergeReportsMissingCellsAsShardFailures(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	// Run only shard 0 of 2; shard 1's cells are missing.
	rp := openTestRepo(t, repo.Options{})
	runShards(t, rp, cfg, 2, []int{0}, 1)
	res, err := MergeStores([]*repo.Repository{rp}, fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) == 0 {
		t.Fatal("half the grid is absent but Missing is empty")
	}
	if len(res.Records) != len(refs) {
		t.Fatalf("merge returned %d records for a %d-cell grid — missing cells shrank the grid", len(res.Records), len(refs))
	}
	missing := make(map[string]bool, len(res.Missing))
	dead := ShardSpec{Index: 1, Count: 2}
	for _, ref := range res.Missing {
		missing[ref.ID()] = true
		if !dead.Owns(fingerprint, ref.ID()) {
			t.Errorf("missing cell %s is not owned by the absent shard", ref.ID())
		}
	}
	for i, rec := range res.Records {
		id := refs[i].ID()
		if missing[id] {
			if rec.Failure != faults.ShardFailure {
				t.Errorf("missing cell %s recorded as %q, want %q", id, rec.Failure, faults.ShardFailure)
			}
			if rec.Scored() {
				t.Errorf("missing cell %s carries a score", id)
			}
		} else if rec.Failure == faults.ShardFailure {
			t.Errorf("covered cell %s recorded as a shard failure", id)
		}
	}

	// The coordinator's completeness check: the holes are fine if the
	// absent shard is a known casualty, an error otherwise.
	if err := res.VerifyMissingOwnedBy(fingerprint, []ShardSpec{dead}); err != nil {
		t.Errorf("VerifyMissingOwnedBy rejected the dead shard's cells: %v", err)
	}
	if err := res.VerifyMissingOwnedBy(fingerprint, nil); err == nil {
		t.Error("VerifyMissingOwnedBy accepted missing cells with no failed shard to blame")
	}
	if err := res.VerifyMissingOwnedBy(fingerprint, []ShardSpec{{Index: 0, Count: 2}}); err == nil {
		t.Error("VerifyMissingOwnedBy accepted missing cells owned by a *completed* shard")
	}
}

// TestMergeCountsDamage: a damaged cell refuses the merge by default;
// under AllowDamage it is counted (per store and in total) and stays
// missing unless another store covers it.
func TestMergeCountsDamage(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	want := mustRunGrid(t, systems, withWorkers(cfg, 1))
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	sharded := openTestRepo(t, repo.Options{})
	runShards(t, sharded, cfg, 2, []int{0, 1}, 1)
	corruptOneCell(t, sharded.Dir())

	if _, err := MergeStores([]*repo.Repository{sharded}, fingerprint, refs); !errors.Is(err, repo.ErrDamaged) {
		t.Fatalf("merge over a damaged store returned %v, want repo.ErrDamaged", err)
	}

	tolerant := reopen(t, sharded, repo.Options{ReadOnly: true, AllowDamage: true})
	res, err := MergeStores([]*repo.Repository{tolerant}, fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged != 1 || res.PerStore[0].Damaged != 1 {
		t.Errorf("Damaged = %d (store: %d), want 1", res.Damaged, res.PerStore[0].Damaged)
	}
	if len(res.Missing) != 1 {
		t.Errorf("Missing = %d cells, want exactly the damaged one", len(res.Missing))
	}

	// A whole-grid store added to the mix re-covers the damaged cell:
	// damage stays reported, but nothing is missing and the records
	// match the oracle again.
	full := openTestRepo(t, repo.Options{})
	runShards(t, full, cfg, 1, []int{0}, 1)
	res, err = MergeStores([]*repo.Repository{tolerant, full}, fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged != 1 || res.PerStore[1].Damaged != 0 {
		t.Errorf("healed merge Damaged = %d (per store %+v), want 1 in the first store (damage stays visible)", res.Damaged, res.PerStore)
	}
	if len(res.Missing) != 0 {
		t.Errorf("healed merge still missing %d cells", len(res.Missing))
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Error("healed merge differs from oracle")
	}
}

// TestMergeRejectsEmptyAndAbsentStores: an empty input set, an empty
// store and a store whose directory vanished are configuration errors.
func TestMergeRejectsEmptyAndAbsentStores(t *testing.T) {
	cfg := mergeCfg()
	refs := EnumerateCellRefs(chaosSystems(), cfg)
	if _, err := MergeStores(nil, "x", refs); err == nil {
		t.Error("empty store set merged")
	}
	empty := openTestRepo(t, repo.Options{})
	if _, err := MergeStores([]*repo.Repository{empty}, "x", refs); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty store merged (err=%v)", err)
	}
	absent := openTestRepo(t, repo.Options{})
	if err := os.RemoveAll(absent.Dir()); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeStores([]*repo.Repository{absent}, "x", refs); err == nil {
		t.Error("absent store merged")
	}
}
