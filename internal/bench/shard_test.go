package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/openml"
	"repro/internal/repo"
)

func TestParseShardSpec(t *testing.T) {
	cases := []struct {
		in      string
		want    ShardSpec
		wantErr bool
	}{
		{in: "0/1", want: ShardSpec{Index: 0, Count: 1}},
		{in: "0/4", want: ShardSpec{Index: 0, Count: 4}},
		{in: "3/4", want: ShardSpec{Index: 3, Count: 4}},
		{in: "4/4", wantErr: true},   // index == count
		{in: "9/4", wantErr: true},   // index beyond count
		{in: "-1/4", wantErr: true},  // negative index
		{in: "0/0", wantErr: true},   // zero count
		{in: "0/-2", wantErr: true},  // negative count
		{in: "", wantErr: true},      // no separator
		{in: "1", wantErr: true},     // no separator
		{in: "a/4", wantErr: true},   // non-numeric index
		{in: "0/b", wantErr: true},   // non-numeric count
		{in: "1/2/3", wantErr: true}, // trailing junk in count
	}
	for _, tc := range cases {
		got, err := ParseShardSpec(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseShardSpec(%q) = %+v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseShardSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseShardSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestShardSpecString(t *testing.T) {
	if s := (ShardSpec{}).String(); s != "" {
		t.Errorf("zero ShardSpec renders %q, want empty", s)
	}
	spec := ShardSpec{Index: 2, Count: 4}
	if s := spec.String(); s != "2/4" {
		t.Errorf("String() = %q, want 2/4", s)
	}
	back, err := ParseShardSpec(spec.String())
	if err != nil || back != spec {
		t.Errorf("round-trip: ParseShardSpec(%q) = %+v, %v", spec.String(), back, err)
	}
}

// TestShardPartitionCoversGrid checks the partition invariant the merge
// machinery leans on: for any shard count, every cell belongs to
// exactly one shard, so the shards are disjoint and their union is the
// whole grid.
func TestShardPartitionCoversGrid(t *testing.T) {
	cfg := chaosCfg()
	systems := chaosSystems()
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)
	if len(refs) == 0 {
		t.Fatal("no cells enumerated")
	}
	for _, count := range []int{1, 2, 3, 4, 7} {
		for _, ref := range refs {
			owners := 0
			for i := 0; i < count; i++ {
				if (ShardSpec{Index: i, Count: count}).Owns(fingerprint, ref.ID()) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("count=%d: cell %s owned by %d shards, want exactly 1", count, ref.ID(), owners)
			}
		}
	}
	// The zero spec owns everything.
	for _, ref := range refs {
		if !(ShardSpec{}).Owns(fingerprint, ref.ID()) {
			t.Fatalf("unsharded spec must own %s", ref.ID())
		}
	}
}

// TestShardAssignmentIsFingerprintKeyed: the same cell lands on
// different shards under different grid fingerprints — assignment hashes
// the grid identity, not just the cell — while staying stable for a
// fixed fingerprint.
func TestShardAssignmentIsFingerprintKeyed(t *testing.T) {
	cfg := chaosCfg()
	systems := chaosSystems()
	refs := EnumerateCellRefs(systems, cfg)
	fpA := Fingerprint(systems, cfg)
	cfgB := cfg
	cfgB.Seed = 99
	fpB := Fingerprint(systems, cfgB)
	if fpA == fpB {
		t.Fatal("fingerprints must differ for differing grid seeds")
	}
	moved := 0
	for _, ref := range refs {
		a := shardIndexOf(fpA, ref.ID(), 4)
		if a2 := shardIndexOf(fpA, ref.ID(), 4); a2 != a {
			t.Fatalf("assignment not stable for %s", ref.ID())
		}
		if shardIndexOf(fpB, ref.ID(), 4) != a {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no cell changed shard across fingerprints — assignment ignores the fingerprint")
	}
}

// TestEnumerateCellRefsMatchesGridOrder: the identity-only enumeration
// must reproduce the scheduler's canonical order exactly — it is what
// merge uses to lay records back out in unsharded order.
func TestEnumerateCellRefsMatchesGridOrder(t *testing.T) {
	cfg := chaosCfg()
	cfg.Faults.HangRate = 0 // keep the oracle run fast
	systems := chaosSystems()
	records := mustRunGrid(t, systems, withWorkers(cfg, 1))
	refs := EnumerateCellRefs(systems, cfg)
	if len(refs) != len(records) {
		t.Fatalf("EnumerateCellRefs yields %d cells, grid ran %d", len(refs), len(records))
	}
	for i, ref := range refs {
		rec := records[i]
		got := CellRef{System: rec.System, Dataset: rec.Dataset, Budget: rec.Budget, Seed: rec.Seed}
		if got != ref {
			t.Fatalf("position %d: enumeration %+v, grid %+v", i, ref, got)
		}
	}
}

// TestRunShardMergeByteIdenticalMatrix is the sharding contract, run
// in-process: for shard counts 1, 2 and 4 at worker counts 1 and 4, the
// merge of the store the shards shared must reproduce the unsharded
// single-worker run's records — and its CSV/JSON/SVG exports — byte
// for byte.
func TestRunShardMergeByteIdenticalMatrix(t *testing.T) {
	cfg := chaosCfg()
	systems := chaosSystems()
	want := mustRunGrid(t, systems, withWorkers(cfg, 1))
	wantCSV, wantJSON, wantSVG := chaosExports(t, want)
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			rp := openTestRepo(t, repo.Options{})
			coveredCells := 0
			for i := 0; i < shards; i++ {
				scfg := withStore(withWorkers(cfg, workers), rp)
				scfg.Shard = ShardSpec{Index: i, Count: shards}
				run, err := RunShard(systems, scfg, "")
				if err != nil {
					t.Fatalf("%s: shard %d: %v", name, i, err)
				}
				if run.Repo.Hits != 0 || run.Repo.Stored != len(run.Records) {
					t.Fatalf("%s: shard %d stats %+v, want every one of its %d cells executed and stored", name, i, run.Repo, len(run.Records))
				}
				coveredCells += len(run.Records)
			}
			if coveredCells != len(want) {
				t.Fatalf("%s: shards ran %d cells, grid has %d — partition is not a partition", name, coveredCells, len(want))
			}
			res, err := MergeStores([]*repo.Repository{rp}, fingerprint, refs)
			if err != nil {
				t.Fatalf("%s: merge: %v", name, err)
			}
			if len(res.Missing) != 0 || res.Damaged != 0 {
				t.Fatalf("%s: merge reports %d missing, %d damaged on a clean run", name, len(res.Missing), res.Damaged)
			}
			if !reflect.DeepEqual(res.Records, want) {
				t.Fatalf("%s: merged records differ from the unsharded run", name)
			}
			csv, js, svg := chaosExports(t, res.Records)
			if !bytes.Equal(csv, wantCSV) || !bytes.Equal(js, wantJSON) || !bytes.Equal(svg, wantSVG) {
				t.Fatalf("%s: merged exports are not byte-identical to the unsharded run", name)
			}
		}
	}
}

// TestShardRecordsAreGridSubsequence: a shard's own records are exactly
// the unsharded run's records restricted to the cells it owns, in the
// same relative order.
func TestShardRecordsAreGridSubsequence(t *testing.T) {
	cfg := chaosCfg()
	systems := chaosSystems()
	want := mustRunGrid(t, systems, withWorkers(cfg, 1))
	fingerprint := Fingerprint(systems, cfg)
	spec := ShardSpec{Index: 1, Count: 2}

	scfg := cfg
	scfg.Shard = spec
	run, err := RunShard(systems, scfg, "")
	if err != nil {
		t.Fatal(err)
	}
	var expect []Record
	for _, rec := range want {
		if spec.Owns(fingerprint, cellID(rec.System, rec.Dataset, rec.Budget, rec.Seed)) {
			expect = append(expect, rec)
		}
	}
	if len(expect) == 0 {
		t.Fatal("shard 1/2 owns no cells — widen the chaos grid")
	}
	if !reflect.DeepEqual(run.Records, expect) {
		t.Errorf("shard records are not the owned subsequence of the unsharded run")
	}
}

// TestShardStoreResumesAcrossAssignments: the store binds no shard
// assignment, so a store half-filled by a 2-shard run (shard 1 never
// ran) resumes as a 4-shard run that executes only the missing cells,
// and the merged exports are byte-identical to the unsharded run.
func TestShardStoreResumesAcrossAssignments(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	want := mustRunGrid(t, systems, withWorkers(cfg, 1))
	wantCSV, wantJSON, wantSVG := chaosExports(t, want)
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	rp := openTestRepo(t, repo.Options{})
	runShards(t, rp, cfg, 2, []int{0}, 1)
	stored := ownedCells(fingerprint, refs, ShardSpec{Index: 0, Count: 2})
	if stored == 0 || stored == len(refs) {
		t.Fatalf("shard 0 of 2 owns %d of %d cells — nothing to resume", stored, len(refs))
	}

	var total RepoStats
	for i := 0; i < 4; i++ {
		scfg := withStore(withWorkers(cfg, 2), rp)
		scfg.Shard = ShardSpec{Index: i, Count: 4}
		run, err := RunShard(systems, scfg, "")
		if err != nil {
			t.Fatalf("shard %d/4: %v", i, err)
		}
		total.Hits += run.Repo.Hits
		total.Misses += run.Repo.Misses
		total.Stored += run.Repo.Stored
	}
	if total != (RepoStats{Hits: stored, Misses: len(refs) - stored, Stored: len(refs) - stored}) {
		t.Errorf("4-shard resume stats %+v, want %d hits and only the %d missing cells executed", total, stored, len(refs)-stored)
	}

	res, err := MergeStores([]*repo.Repository{rp}, fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 0 || !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("merge after cross-assignment resume: %d missing, records equal oracle: %v", len(res.Missing), reflect.DeepEqual(res.Records, want))
	}
	csv, js, svg := chaosExports(t, res.Records)
	if !bytes.Equal(csv, wantCSV) || !bytes.Equal(js, wantJSON) || !bytes.Equal(svg, wantSVG) {
		t.Error("merged exports after cross-assignment resume are not byte-identical to the unsharded run")
	}
}

// TestWholeGridStoreServesShards: a store filled by an unsharded run
// serves every shard of any later split as pure hits — zero fits.
func TestWholeGridStoreServesShards(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	rp := openTestRepo(t, repo.Options{})
	runShards(t, rp, cfg, 1, []int{0}, 1)

	ResetFitProbe()
	for i := 0; i < 3; i++ {
		scfg := withStore(cfg, rp)
		scfg.Shard = ShardSpec{Index: i, Count: 3}
		run, err := RunShard(systems, scfg, "")
		if err != nil {
			t.Fatal(err)
		}
		if run.Repo != (RepoStats{Hits: len(run.Records)}) {
			t.Errorf("shard %d/3 stats %+v, want %d pure hits", i, run.Repo, len(run.Records))
		}
	}
	if n := FitProbeCount(); n != 0 {
		t.Errorf("shards of a fully stored grid performed %d fit(s), want 0", n)
	}
}

// TestRunShardValidatesSpec: a malformed shard spec, or a journal path
// (run journals are retired; the store is the resume mechanism), is a
// configuration error before any cell runs.
func TestRunShardValidatesSpec(t *testing.T) {
	cfg := chaosCfg()
	cfg.Shard = ShardSpec{Index: 5, Count: 2}
	if _, err := RunShard(chaosSystems(), cfg, ""); err == nil {
		t.Error("out-of-range shard accepted")
	}
	cfg.Shard = ShardSpec{Index: 0, Count: 2}
	if _, err := RunShard(chaosSystems(), cfg, "s0.jsonl"); err == nil || !strings.Contains(err.Error(), "Repo") {
		t.Errorf("journal path accepted (err=%v), want an error pointing to Config.Repo", err)
	}
}

// TestShardFingerprintIgnoresShard: the shard assignment is a
// throughput knob like Workers — two shards of the same grid must agree
// on the fingerprint, or they would write into different parts of the
// store and merge would find holes.
func TestShardFingerprintIgnoresShard(t *testing.T) {
	cfg := chaosCfg()
	systems := chaosSystems()
	base := Fingerprint(systems, cfg)
	cfg.Shard = ShardSpec{Index: 1, Count: 4}
	cfg.Workers = 7
	cfg.Watchdog = WatchdogPolicy{Probes: 9, Interval: time.Second}
	if got := Fingerprint(systems, cfg); got != base {
		t.Errorf("fingerprint changed with shard/workers/watchdog: %s vs %s", got, base)
	}
}

// TestEnumerateGridShardsLazily: a shard that owns no cell of a dataset
// must not generate that dataset. Observable via enumeration output:
// the shard's cells reference only datasets it owns cells of.
func TestEnumerateGridShardsLazily(t *testing.T) {
	cfg := chaosCfg()
	cfg.Datasets = openml.Suite()[:4]
	cfg = cfg.normalized()
	systems := chaosSystems()
	fingerprint := Fingerprint(systems, cfg)
	// Find a (shard count, index) whose owned cells skip at least one
	// dataset entirely, so laziness has something to skip.
	refs := EnumerateCellRefs(systems, cfg)
	spec := ShardSpec{}
	for count := 2; count <= 16 && !spec.Enabled(); count++ {
		for idx := 0; idx < count; idx++ {
			owned := map[string]bool{}
			for _, ref := range refs {
				if (ShardSpec{Index: idx, Count: count}).Owns(fingerprint, ref.ID()) {
					owned[ref.Dataset] = true
				}
			}
			if len(owned) > 0 && len(owned) < len(cfg.Datasets) {
				spec = ShardSpec{Index: idx, Count: count}
				break
			}
		}
	}
	if !spec.Enabled() {
		t.Skip("no shard skips a whole dataset at these sizes")
	}
	scfg := cfg
	scfg.Shard = spec
	cells, _, err := enumerateGrid(systems, scfg, faults.New(scfg.Faults), fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if !spec.Owns(fingerprint, cellID(c.sys.Name(), c.spec.Name, c.budget, c.cellSeed)) {
			t.Fatalf("enumerated cell %s/%s not owned by shard %s", c.sys.Name(), c.spec.Name, spec)
		}
	}
}
