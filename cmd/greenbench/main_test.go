package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/metaopt"
	"repro/internal/openml"
	"repro/internal/repo"
)

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"fig99"}, bench.Config{}, metaopt.Options{}, "", "", "", "", nil)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTinyFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small grid")
	}
	spec, _ := openml.ByName("credit-g")
	cfg := bench.Config{
		Datasets: []openml.Spec{spec},
		Budgets:  []time.Duration{10 * time.Second},
		Seeds:    1,
		Scale:    openml.SmallScale(),
	}
	if err := run([]string{"fig4"}, cfg, metaopt.Options{}, "", "", "", "", nil); err != nil {
		t.Fatal(err)
	}
}

// TestFig5DamagedStoreExitsNonZero: with a damaged cell in -repo,
// -experiment fig5 exits 1 instead of rendering a table from a partial
// grid and exiting 0.
func TestFig5DamagedStoreExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small grid")
	}
	dir := t.TempDir()
	args := []string{"-experiment", "fig5", "-quick", "-names", "credit-g", "-repo", dir}
	o, err := parseArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := gridConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Repo, err = repo.Open(dir, repo.Options{}); err != nil {
		t.Fatal(err)
	}
	// Store the one-core grid fig5 runs first, then damage one cell.
	if _, err := bench.Fig5(cfg, []int{1}); err != nil {
		t.Fatal(err)
	}
	var cell string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && cell == "" && strings.HasSuffix(path, ".cell") {
			cell = path
		}
		return err
	})
	if err != nil || cell == "" {
		t.Fatalf("no stored cell to damage (walk error %v)", err)
	}
	data, err := os.ReadFile(cell)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-9] ^= 0x40
	if err := os.WriteFile(cell, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if code := runMain(args); code != 1 {
		t.Fatalf("greenbench %s exited %d over a damaged store, want 1", strings.Join(args, " "), code)
	}
}

// defaultOptions mirrors the flag defaults so each validation case can
// perturb exactly one knob.
func defaultOptions() options {
	return options{
		experiment:    "fig3",
		seeds:         3,
		maxRestarts:   2,
		stallInterval: 2 * time.Second,
	}
}

func TestOptionsValidate(t *testing.T) {
	store := t.TempDir()
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring of the error; "" means the options must validate
	}{
		{name: "defaults", mutate: func(o *options) {}},
		{name: "first shard", mutate: func(o *options) {
			o.shard = "0/4"
			o.repoDir = "store"
		}},
		{name: "last shard", mutate: func(o *options) {
			o.shard = "3/4"
			o.repoDir = "store"
		}},
		{name: "coordinator", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 4
			o.repoDir = "store"
		}},
		{name: "merge fig3-derived", mutate: func(o *options) {
			o.merge = store + "," + store + "*"
			o.experiment = "fig3,table4,winners"
		}},
		{name: "merge allow damage", mutate: func(o *options) {
			o.merge = store
			o.repoAllowDamage = true
		}},

		{name: "shard index at count", mutate: func(o *options) {
			o.shard = "4/4"
			o.repoDir = "store"
		}, wantErr: "shard"},
		{name: "shard index beyond count", mutate: func(o *options) {
			o.shard = "7/4"
			o.repoDir = "store"
		}, wantErr: "shard"},
		{name: "shard count zero", mutate: func(o *options) {
			o.shard = "0/0"
			o.repoDir = "store"
		}, wantErr: "shard"},
		{name: "shard count negative", mutate: func(o *options) {
			o.shard = "0/-2"
			o.repoDir = "store"
		}, wantErr: "shard"},
		{name: "shard negative index", mutate: func(o *options) {
			o.shard = "-1/4"
			o.repoDir = "store"
		}, wantErr: "shard"},
		{name: "shard garbage", mutate: func(o *options) {
			o.shard = "banana"
			o.repoDir = "store"
		}, wantErr: "shard"},
		{name: "shard without repo", mutate: func(o *options) {
			o.shard = "0/2"
		}, wantErr: "require a writable -repo"},
		{name: "shard with readonly repo", mutate: func(o *options) {
			o.shard = "0/2"
			o.repoDir = "store"
			o.repoReadonly = true
		}, wantErr: "require a writable -repo"},
		{name: "shard of non-fig3 experiment", mutate: func(o *options) {
			o.shard = "0/2"
			o.repoDir = "store"
			o.experiment = "table8"
		}, wantErr: "cannot be sharded"},

		{name: "fault rate negative", mutate: func(o *options) {
			o.faultRate = -0.1
		}, wantErr: "-fault-rate"},
		{name: "fault rate above one", mutate: func(o *options) {
			o.faultRate = 1.5
		}, wantErr: "-fault-rate"},
		{name: "hang rate negative", mutate: func(o *options) {
			o.hangRate = -0.5
		}, wantErr: "-hang-rate"},
		{name: "hang rate above one", mutate: func(o *options) {
			o.hangRate = 2
		}, wantErr: "-hang-rate"},
		{name: "retries negative", mutate: func(o *options) {
			o.retries = -1
		}, wantErr: "-retries"},
		{name: "workers negative", mutate: func(o *options) {
			o.workers = -3
		}, wantErr: "-workers"},
		{name: "watchdog probes negative", mutate: func(o *options) {
			o.wdProbes = -1
		}, wantErr: "-watchdog-probes"},
		{name: "seeds below one", mutate: func(o *options) {
			o.seeds = 0
		}, wantErr: "-seeds"},
		{name: "datasets negative", mutate: func(o *options) {
			o.datasets = -1
		}, wantErr: "-datasets"},
		{name: "memory negative", mutate: func(o *options) {
			o.memoryGB = -8
		}, wantErr: "-memory-gb"},

		{name: "shard and merge together", mutate: func(o *options) {
			o.shard = "0/2"
			o.repoDir = "store"
			o.merge = store
		}, wantErr: "mutually exclusive"},
		{name: "coordinator and merge together", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
			o.repoDir = "store"
			o.merge = store
		}, wantErr: "mutually exclusive"},
		{name: "coordinator without shards", mutate: func(o *options) {
			o.coordinator = true
			o.repoDir = "store"
		}, wantErr: "-shards"},
		{name: "coordinator without dir", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
		}, wantErr: "require a writable -repo"},
		{name: "coordinator with readonly repo", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
			o.repoDir = "store"
			o.repoReadonly = true
		}, wantErr: "require a writable -repo"},
		{name: "coordinator negative restarts", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
			o.repoDir = "store"
			o.maxRestarts = -1
		}, wantErr: "-max-restarts"},
		{name: "coordinator negative stall probes", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
			o.repoDir = "store"
			o.stallProbes = -1
		}, wantErr: "-shard-stall-probes"},
		{name: "coordinator stall probes without interval", mutate: func(o *options) {
			o.coordinator = true
			o.shards = 2
			o.repoDir = "store"
			o.stallProbes = 3
			o.stallInterval = 0
		}, wantErr: "-shard-stall-interval"},
		{name: "allow-damage without merge", mutate: func(o *options) {
			o.repoAllowDamage = true
		}, wantErr: "-repo-allow-damage only applies to -repo or -merge"},
		{name: "merge of grid-rerunning experiment", mutate: func(o *options) {
			o.merge = store
			o.experiment = "fig3,table8"
		}, wantErr: "reruns a grid"},
		{name: "merge matches no store", mutate: func(o *options) {
			o.merge = store + "/absent-*"
		}, wantErr: "matches no store directory"},
		{name: "merge pattern among good ones matches no store", mutate: func(o *options) {
			o.merge = store + "," + store + "/absent"
		}, wantErr: "matches no store directory"},
		{name: "merge with repo", mutate: func(o *options) {
			o.merge = store
			o.repoDir = "store"
		}, wantErr: "-merge reads only the stores it lists"},

		{name: "repo alone", mutate: func(o *options) {
			o.repoDir = "store"
		}},
		{name: "repo readonly", mutate: func(o *options) {
			o.repoDir = "store"
			o.repoReadonly = true
		}},
		{name: "repo allow damage", mutate: func(o *options) {
			o.repoDir = "store"
			o.repoAllowDamage = true
		}},
		{name: "repo with shard", mutate: func(o *options) {
			o.repoDir = "store"
			o.shard = "0/2"
		}},
		{name: "simulate ensemble", mutate: func(o *options) {
			o.repoDir = "store"
			o.simulateEnsemble = true
		}},
		{name: "readonly without repo", mutate: func(o *options) {
			o.repoReadonly = true
		}, wantErr: "-repo-readonly"},
		{name: "allow damage without repo", mutate: func(o *options) {
			o.repoAllowDamage = true
		}, wantErr: "-repo-allow-damage"},
		{name: "simulate ensemble without repo", mutate: func(o *options) {
			o.simulateEnsemble = true
		}, wantErr: "-simulate-ensemble needs -repo"},
		{name: "simulate ensemble with merge", mutate: func(o *options) {
			o.repoDir = "store"
			o.simulateEnsemble = true
			o.merge = store
		}, wantErr: "mutually exclusive"},
		{name: "simulate ensemble with coordinator", mutate: func(o *options) {
			o.repoDir = "store"
			o.simulateEnsemble = true
			o.coordinator = true
			o.shards = 2
			o.repoDir = "store"
		}, wantErr: "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := defaultOptions()
			tc.mutate(&o)
			err := o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate() accepted invalid options, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %q, want error containing %q", err, tc.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("validate() error spans multiple lines: %q", err)
			}
		})
	}
}

// TestValidateParsesShardSpec checks that a valid -shard value lands in
// the config the grid actually uses.
func TestValidateParsesShardSpec(t *testing.T) {
	o := defaultOptions()
	o.shard = "2/4"
	o.repoDir = "store"
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	want := bench.ShardSpec{Index: 2, Count: 4}
	if o.shardSpec != want {
		t.Fatalf("shardSpec = %+v, want %+v", o.shardSpec, want)
	}
	cfg, err := gridConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shard != want {
		t.Fatalf("cfg.Shard = %+v, want %+v", cfg.Shard, want)
	}
}

func TestFig3Derived(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "table4", "table6", "table7", "winners", "significance"} {
		if !fig3Derived(id) {
			t.Errorf("fig3Derived(%q) = false, want true", id)
		}
	}
	for _, id := range []string{"fig5", "fig6", "fig7", "table3", "table5", "table8", "table9", "all", ""} {
		if fig3Derived(id) {
			t.Errorf("fig3Derived(%q) = true, want false", id)
		}
	}
}

// TestParseArgs drives the command line end to end: every case here is a
// usage error, which main reports with exit status 2. The flags of the
// retired run journal are unknown, not aliases of -repo.
func TestParseArgs(t *testing.T) {
	store := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"journal flag is gone", []string{"-journal", "run.jsonl"}, "flag provided but not defined: -journal"},
		{"shard-dir flag is gone", []string{"-coordinator", "-shards", "2", "-shard-dir", "run"}, "flag provided but not defined: -shard-dir"},
		{"merge-allow-damage flag is gone", []string{"-merge", store, "-merge-allow-damage"}, "flag provided but not defined: -merge-allow-damage"},
		{"parallelism flag is gone", []string{"-parallelism", "2"}, "flag provided but not defined: -parallelism"},
		{"shard without repo", []string{"-shard", "0/2"}, "require a writable -repo"},
		{"shard with readonly repo", []string{"-shard", "0/2", "-repo", store, "-repo-readonly"}, "require a writable -repo"},
		{"coordinator with readonly repo", []string{"-coordinator", "-shards", "2", "-repo", store, "-repo-readonly"}, "require a writable -repo"},
		{"merge matches no store", []string{"-merge", filepath.Join(store, "nothing-*")}, "matches no store directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseArgs(%q) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}

	o, err := parseArgs([]string{"-shard", "1/2", "-repo", store})
	if err != nil {
		t.Fatal(err)
	}
	if o.shardSpec != (bench.ShardSpec{Index: 1, Count: 2}) || o.repoDir != store {
		t.Errorf("parsed %+v / %q, want shard 1/2 into %s", o.shardSpec, o.repoDir, store)
	}
}

// TestForwardedArgsKeepStoreWritable: shard subprocesses get the shared
// store and its damage policy, never -repo-readonly.
func TestForwardedArgsKeepStoreWritable(t *testing.T) {
	o := defaultOptions()
	o.repoDir = "store"
	o.repoReadonly = true
	o.repoAllowDamage = true
	args := strings.Join(forwardedArgs(o), " ")
	if !strings.Contains(args, "-repo store") || !strings.Contains(args, "-repo-allow-damage") {
		t.Errorf("forwarded args %q lack the store or its damage policy", args)
	}
	if strings.Contains(args, "-repo-readonly") {
		t.Errorf("forwarded args %q make the shard store read-only", args)
	}
}
