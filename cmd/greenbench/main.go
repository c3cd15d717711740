// Command greenbench regenerates the tables and figures of "How Green is
// AutoML for Tabular Data?" (EDBT 2025) on the virtual testbed.
//
// Usage:
//
//	greenbench -experiment fig3 [-seeds 3] [-datasets 39] [-quick]
//
// Experiments: fig3 fig4 fig5 fig6 fig7 table3 table4 table5 table6
// table7 table8 table9 winners all. Figure 8 is a decision procedure; use the
// greenrecommend command.
//
// The evaluation repository (-repo) is the grid's only durable per-cell
// state. A run with -repo stores every executed cell and replays every
// stored one, so an interrupted run resumes by rerunning the same
// command. Sharded execution splits the fig3 grid across processes
// that all write into one shared store:
//
//	greenbench -shard 0/4 -repo store/              # run one content-addressed slice
//	greenbench -merge 'store/,other-host/store/'    # fuse stores into the exports
//	greenbench -coordinator -shards 4 -repo store/  # spawn, babysit, restart, merge
//
// Merged exports are byte-identical to a single-process run of the same
// grid, regardless of shard count, completion order, kills, or restarts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/automl"
	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/metaopt"
	"repro/internal/openml"
	"repro/internal/repo"
)

// options holds every flag value, so validation is a pure function the
// tests can drive table-style without a process boundary.
type options struct {
	experiment string
	seeds      int
	datasets   int
	names      string
	quick      bool
	metaIters  int
	metaTopK   int
	csvPath    string
	jsonPath   string
	svgDir     string
	faultRate  float64
	faultSeed  uint64
	memoryGB   float64
	retries    int
	workers    int
	hangRate   float64
	wdProbes   int
	reportDir  string

	shard         string
	merge         string
	coordinator   bool
	shards        int
	maxRestarts   int
	stallProbes   int
	stallInterval time.Duration

	repoDir          string
	repoReadonly     bool
	repoAllowDamage  bool
	simulateEnsemble bool

	// shardSpec is the parsed -shard value and mergeDirs the expanded
	// -merge list, both filled by validate.
	shardSpec bench.ShardSpec
	mergeDirs []string
}

// validate rejects malformed and contradictory flag combinations with a
// one-line error instead of silently misbehaving partway into a sweep.
// It also expands the -merge globs, so a pattern that matches no store
// directory is a usage error like any other.
func (o *options) validate() error {
	if o.faultRate < 0 || o.faultRate > 1 {
		return fmt.Errorf("-fault-rate %v must be in [0, 1]", o.faultRate)
	}
	if o.hangRate < 0 || o.hangRate > 1 {
		return fmt.Errorf("-hang-rate %v must be in [0, 1]", o.hangRate)
	}
	if o.retries < 0 {
		return fmt.Errorf("-retries %d must not be negative (0 means the default policy)", o.retries)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers %d must not be negative (0 means NumCPU)", o.workers)
	}
	if o.wdProbes < 0 {
		return fmt.Errorf("-watchdog-probes %d must not be negative (0 means off)", o.wdProbes)
	}
	if o.seeds < 1 {
		return fmt.Errorf("-seeds %d must be at least 1", o.seeds)
	}
	if o.datasets < 0 {
		return fmt.Errorf("-datasets %d must not be negative (0 means the full suite)", o.datasets)
	}
	if o.memoryGB < 0 {
		return fmt.Errorf("-memory-gb %v must not be negative (0 means off)", o.memoryGB)
	}

	modes := 0
	for _, on := range []bool{o.shard != "", o.merge != "", o.coordinator, o.simulateEnsemble} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-shard, -merge, -coordinator and -simulate-ensemble are mutually exclusive")
	}
	if o.repoReadonly && o.repoDir == "" {
		return fmt.Errorf("-repo-readonly only applies to -repo")
	}
	if o.repoAllowDamage && o.repoDir == "" && o.merge == "" {
		return fmt.Errorf("-repo-allow-damage only applies to -repo or -merge")
	}
	if o.simulateEnsemble && o.repoDir == "" {
		return fmt.Errorf("-simulate-ensemble needs -repo: it replays predictions the store holds")
	}
	if o.shard != "" {
		spec, err := bench.ParseShardSpec(o.shard)
		if err != nil {
			return err
		}
		o.shardSpec = spec
	}
	if o.shard != "" || o.coordinator {
		if o.repoDir == "" || o.repoReadonly {
			return fmt.Errorf("-shard and -coordinator require a writable -repo: the store is a shard's only output")
		}
	}
	if o.coordinator {
		if o.shards < 1 {
			return fmt.Errorf("-shards %d must be at least 1", o.shards)
		}
		if o.maxRestarts < 0 {
			return fmt.Errorf("-max-restarts %d must not be negative", o.maxRestarts)
		}
		if o.stallProbes < 0 {
			return fmt.Errorf("-shard-stall-probes %d must not be negative (0 means off)", o.stallProbes)
		}
		if o.stallProbes > 0 && o.stallInterval <= 0 {
			return fmt.Errorf("-shard-stall-interval %v must be positive when -shard-stall-probes is set", o.stallInterval)
		}
	}
	if o.shard != "" || o.coordinator {
		if o.experiment != "fig3" {
			return fmt.Errorf("sharded execution covers the fig3 grid; -experiment %s cannot be sharded", o.experiment)
		}
	}
	if o.merge != "" {
		for _, id := range strings.Split(o.experiment, ",") {
			if !fig3Derived(strings.TrimSpace(id)) {
				return fmt.Errorf("-merge can only render experiments derived from the fig3 grid (fig3, fig4, table4, table6, table7, winners, significance); %s reruns a grid", id)
			}
		}
		if o.repoDir != "" {
			return fmt.Errorf("-merge reads only the stores it lists; add the -repo directory to the -merge list")
		}
		dirs, err := mergeDirs(o.merge)
		if err != nil {
			return err
		}
		o.mergeDirs = dirs
	}
	return nil
}

// mergeDirs expands the -merge argument: comma-separated store
// directories, each possibly a glob.
func mergeDirs(arg string) ([]string, error) {
	var dirs []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		matches, err := filepath.Glob(part)
		if err != nil {
			return nil, fmt.Errorf("bad -merge pattern %q: %w", part, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("-merge pattern %q matches no store directory", part)
		}
		dirs = append(dirs, matches...)
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("-merge needs at least one store directory")
	}
	return dirs, nil
}

// fig3Derived reports whether an experiment is a pure function of the
// fig3 grid's records — renderable offline from merged stores.
func fig3Derived(id string) bool {
	switch id {
	case "fig3", "fig4", "table4", "table6", "table7", "winners", "significance":
		return true
	}
	return false
}

// parseArgs parses and validates the command line. Any error is a
// usage error (exit 2); -h returns flag.ErrHelp.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("greenbench", flag.ContinueOnError)
	fs.StringVar(&o.experiment, "experiment", "fig3", "experiment id (fig3..fig7, table3..table9, all)")
	fs.IntVar(&o.seeds, "seeds", 3, "repeated runs per cell (paper uses 10)")
	fs.IntVar(&o.datasets, "datasets", 0, "restrict to the first N suite datasets (0 = all 39)")
	fs.StringVar(&o.names, "names", "", "comma-separated dataset names to run (overrides -datasets)")
	fs.BoolVar(&o.quick, "quick", false, "tiny configuration for a fast smoke run")
	fs.IntVar(&o.metaIters, "meta-iterations", 40, "BO iterations for development-stage experiments (paper uses 300)")
	fs.IntVar(&o.metaTopK, "meta-topk", 8, "representative datasets for development-stage experiments (paper uses 20)")
	fs.StringVar(&o.csvPath, "csv", "", "export the fig3 grid's raw records as CSV to this path")
	fs.StringVar(&o.jsonPath, "json", "", "export the fig3 grid's raw records as JSON to this path")
	fs.StringVar(&o.svgDir, "svg-dir", "", "write SVG charts of figures 3-5 into this directory")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "per-attempt fault-injection probability in [0,1] (0 = off)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 0, "fault-injection stream seed (decisions are order-independent)")
	fs.Float64Var(&o.memoryGB, "memory-gb", 0, "machine memory model in GB for simulated OOM kills (0 = off)")
	fs.IntVar(&o.retries, "retries", 0, "max Fit attempts per cell (0 = 1, or 3 with faults enabled); retry energy is charged")
	fs.IntVar(&o.workers, "workers", 0, "grid cells run concurrently (0 = NumCPU); output is identical at any worker count")
	fs.Float64Var(&o.hangRate, "hang-rate", 0, "per-attempt probability in [0,1] that a Fit hangs without progress, exercising the stall watchdog (0 = off)")
	fs.IntVar(&o.wdProbes, "watchdog-probes", 0, "probe intervals without virtual progress before a cell is abandoned as stalled (0 = off, or 4 when -hang-rate > 0)")
	fs.StringVar(&o.reportDir, "report-dir", "", "also write each experiment's rendered report into this directory (atomic replace)")
	fs.StringVar(&o.shard, "shard", "", "run one content-addressed grid slice i/N (e.g. 0/4) into -repo")
	fs.StringVar(&o.merge, "merge", "", "comma-separated store directories (globs allowed) to fuse into the aggregate exports instead of running")
	fs.BoolVar(&o.coordinator, "coordinator", false, "spawn -shards subprocesses writing into -repo, restart crashed shards, and merge the store")
	fs.IntVar(&o.shards, "shards", 0, "shard count for -coordinator")
	fs.IntVar(&o.maxRestarts, "max-restarts", 2, "restarts each shard gets after its first launch before it degrades to a shard failure")
	fs.IntVar(&o.stallProbes, "shard-stall-probes", 0, "probe intervals without growth of a shard's stored cells before the coordinator SIGKILLs and restarts the shard (0 = off)")
	fs.DurationVar(&o.stallInterval, "shard-stall-interval", 2*time.Second, "real-time probe period for -shard-stall-probes")
	fs.StringVar(&o.repoDir, "repo", "", "content-addressed evaluation repository directory; stored cells replay without refitting, executed cells are written back")
	fs.BoolVar(&o.repoReadonly, "repo-readonly", false, "consult -repo without writing executed cells back")
	fs.BoolVar(&o.repoAllowDamage, "repo-allow-damage", false, "treat damaged -repo or -merge cells as misses (the cells rerun, or stay missing in a merge) instead of refusing the store")
	fs.BoolVar(&o.simulateEnsemble, "simulate-ensemble", false, "simulate greedy ensemble selection over the predictions stored in -repo — no fits, lookup+blend energy only")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, o.validate()
}

func main() { os.Exit(runMain(os.Args[1:])) }

// runMain runs one command line and returns its exit status: 0 on
// success, 2 on a usage error, 1 when the run itself fails.
func runMain(args []string) int {
	o, err := parseArgs(args)
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		return 2
	}

	cfg, err := gridConfig(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		return 2
	}
	if o.repoDir != "" {
		rp, err := repo.Open(o.repoDir, repo.Options{ReadOnly: o.repoReadonly, AllowDamage: o.repoAllowDamage})
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			return 1
		}
		cfg.Repo = rp
	}
	meta := metaopt.Options{
		Iterations:     o.metaIters,
		TopK:           o.metaTopK,
		RunsPerDataset: 1,
		Budget:         10 * time.Second,
	}
	if o.quick {
		meta.Iterations = 8
		meta.TopK = 4
	}

	switch {
	case o.shard != "":
		err = runShardMode(o, cfg)
	case o.merge != "":
		err = runMergeMode(o, cfg, meta)
	case o.coordinator:
		err = runCoordinatorMode(o, cfg, meta)
	case o.simulateEnsemble:
		err = runSimulateMode(cfg)
	default:
		ids := experimentIDs(o.experiment)
		err = run(ids, cfg, meta, o.csvPath, o.jsonPath, o.svgDir, o.reportDir, nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		return 1
	}
	return 0
}

func experimentIDs(experiment string) []string {
	if experiment == "all" {
		return []string{"fig3", "fig4", "fig5", "fig6", "fig7", "table3", "table4", "table5", "table6", "table7", "table8", "table9", "winners", "significance"}
	}
	return strings.Split(experiment, ",")
}

// gridConfig assembles the bench configuration the flags describe.
func gridConfig(o options) (bench.Config, error) {
	cfg := bench.Config{
		Seeds: o.seeds,
		Faults: faults.Config{
			Rate:        o.faultRate,
			HangRate:    o.hangRate,
			Seed:        o.faultSeed,
			MemoryBytes: int64(o.memoryGB * 1e9),
		},
		Retry:    bench.RetryPolicy{MaxAttempts: o.retries},
		Workers:  o.workers,
		Watchdog: bench.WatchdogPolicy{Probes: o.wdProbes},
		Shard:    o.shardSpec,
	}
	datasets := o.datasets
	if o.quick {
		cfg.Seeds = 1
		cfg.Budgets = []time.Duration{10 * time.Second, time.Minute}
		if datasets == 0 {
			datasets = 6
		}
	}
	if o.names != "" {
		for _, name := range strings.Split(o.names, ",") {
			spec, ok := openml.ByName(strings.TrimSpace(name))
			if !ok {
				return bench.Config{}, fmt.Errorf("unknown dataset %q", name)
			}
			cfg.Datasets = append(cfg.Datasets, spec)
		}
	} else if datasets > 0 {
		suite := openml.Suite()
		if datasets < len(suite) {
			suite = suite[:datasets]
		}
		cfg.Datasets = suite
	}
	return cfg, nil
}

// runShardMode executes one content-addressed slice of the fig3 grid
// into the shared store, its only durable output; the summary goes to
// stderr so a coordinator piping shard output never mistakes it for a
// report.
func runShardMode(o options, cfg bench.Config) error {
	run, err := bench.RunShard(bench.DefaultSystems(), cfg, "")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "greenbench: shard %s: %d cell(s) in %s; %s\n", o.shardSpec, len(run.Records), o.repoDir, run.Repo.Summary())
	return nil
}

// runSimulateMode replays stored predictions as simulated ensembles: a
// pure repository analysis that fits nothing and charges only the
// lookup-and-blend compute it actually performs.
func runSimulateMode(cfg bench.Config) error {
	res, err := bench.SimulateEnsembles(bench.DefaultSystems(), cfg, cfg.Repo)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	if res.Damaged > 0 {
		fmt.Fprintf(os.Stderr, "greenbench: simulate-ensemble: %d damaged repository entr(ies) were skipped\n", res.Damaged)
	}
	return nil
}

// mergeStores fuses the fig3 grid's cells out of the stores and
// reports each store's coverage and damage.
func mergeStores(stores []*repo.Repository, cfg bench.Config) (*bench.MergeResult, error) {
	systems := bench.DefaultSystems()
	res, err := bench.MergeStores(stores, bench.Fingerprint(systems, cfg), bench.EnumerateCellRefs(systems, cfg))
	if err != nil {
		return nil, err
	}
	for _, sr := range res.PerStore {
		fmt.Fprintf(os.Stderr, "greenbench: merge: %s: %d cell(s), %d damaged\n", sr.Dir, sr.Cells, sr.Damaged)
	}
	return res, nil
}

// runMergeMode fuses stores and renders the fig3-derived experiments
// and exports from them, without executing any grid cell. Damage is
// refused unless -repo-allow-damage counts it; either way the merged
// artifact must cover every cell.
func runMergeMode(o options, cfg bench.Config, meta metaopt.Options) error {
	var stores []*repo.Repository
	for _, dir := range o.mergeDirs {
		rp, err := repo.Open(dir, repo.Options{ReadOnly: true, AllowDamage: o.repoAllowDamage})
		if err != nil {
			return err
		}
		stores = append(stores, rp)
	}
	res, err := mergeStores(stores, cfg)
	if err != nil {
		return err
	}
	if len(res.Missing) > 0 {
		return fmt.Errorf("merge covers %d of %d grid cells — %d missing (first: %s); run the absent shards or merge their stores",
			len(res.Records)-len(res.Missing), len(res.Records), len(res.Missing), res.Missing[0].ID())
	}
	fig3 := bench.Fig3FromRecords(cfg, res.Records)
	return run(experimentIDs(o.experiment), cfg, meta, o.csvPath, o.jsonPath, o.svgDir, o.reportDir, &fig3)
}

// runCoordinatorMode spawns one subprocess per shard (this binary,
// re-invoked with -shard i/N and the same -repo), restarts shards that
// crash or stall, then merges the store into the standard exports. A
// shard that exhausts its restart budget is reported — its cells appear
// as shard-failure records in the failure taxonomy — rather than
// aborting the sweep.
func runCoordinatorMode(o options, cfg bench.Config, meta metaopt.Options) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving own binary for shard subprocesses: %w", err)
	}
	base := forwardedArgs(o)
	systems := bench.DefaultSystems()
	fingerprint := bench.Fingerprint(systems, cfg)
	ccfg := bench.CoordinatorConfig{
		Shards:      o.shards,
		MaxRestarts: o.maxRestarts,
		Deadline:    bench.WatchdogPolicy{Probes: o.stallProbes, Interval: o.stallInterval},
		Repo:        cfg.Repo,
		Fingerprint: fingerprint,
		Cells:       bench.EnumerateCellRefs(systems, cfg),
		Command: func(shard bench.ShardSpec) *exec.Cmd {
			cmd := exec.Command(exe, append(base, "-shard", shard.String())...)
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			return cmd
		},
	}
	res, err := bench.RunCoordinator(ccfg)
	if err != nil {
		return err
	}
	for _, st := range res.Shards {
		state := "completed"
		if !st.Completed {
			state = "FAILED: " + st.Err
		}
		fmt.Fprintf(os.Stderr, "greenbench: coordinator: shard %s: %d launch(es), %d deadline kill(s), %s\n",
			st.Shard, st.Launches, st.DeadlineKills, state)
	}

	merged, err := mergeStores([]*repo.Repository{cfg.Repo}, cfg)
	if err != nil {
		return err
	}
	if err := merged.VerifyMissingOwnedBy(fingerprint, res.Failed()); err != nil {
		return err
	}
	if n := len(merged.Missing); n > 0 {
		fmt.Fprintf(os.Stderr, "greenbench: coordinator: %d cell(s) lost to dead shards are reported as %s records\n", n, faults.ShardFailure)
	}
	fig3 := bench.Fig3FromRecords(cfg, merged.Records)
	return run(experimentIDs(o.experiment), cfg, meta, o.csvPath, o.jsonPath, o.svgDir, o.reportDir, &fig3)
}

// forwardedArgs rebuilds the grid-defining flags for a shard
// subprocess. Only flags that change which records the grid produces
// (plus throughput knobs and the shared store) are forwarded; export and
// mode flags are not, nor -repo-readonly: a shard's store must be
// writable.
func forwardedArgs(o options) []string {
	args := []string{
		"-seeds", strconv.Itoa(o.seeds),
		"-fault-rate", strconv.FormatFloat(o.faultRate, 'g', -1, 64),
		"-fault-seed", strconv.FormatUint(o.faultSeed, 10),
		"-memory-gb", strconv.FormatFloat(o.memoryGB, 'g', -1, 64),
		"-retries", strconv.Itoa(o.retries),
		"-workers", strconv.Itoa(o.workers),
		"-hang-rate", strconv.FormatFloat(o.hangRate, 'g', -1, 64),
		"-watchdog-probes", strconv.Itoa(o.wdProbes),
	}
	if o.datasets > 0 {
		args = append(args, "-datasets", strconv.Itoa(o.datasets))
	}
	if o.names != "" {
		args = append(args, "-names", o.names)
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.repoDir != "" {
		args = append(args, "-repo", o.repoDir)
	}
	if o.repoAllowDamage {
		args = append(args, "-repo-allow-damage")
	}
	return args
}

// run renders the requested experiments. With a non-nil fig3, the grid
// is never executed: the preloaded result (from a merge) feeds every
// fig3-derived experiment, which keeps offline rendering byte-identical
// to a live run.
func run(ids []string, cfg bench.Config, meta metaopt.Options, csvPath, jsonPath, svgDir, reportDir string, fig3 *bench.Fig3Result) error {
	// fig3's grid feeds several tables; compute it lazily, once.
	var fig3Err error
	needFig3 := func() *bench.Fig3Result {
		if fig3 == nil && fig3Err == nil {
			fmt.Fprintln(os.Stderr, "greenbench: running the fig3 grid (feeds fig4, fig7, table4, table6, table7)...")
			grid, err := bench.RunShard(bench.DefaultSystems(), cfg, "")
			if err != nil {
				fig3Err = err
				fig3 = &bench.Fig3Result{}
				return fig3
			}
			r := bench.Fig3FromRecords(cfg, grid.Records)
			r.Repo = grid.Repo
			fig3 = &r
			if fig3.Repo.Consulted() {
				fmt.Fprintf(os.Stderr, "greenbench: %s\n", fig3.Repo.Summary())
			}
		}
		return fig3
	}

	for _, id := range ids {
		//greenlint:allow wallclock operator-facing progress timing on stderr, not a measured quantity
		start := time.Now()
		var out string
		var err error
		switch strings.TrimSpace(id) {
		case "fig3":
			out = needFig3().Render()
			if svgDir != "" {
				stats := needFig3().Stats
				if err := writeSVG(svgDir, "fig3-execution.svg", func(w io.Writer) error { return bench.WriteFig3SVG(w, stats, false) }); err != nil {
					return err
				}
				if err := writeSVG(svgDir, "fig3-inference.svg", func(w io.Writer) error { return bench.WriteFig3SVG(w, stats, true) }); err != nil {
					return err
				}
			}
		case "fig4":
			fig4 := bench.Fig4(needFig3().Stats, nil)
			out = fig4.Render()
			if svgDir != "" {
				if err := writeSVG(svgDir, "fig4.svg", func(w io.Writer) error { return bench.WriteFig4SVG(w, fig4) }); err != nil {
					return err
				}
			}
		case "fig5":
			fig5, err := bench.Fig5(cfg, nil)
			if err != nil {
				return err
			}
			out = fig5.Render()
			if svgDir != "" {
				if err := writeSVG(svgDir, "fig5.svg", func(w io.Writer) error { return bench.WriteFig5SVG(w, fig5) }); err != nil {
					return err
				}
			}
		case "fig6":
			out, err = rendered(bench.Fig6(cfg, nil))
		case "fig7":
			out, err = rendered(bench.Fig7(cfg, meta, needFig3().Stats))
		case "table3":
			out, err = rendered(bench.Table3(cfg))
		case "table4":
			out = bench.Table4(needFig3().Stats).Render()
		case "table5":
			out = renderTable5(meta)
		case "table6":
			out = bench.Table6(needFig3().Records).Render()
		case "table7":
			out = bench.Table7(needFig3().Stats, cfg.Budgets).Render()
		case "table8":
			out, err = rendered(bench.Table8(cfg, meta, nil))
		case "table9":
			out, err = rendered(bench.Table9(cfg, meta, nil))
		case "winners":
			out = bench.Winners(needFig3().Records).Render()
		case "significance":
			out = bench.Significance(needFig3().Records).Render()
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return err
		}
		if fig3Err != nil {
			return fig3Err
		}
		fmt.Println(out)
		if reportDir != "" {
			if err := os.MkdirAll(reportDir, 0o755); err != nil {
				return err
			}
			path := reportDir + "/" + strings.TrimSpace(id) + ".txt"
			if err := bench.WriteReportFile(path, out); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "greenbench: wrote %s\n", path)
		}
		//greenlint:allow wallclock operator-facing progress timing on stderr, not a measured quantity
		fmt.Fprintf(os.Stderr, "greenbench: %s done in %s\n", id, time.Since(start).Round(time.Millisecond))
	}
	if fig3 != nil && fig3Err == nil {
		if err := exportRecords(fig3.Records, csvPath, jsonPath); err != nil {
			return err
		}
	}
	return nil
}

// rendered renders an experiment result, or passes its error through.
func rendered[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// writeSVG writes one chart into the SVG output directory. The write is
// atomic (temp + fsync + rename via internal/atomicio), and any
// close/sync failure propagates so the command exits non-zero instead
// of shipping a torn chart.
func writeSVG(dir, name string, render func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := bench.WriteSVGFile(dir+"/"+name, render); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "greenbench: wrote %s/%s\n", dir, name)
	return nil
}

// exportRecords writes the raw grid records to the requested paths.
// Exports are atomic: a kill mid-export (or a failed close) leaves any
// previous artifact intact and surfaces the error as a non-zero exit.
func exportRecords(records []bench.Record, csvPath, jsonPath string) error {
	if csvPath != "" {
		if err := bench.WriteCSVFile(csvPath, records); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "greenbench: wrote %d records to %s\n", len(records), csvPath)
	}
	if jsonPath != "" {
		if err := bench.WriteJSONFile(jsonPath, records); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "greenbench: wrote %d records to %s\n", len(records), jsonPath)
	}
	return nil
}

// renderTable5 reports tuned AutoML system parameters per search budget.
// It runs the development-stage optimizer for each budget (paper Table 5);
// with very few iterations the factory presets may win, which the output
// marks.
func renderTable5(meta metaopt.Options) string {
	var sb strings.Builder
	sb.WriteString("Table 5 — tuned AutoML system parameters per search budget\n")
	for _, budget := range []time.Duration{30 * time.Second, time.Minute, 5 * time.Minute} {
		opts := meta
		opts.Budget = budget
		dev, err := metaopt.Optimize(openml.MetaTrainSuite(), opts)
		if err != nil {
			fmt.Fprintf(&sb, "%s: optimization failed: %v\n", bench.FormatBudget(budget), err)
			continue
		}
		params := dev.Params
		note := ""
		if dev.Objective <= 0 {
			// The search found nothing better than the defaults at this
			// (reduced) iteration count; report the published presets.
			params = automl.DefaultTunedParams(budget)
			note = " (factory preset; tuning found no improvement at this iteration count)"
		}
		fmt.Fprintf(&sb, "%s:%s\n  %s\n  development: %.4f kWh, %d trials, %d pruned\n",
			bench.FormatBudget(budget), note, bench.RenderCAMLParams(params), dev.DevKWh, dev.Trials, dev.Pruned)
	}
	return sb.String()
}
