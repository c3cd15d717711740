package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/automl"
	"repro/internal/bench"
	"repro/internal/openml"
	"repro/internal/repo"
)

// gridDatasets is the six-dataset mix of the root benchmarks: it varies
// rows, features and classes, which drive the cost of the tree sort.
var gridDatasets = []string{"credit-g", "phoneme", "segment", "mfeat-factors", "adult", "higgs"}

// repoGetRounds repeats the direct Get of every stored cell so the
// Get percentiles rest on enough samples (78 cells × 20 rounds).
const repoGetRounds = 20

// minReplays is the fewest warm replays a run times: enough for ten
// samples beyond the p99. --seconds sets how many more there are.
const minReplays = 1000

// warmups is how many untimed replays precede the timed ones, so caches
// and the heap have reached their steady state.
const warmups = 50

// gridSeed is the grid's own seed, greenbench's default. It is fixed
// rather than taken from the workload seed: it generates the datasets
// and splits, and one cold grid took 13.2–21.5 s over five grid seeds on
// the same machine, a spread no bound could hold. The grid is therefore
// one fixed input, like a fixed dataset suite.
const gridSeed = 1

// coldGrids is the fewest cold grids an untraced run times. The machine
// the benchmark was tuned on, 2 vCPUs of a shared host, ran the same grid
// in 13 to 19 s as its neighbours came and went; the median of three or
// more grids rides out one slow stretch.
const coldGrids = 3

// gridSetups is how many times grid-cold generates its datasets; the
// median is setup_s. One set takes about 0.6 ms; over eight processes the
// median of 501, each on a freshly collected heap, ranged 0.62–0.66 ms.
const gridSetups = 501

// gridConfig is the fig3 grid: budgets {10s, 1m}, one seed, two
// workers, BenchScale.
func gridConfig() (bench.Config, error) {
	specs := make([]openml.Spec, 0, len(gridDatasets))
	for _, name := range gridDatasets {
		s, ok := openml.ByName(name)
		if !ok {
			return bench.Config{}, fmt.Errorf("dataset %s missing from the suite", name)
		}
		specs = append(specs, s)
	}
	return bench.Config{
		Datasets: specs,
		Budgets:  []time.Duration{10 * time.Second, time.Minute},
		Seeds:    1,
		Seed:     gridSeed,
		Workers:  2,
	}, nil
}

// gridRun is one grid operation's outputs.
type gridRun struct {
	records []bench.Record
	repo    bench.RepoStats
	csv     []byte
	wall    time.Duration
}

// gridOp runs one grid against rp and aggregates and exports it, as
// `greenbench -experiment fig3 -repo` does.
func gridOp(systems []automl.System, cfg bench.Config, rp *repo.Repository, tr *tracer) (gridRun, error) {
	cfg.Repo = rp
	op := tr.enter("bench.op", "", 0)
	defer tr.leave(op)
	start := time.Now()
	g := tr.enter("bench.grid", "", 0)
	run, err := bench.RunShard(systems, cfg, "")
	tr.leave(g)
	if err != nil {
		return gridRun{}, err
	}
	a := tr.begin("bench.aggregate", "", 0)
	res := bench.Fig3FromRecords(cfg, run.Records)
	res.Repo = run.Repo
	tr.end(a)
	e := tr.begin("bench.export", "", 0)
	var buf bytes.Buffer
	err = bench.WriteCSV(&buf, res.Records)
	tr.end(e)
	return gridRun{records: res.Records, repo: res.Repo, csv: buf.Bytes(), wall: time.Since(start)}, err
}

// gridSetup generates every grid dataset once, timing each call.
func gridSetup(cfg bench.Config, tr *tracer) (time.Duration, error) {
	var total time.Duration
	for _, spec := range cfg.Datasets {
		i := tr.begin("openml.generate", spec.Name, 0)
		t0 := time.Now()
		f := openml.Generate(spec, bench.BenchScale(), cfg.Seed)
		total += time.Since(t0)
		tr.end(i)
		if err := f.Validate(); err != nil {
			return 0, fmt.Errorf("generated %s: %w", spec.Name, err)
		}
	}
	return total, nil
}

// gridSystems returns the roster, decorated when tracing.
func gridSystems(tr *tracer, evaluated *atomic.Int64) []automl.System {
	systems := bench.DefaultSystems()
	if tr == nil {
		return systems
	}
	for i, s := range systems {
		systems[i] = tracedSystem{System: s, tr: tr, evaluated: evaluated}
	}
	return systems
}

// checkGrid applies the checks every grid operation must pass.
func checkGrid(rep *report, run gridRun, want int, wantStats bench.RepoStats) {
	rep.attempted += want
	rep.check(len(run.records) == want, want, "grid returned %d records, the grid has %d cells", len(run.records), want)
	bad := 0
	for _, r := range run.records {
		if r.Failure != "" || r.Fallback {
			bad++
		}
	}
	rep.check(bad == 0, bad, "%d grid cells failed or fell back", bad)
	rep.check(run.repo == wantStats, want, "repository traffic %+v, want %+v", run.repo, wantStats)
}

func meanBacc(records []bench.Record) float64 {
	if len(records) == 0 {
		return 0
	}
	var s float64
	for _, r := range records {
		s += r.TestScore
	}
	return s / float64(len(records))
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runGridCold times cold grids, each writing an empty evaluation store.
func runGridCold(o options, rep *report) error {
	cfg, err := gridConfig()
	if err != nil {
		return err
	}
	var tr *tracer
	var evaluated atomic.Int64
	if o.trace {
		tr = newTracer()
	}
	untraced := bench.DefaultSystems()
	cells := len(bench.EnumerateCellRefs(untraced, cfg))
	coldStats := bench.RepoStats{Misses: cells, Stored: cells}
	work := filepath.Join(outDir, "work")

	var first []byte
	var bacc float64
	var last gridRun
	n := 0
	lastStore := ""
	// Every grid starts on a collected heap, like the first.
	op := func(systems []automl.System, tr *tracer) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			settle()
			n++
			dir := filepath.Join(work, fmt.Sprintf("cold-%d", n))
			rp, err := repo.Open(dir, repo.Options{})
			if err != nil {
				return 0, err
			}
			run, err := gridOp(systems, cfg, rp, tr)
			if err != nil {
				return 0, err
			}
			checkGrid(rep, run, cells, coldStats)
			last = run
			if first == nil {
				first = run.csv
				bacc = meanBacc(run.records)
				rep.details["csv"] = map[string]any{"sha256": digest(run.csv), "bytes": len(run.csv), "records": len(run.records), "mean_bacc": bacc}
			}
			rep.check(bytes.Equal(run.csv, first), cells, "grid %d exported a different CSV than grid 1", n)
			if lastStore != "" {
				os.RemoveAll(lastStore)
			}
			lastStore = dir
			return run.wall, nil
		}
	}

	if !o.trace {
		var generate time.Duration
		setup, err := setupTimes(gridSetups, func() error {
			var err error
			generate, err = gridSetup(cfg, nil)
			return err
		})
		if err != nil {
			return err
		}
		before := readGC()
		walls, err := timed(o.seconds, coldGrids, op(untraced, nil))
		if err != nil {
			return err
		}
		gc := readGC().sub(before)
		if err := warmCheck(rep, untraced, cfg, lastStore, first, cells); err != nil {
			return err
		}
		q := quantiles(walls, 0.5, 0.99)
		p50, p99 := ms(q[0]), ms(q[1])
		rep.set("setup_s", setup.Seconds(), "s")
		rep.set("op_ms_p50", p50, "ms")
		rep.alias["op_per_s"] = metric{float64(len(walls)) / sumDur(walls).Seconds(), "1/s"}
		rep.set("alloc_mb", gc.allocBytes/1e6/float64(len(walls)), "MB/op")
		rep.set("mean_bacc", bacc, "ratio")
		rep.set("ok_frac", okFrac(rep), "ratio")
		rep.alias["op_ms_p99"] = metric{p99, "ms"}
		rep.alias["fail_frac"] = metric{1 - okFrac(rep), "ratio"}
		rep.alias["grid_s"] = metric{p50 / 1000, "s"}
		rep.details["samples"] = map[string]int{"op_ms_p50": len(walls), "op_ms_p99": len(walls), "setup_s": gridSetups}
		rep.details["generate_ms"] = ms(generate)
		return nil
	}

	// Traced run: one untraced grid as the overhead baseline, then one
	// traced, profiled grid.
	generate, err := gridSetup(cfg, tr)
	if err != nil {
		return err
	}
	base, err := timed(0, 1, op(untraced, nil))
	if err != nil {
		return err
	}
	systems := gridSystems(tr, &evaluated)
	fits0 := bench.FitProbeCount()
	var traced []time.Duration
	gc, sh, err := profiled(o, func() error {
		traced, err = timed(0, 1, op(systems, tr))
		return err
	})
	if err != nil {
		return err
	}
	fits := bench.FitProbeCount() - fits0
	if err := warmCheck(rep, untraced, cfg, lastStore, first, cells); err != nil {
		return err
	}
	gridLayers(rep, tr, len(traced), last, fits, evaluated.Load())
	if err := repoLayers(rep, untraced, cfg, lastStore); err != nil {
		return err
	}
	rep.set("openml.generate_ms", ms(generate), "ms")
	commonLayers(rep, gc, sh, len(traced), median(traced), median(base))
	return writeSpans(tr, o)
}

// warmCheck replays the grid from the store the last cold grid wrote
// and requires the same CSV with zero fits.
func warmCheck(rep *report, systems []automl.System, cfg bench.Config, dir string, want []byte, cells int) error {
	rp, err := repo.Open(dir, repo.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	fits := bench.FitProbeCount()
	run, err := gridOp(systems, cfg, rp, nil)
	if err != nil {
		return err
	}
	rep.check(bench.FitProbeCount() == fits, cells, "warm replay of the cold store fitted %d times", bench.FitProbeCount()-fits)
	rep.check(bytes.Equal(run.csv, want), cells, "warm replay of the cold store exported a different CSV")
	rep.check(run.repo == bench.RepoStats{Hits: cells}, cells, "warm replay repository traffic %+v, want %d hits", run.repo, cells)
	return nil
}

// runGridWarm fills a store with one cold grid during set-up, then times
// replays of the same grid through a read-only repository.
func runGridWarm(o options, rep *report) error {
	cfg, err := gridConfig()
	if err != nil {
		return err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	systems := bench.DefaultSystems()
	cells := len(bench.EnumerateCellRefs(systems, cfg))
	dir := filepath.Join(outDir, "work", "warm")

	var generate time.Duration
	var cold gridRun
	var rp *repo.Repository
	setup, err := setupTimes(1, func() error {
		var err error
		if generate, err = gridSetup(cfg, tr); err != nil {
			return err
		}
		fill, err := repo.Open(dir, repo.Options{})
		if err != nil {
			return err
		}
		if cold, err = gridOp(systems, cfg, fill, nil); err != nil {
			return err
		}
		rp, err = repo.Open(dir, repo.Options{ReadOnly: true})
		return err
	})
	if err != nil {
		return err
	}
	checkGrid(rep, cold, cells, bench.RepoStats{Misses: cells, Stored: cells})
	rep.details["csv"] = map[string]any{"sha256": digest(cold.csv), "bytes": len(cold.csv), "records": len(cold.records), "mean_bacc": meanBacc(cold.records)}

	warm := bench.RepoStats{Hits: cells}
	replays := 0
	var last gridRun
	op := func(tr *tracer) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			replays++
			run, err := gridOp(systems, cfg, rp, tr)
			if err != nil {
				return 0, err
			}
			last = run
			rep.attempted++
			ok := len(run.records) == cells && run.repo == warm && bytes.Equal(run.csv, cold.csv)
			rep.check(ok, 1, "warm replay %d: %d records, traffic %+v, CSV equal to cold: %v",
				replays, len(run.records), run.repo, bytes.Equal(run.csv, cold.csv))
			return run.wall, nil
		}
	}
	settle()
	if _, err := timed(0, warmups, op(nil)); err != nil {
		return err
	}
	fits0 := bench.FitProbeCount()

	if !o.trace {
		before := readGC()
		walls, err := timed(o.seconds, minReplays, op(nil))
		if err != nil {
			return err
		}
		gc := readGC().sub(before)
		rep.check(bench.FitProbeCount() == fits0, len(walls), "warm replays fitted %d times", bench.FitProbeCount()-fits0)
		q := quantiles(walls, 0.5, 0.99)
		p50, p99 := ms(q[0]), ms(q[1])
		rep.set("setup_s", setup.Seconds(), "s")
		rep.set("op_ms_p50", p50, "ms")
		rep.alias["op_per_s"] = metric{float64(len(walls)) / sumDur(walls).Seconds(), "1/s"}
		rep.set("alloc_mb", gc.allocBytes/1e6/float64(len(walls)), "MB/op")
		rep.set("mean_bacc", meanBacc(cold.records), "ratio")
		rep.set("ok_frac", okFrac(rep), "ratio")
		rep.alias["op_ms_p99"] = metric{p99, "ms"}
		rep.alias["fail_frac"] = metric{1 - okFrac(rep), "ratio"}
		rep.alias["replay_ms_p50"] = metric{p50, "ms"}
		rep.alias["replay_ms_p99"] = metric{p99, "ms"}
		rep.details["samples"] = map[string]any{"op_ms_p50": len(walls), "op_ms_p99": len(walls),
			"p99_supported": tailSupported(len(walls), 0.99), "setup_s": 1}
		rep.details["generate_ms"] = ms(generate)
		return nil
	}

	half := o.seconds / 2
	base, err := timed(half, minReplays/2, op(nil))
	if err != nil {
		return err
	}
	var traced []time.Duration
	gc, sh, err := profiled(o, func() error {
		traced, err = timed(half, minReplays/2, op(tr))
		return err
	})
	if err != nil {
		return err
	}
	fits := bench.FitProbeCount() - fits0
	rep.check(fits == 0, len(base)+len(traced), "warm replays fitted %d times", fits)
	gridLayers(rep, tr, len(traced), last, fits, 0)
	if err := repoLayers(rep, systems, cfg, dir); err != nil {
		return err
	}
	rep.set("openml.generate_ms", ms(generate), "ms")
	commonLayers(rep, gc, sh, len(traced), median(traced), median(base))
	return writeSpans(tr, o)
}

// gridLayers derives the bench, automl and repo layer metrics from the
// spans of ops traced grid operations, the last of which was last.
func gridLayers(rep *report, tr *tracer, ops int, last gridRun, fits, evaluated int64) {
	per := 1 / float64(max(ops, 1))
	kids := tr.childrenOf()
	gridIdx, grids := tr.closed("bench.grid")
	var wall, self, busy time.Duration
	for i, g := range grids {
		var ivs []interval
		for _, c := range kids[gridIdx[i]] {
			ivs = append(ivs, c.interval())
		}
		wall += g.end - g.start
		self += selfTime(g.interval(), ivs)
		busy += busyTime(kids[gridIdx[i]])
	}
	_, aggs := tr.closed("bench.aggregate")
	_, exps := tr.closed("bench.export")
	_, fitSpans := tr.closed("automl.fit")
	_, predSpans := tr.closed("automl.predict")

	rep.set("bench.grid_s", wall.Seconds()*per, "s")
	rep.set("bench.self_s", self.Seconds()*per, "s")
	util := 0.0
	if wall > 0 {
		util = busy.Seconds() / (2 * wall.Seconds())
	}
	rep.set("bench.worker_util", util, "ratio")
	rep.set("bench.cells", float64(len(last.records)), "count")
	rep.set("bench.fits", float64(fits)*per, "count")
	rep.set("bench.aggregate_ms", ms(busyTime(aggs))*per, "ms")
	rep.set("bench.export_ms", ms(busyTime(exps))*per, "ms")

	automlLayers(rep, fitSpans, predSpans, per, float64(evaluated)*per)
	rep.set("repo.hits", float64(last.repo.Hits), "count")
	rep.set("repo.misses", float64(last.repo.Misses), "count")
	rep.set("repo.damaged", float64(last.repo.Damaged), "count")
}

// automlLayers reports fit and predict time, in total, for the slowest
// fit and per system, scaled by per (1/operations).
func automlLayers(rep *report, fits, preds []span, per, evaluated float64) {
	bySystem := make(map[string]time.Duration)
	var slowest time.Duration
	for _, s := range fits {
		sys, _, _ := strings.Cut(s.key, "/")
		bySystem[sys] += s.end - s.start
		slowest = max(slowest, s.end-s.start)
	}
	rep.set("automl.fit_s", busyTime(fits).Seconds()*per, "s")
	rep.set("automl.fit_s_max", slowest.Seconds(), "s")
	for _, s := range bench.DefaultSystems() {
		rep.set("automl.fit_s."+s.Name(), bySystem[s.Name()].Seconds()*per, "s")
	}
	rep.set("automl.predict_s", busyTime(preds).Seconds()*per, "s")
	rep.set("automl.evaluated", evaluated, "count")
}

// repoLayers times a direct Get of every cell of the store at dir and a
// re-Put of the same entries into a fresh directory.
func repoLayers(rep *report, systems []automl.System, cfg bench.Config, dir string) error {
	rp, err := repo.Open(dir, repo.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	fp := bench.Fingerprint(systems, cfg)
	refs := bench.EnumerateCellRefs(systems, cfg)
	var gets []time.Duration
	entries := make([]*repo.Entry, len(refs))
	for round := 0; round < repoGetRounds; round++ {
		for i, ref := range refs {
			t0 := time.Now()
			e, damaged, err := rp.Get(fp, ref.ID())
			gets = append(gets, time.Since(t0))
			if err != nil {
				return err
			}
			rep.check(e != nil && !damaged, 1, "repository Get %s: hit %v, damaged %v", ref.ID(), e != nil, damaged)
			entries[i] = e
		}
	}
	fresh, err := repo.Open(filepath.Join(outDir, "work", "reput"), repo.Options{})
	if err != nil {
		return err
	}
	var puts []time.Duration
	for _, e := range entries {
		if e == nil {
			continue
		}
		t0 := time.Now()
		if err := fresh.Put(e); err != nil {
			return err
		}
		puts = append(puts, time.Since(t0))
	}
	files, size := 0, int64(0)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		size += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	q := quantiles(gets, 0.5, 0.99)
	rep.set("repo.get_us_p50", us(q[0]), "us")
	rep.set("repo.get_us_p99", us(q[1]), "us")
	rep.set("repo.get_bytes", float64(size)/float64(max(files, 1)), "B")
	rep.set("repo.put_us_p50", us(median(puts)), "us")
	rep.details["repo_samples"] = map[string]any{"get": len(gets), "get_p99_supported": tailSupported(len(gets), 0.99), "put": len(puts)}
	return nil
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func okFrac(rep *report) float64 {
	return 1 - float64(rep.failed)/float64(max(rep.attempted, 1))
}
