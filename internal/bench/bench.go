// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§3).
//
// The harness runs AutoML systems over the 39-dataset suite across search
// budgets and seeds on a modelled testbed, collects per-run records
// (test balanced accuracy, execution energy/time, per-instance inference
// energy/time), aggregates them with the paper's bootstrap procedure, and
// renders paper-style tables. All runs are virtual-time simulations: a
// grid that took the authors 28 days replays in minutes, deterministically.
package bench

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/automl"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/openml"
	"repro/internal/repo"
	"repro/internal/tabular"
)

// Config controls the experiment grid.
type Config struct {
	// Machine is the testbed model; nil uses the Xeon CPU testbed.
	Machine *hw.Machine
	// Cores is the allotted core count (paper §3.2 measures single
	// core); 0 means 1.
	Cores int
	// Scale is the dataset scale profile; zero value uses BenchScale.
	Scale openml.ScaleProfile
	// Datasets lists the dataset specs; empty uses the full Table 2
	// suite.
	Datasets []openml.Spec
	// Budgets lists the search budgets; empty uses the paper's
	// {10s, 30s, 1m, 5m}.
	Budgets []time.Duration
	// Seeds is the number of repeated runs per cell (paper uses 10).
	Seeds int
	// Seed is the base RNG seed.
	Seed uint64
	// GPUMode sets the execution meters' accelerator state.
	GPUMode energy.GPUMode
	// Faults configures deterministic fault injection; the zero value
	// injects nothing.
	Faults faults.Config
	// Retry is the per-cell retry policy.
	Retry RetryPolicy
	// Workers bounds the number of grid cells executed concurrently.
	// Zero (or negative) defaults to runtime.NumCPU(). Records, exports
	// and resume semantics are identical at every worker count, so
	// Workers is a pure throughput knob and deliberately not part of the
	// grid fingerprint.
	Workers int
	// Watchdog configures the per-cell stall watchdog. The zero value
	// disables it unless hang faults are injected, in which case
	// normalization arms it with defaults — a hang with no watchdog
	// wedges a worker forever.
	Watchdog WatchdogPolicy
	// Shard restricts execution to one content-addressed slice of the
	// grid (see ShardSpec). The zero value runs the whole grid. Like
	// Workers, sharding is an execution knob, not part of the grid's
	// identity: the cells a shard runs are bit-identical to the same
	// cells of an unsharded run, and a merge of the store the shards
	// wrote reproduces the unsharded exports byte for byte. It is
	// therefore excluded from the grid fingerprint, and a store filled
	// under one shard assignment resumes under any other.
	Shard ShardSpec
	// Repo, when set, is the content-addressed evaluation repository
	// every cell consults before executing: a stored cell replays its
	// record (byte-identical to a live run, zero fits), a miss executes
	// and writes its predictions, score and costs back (unless the
	// repository is read-only). Like Workers and Shard it is an
	// execution knob — where records come from, never what they are —
	// and is therefore excluded from the grid fingerprint; the
	// repository keys its entries by that fingerprint instead.
	Repo *repo.Repository
}

// RepoStats summarizes one grid run's evaluation-repository traffic.
type RepoStats struct {
	// Hits counts cells replayed from the repository without executing.
	Hits int
	// Misses counts cells the repository did not hold (they executed).
	Misses int
	// Damaged counts cells whose stored bytes failed verification and
	// were treated as misses (only possible with AllowDamage; without
	// it, damage aborts the run instead).
	Damaged int
	// Stored counts cells written back after executing.
	Stored int
}

// Consulted reports whether a repository took part in the run.
func (s RepoStats) Consulted() bool { return s != RepoStats{} }

// WatchdogPolicy is the stall watchdog's configuration: a cell whose
// virtual clock stops advancing across Probes consecutive real-time
// probe intervals is abandoned. Abandonment is advisory — a parked
// hang acknowledges with a typed stall and is recorded as a
// faults.Stall charged with the budget it burned and scored by the
// majority-class fallback, while a cell the probes merely caught
// between clock advances completes and keeps its real result. Stall
// records are therefore a pure function of the injected fault plan, so
// a given grid stalls identically at every worker count and probe
// interval; the probe timer is operator-facing real time and only sets
// how quickly a hang is reclaimed. Like Workers, the policy is a
// liveness knob and not part of the grid fingerprint.
type WatchdogPolicy struct {
	// Probes is how many consecutive probe intervals without virtual
	// progress abandon the cell. Zero disables the watchdog (unless hang
	// faults force it on, defaulting to DefaultWatchdogProbes).
	Probes int
	// Interval is the real-time probe period; zero defaults to 250ms.
	Interval time.Duration
}

// DefaultWatchdogProbes is the K the watchdog defaults to when hang
// faults are injected without an explicit policy.
const DefaultWatchdogProbes = 4

// Enabled reports whether the watchdog is armed.
func (w WatchdogPolicy) Enabled() bool { return w.Probes > 0 }

// RetryPolicy controls how the harness retries failed cells. Every
// attempt perturbs the system seed and runs on the same execution meter,
// so retried virtual time and energy stay charged to the cell — retries
// cost kWh, which the green accounting must include.
type RetryPolicy struct {
	// MaxAttempts is the total number of Fit attempts per cell (1 = no
	// retries). Zero defaults to 1, or 3 when fault injection is
	// enabled.
	MaxAttempts int
}

// PaperBudgets returns the paper's four search budgets.
func PaperBudgets() []time.Duration {
	return []time.Duration{10 * time.Second, 30 * time.Second, time.Minute, 5 * time.Minute}
}

// BenchScale is the dataset scale the harness defaults to: large enough
// that budgets bind on big datasets, small enough that the full grid runs
// on a laptop.
func BenchScale() openml.ScaleProfile {
	return openml.ScaleProfile{
		RowExponent: 0.52, MinRows: 100, MaxRows: 900,
		FeatureExponent: 0.62, MinFeatures: 4, MaxFeatures: 40,
		MaxClasses: 24,
	}
}

func (c Config) normalized() Config {
	if c.Machine == nil {
		c.Machine = hw.XeonGold6132()
	}
	if c.Cores < 1 {
		c.Cores = 1
	}
	if c.Scale == (openml.ScaleProfile{}) {
		c.Scale = BenchScale()
	}
	if len(c.Datasets) == 0 {
		c.Datasets = openml.Suite()
	}
	if len(c.Budgets) == 0 {
		c.Budgets = PaperBudgets()
	}
	if c.Seeds < 1 {
		c.Seeds = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Retry.MaxAttempts < 1 {
		if c.Faults.Enabled() {
			c.Retry.MaxAttempts = 3
		} else {
			c.Retry.MaxAttempts = 1
		}
	}
	if c.Workers < 1 {
		c.Workers = runtime.NumCPU()
	}
	if c.Faults.HangRate > 0 && c.Watchdog.Probes < 1 {
		// Injected hangs park forever; running them without a watchdog
		// would wedge a worker, so arm it.
		c.Watchdog.Probes = DefaultWatchdogProbes
	}
	if c.Watchdog.Probes > 0 && c.Watchdog.Interval <= 0 {
		c.Watchdog.Interval = 250 * time.Millisecond
	}
	return c
}

// Record is one (system, dataset, budget, seed) measurement.
type Record struct {
	System  string
	Dataset string
	Budget  time.Duration
	Seed    uint64

	// TestScore is the balanced accuracy on the held-out test split.
	TestScore float64
	// ExecKWh and ExecTime are the execution stage's energy and actual
	// (possibly overrun) duration.
	ExecKWh  float64
	ExecTime time.Duration
	// InferKWhPerInst and InferTimePerInst are the inference stage's
	// per-instance energy and compute time.
	InferKWhPerInst  float64
	InferTimePerInst time.Duration
	// Evaluated counts pipelines trained during search.
	Evaluated int
	// Failure classifies what went wrong during the run (the
	// internal/faults taxonomy); empty means a clean run. With
	// faults.MeterDropout the score is valid but the energy readings are
	// partial; other kinds combined with Fallback mean the fallback
	// predictor supplied the score and Failure keeps the root cause.
	Failure faults.Kind `json:",omitempty"`
	// Fallback reports that the majority-class fallback predictor
	// produced TestScore after retries were exhausted (AMLB semantics).
	Fallback bool `json:",omitempty"`
	// Attempts counts the Fit attempts consumed; values above 1 mean
	// retries, whose energy is included in ExecKWh.
	Attempts int `json:",omitempty"`
}

// Scored reports whether the record carries a usable TestScore: clean
// runs, fallback-scored runs and meter-dropout runs do; hard failures
// (no predictor ever produced predictions) do not.
func (r Record) Scored() bool {
	return r.Failure == faults.None || r.Failure == faults.MeterDropout || r.Fallback
}

// EnergyValid reports whether the record's energy measurements are
// trustworthy — meter dropout loses readings mid-run, so its energy
// fields undercount.
func (r Record) EnergyValid() bool { return r.Failure != faults.MeterDropout }

// Kind folds the record into the failure taxonomy the way reports count
// it: fallback-scored records count as faults.FallbackUsed, everything
// else as the root-cause kind (empty for clean runs).
func (r Record) Kind() faults.Kind {
	if r.Fallback {
		return faults.FallbackUsed
	}
	return r.Failure
}

// DefaultSystems returns the benchmark's system lineup: the paper's
// seven systems (§2.2, excluding CAML(tuned), which needs a
// development-stage artifact) plus the zero-shot portfolio system the
// evaluation repository enables.
func DefaultSystems() []automl.System {
	return []automl.System{
		automl.NewTabPFN(),
		automl.NewCAML(),
		automl.NewFLAML(),
		automl.NewAutoGluon(),
		automl.NewAutoSklearn1(),
		automl.NewAutoSklearn2(),
		automl.NewTPOT(),
		automl.NewZeroShot(),
	}
}

// RunGrid measures every (system × dataset × budget × seed) cell and
// returns the records. Budgets below a system's minimum are skipped, as in
// the paper (ASKL starts at 30s, TPOT at 1m, TabPFN runs once per
// budget regardless). The error reports a repository that refused a
// damaged cell or failed a write; no records are returned with it.
func RunGrid(systems []automl.System, cfg Config) ([]Record, error) {
	records, _, err := runGrid(systems, cfg, nil)
	return records, err
}

// runGrid executes the grid: it enumerates every cell (hoisting dataset
// generation, train/test splits and repository consultation out of the
// execution path), then runs the cells on a pool of cfg.Workers
// workers, writing each executed cell back to cfg.Repo. Cells are
// independent — their RNG streams derive from cell identity, not shared
// state — so a resumed run (a warm replay of a killed run's store)
// executes the remaining cells exactly as an uninterrupted run would,
// and the returned records are byte-identical at every worker count.
// crash, when set, is the chaos hook every store write passes through.
func runGrid(systems []automl.System, cfg Config, crash crashFn) ([]Record, RepoStats, error) {
	cfg = cfg.normalized()
	inj := faults.New(cfg.Faults)
	fingerprint := ""
	if cfg.Repo != nil || cfg.Shard.Enabled() {
		fingerprint = Fingerprint(systems, cfg)
	}
	cells, stats, err := enumerateGrid(systems, cfg, inj, fingerprint)
	if err != nil {
		return nil, stats, err
	}
	st := &cellStore{rp: cfg.Repo, fingerprint: fingerprint, crash: crash}
	records, err := runCells(cells, cfg, inj, st)
	stats.Stored = int(st.stored.Load())
	return records, stats, err
}

// generateDataset materializes a dataset spec, retrying transient
// injected generation faults under the cell retry policy.
func generateDataset(spec openml.Spec, cfg Config, inj *faults.Injector) (*tabular.Frame, error) {
	var lastErr error
	for attempt := 0; attempt < cfg.Retry.MaxAttempts; attempt++ {
		if err := inj.DatasetFault(spec.Name, cfg.Seed, attempt); err != nil {
			lastErr = err
			continue
		}
		return openml.Generate(spec, cfg.Scale, cfg.Seed), nil
	}
	return nil, lastErr
}

// fitProbe counts every Fit attempt the process performs. It exists for
// the repository's zero-fit guarantee: a warm (fully cache-hit) rerun
// must not train anything, and tests assert it through this counter
// rather than trusting hit statistics.
var fitProbe atomic.Int64

// FitProbeCount reports the Fit attempts performed since the last reset.
func FitProbeCount() int64 { return fitProbe.Load() }

// ResetFitProbe zeroes the fit counter (test setup).
func ResetFitProbe() { fitProbe.Store(0) }

// safeFit invokes sys.Fit with panic recovery: a crashing trainer is
// converted into a typed fit-panic error so one cell can never abort the
// grid.
func safeFit(sys automl.System, train tabular.View, opts automl.Options) (res *automl.Result, err error) {
	fitProbe.Add(1)
	defer func() {
		if r := recover(); r != nil {
			res = nil
			if fe, ok := r.(*faults.Error); ok {
				err = fe
				return
			}
			err = &faults.Error{Kind: faults.FitPanic, Site: "fit/" + sys.Name(), Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return sys.Fit(train, opts)
}

// safePredictProba invokes res.PredictProbaCost with panic recovery,
// converting panics into typed predict-error faults. The probabilities
// and their cost come back alongside so the caller can both derive
// labels (metrics.ArgmaxRows) and persist the prediction slab.
func safePredictProba(res *automl.Result, x tabular.View, meter *energy.Meter) (proba [][]float64, cost ml.Cost, err error) {
	defer func() {
		if r := recover(); r != nil {
			proba = nil
			if fe, ok := r.(*faults.Error); ok {
				err = fe
				return
			}
			err = &faults.Error{Kind: faults.PredictError, Site: "predict/" + res.System, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return res.PredictProbaCost(x, meter)
}

// cellPayload is what a freshly executed cell contributes to the
// evaluation repository beyond its Record: the prediction probabilities
// the score came from, their inference cost, and the winning pipeline
// configuration (nil for systems without a per-config recipe).
type cellPayload struct {
	proba     [][]float64
	classes   int
	inferCost ml.Cost
	config    []byte
	score     float64
}

// runCell executes one grid cell under the resilience policy: panics
// become typed errors, failed attempts are retried with perturbed seeds
// on the same meter (their energy stays charged), and exhausted retries
// degrade to the majority-class fallback predictor so the cell still
// yields a score.
func runCell(sys automl.System, train, test tabular.View, budget time.Duration, cfg Config, seed uint64, inj *faults.Injector) (Record, *cellPayload) {
	rec := Record{
		System:  sys.Name(),
		Dataset: train.Name(),
		Budget:  budget,
		Seed:    seed,
	}
	execMeter := energy.NewMeter(cfg.Machine, cfg.Cores)
	execMeter.SetGPUMode(cfg.GPUMode)

	var res *automl.Result
	if oom := inj.CheckOOM(train.Name(), train.Rows(), train.Features()); oom != nil {
		// OOM is deterministic in the memory model; retrying cannot
		// clear it, so the cell degrades immediately.
		rec.Failure = faults.OOM
	} else {
		for attempt := 0; attempt < cfg.Retry.MaxAttempts; attempt++ {
			rec.Attempts = attempt + 1
			plan := inj.CellPlan(sys.Name(), train.Name(), budget, seed, uint64(attempt))
			// Attempt 0 keeps the historical seed derivation so
			// fault-free grids reproduce pre-resilience records.
			opts := automl.Options{Budget: budget, Meter: execMeter, Seed: cfg.Seed*31 + seed + uint64(attempt)*0x9e37}
			r, stalled, err := fitWithWatchdog(faults.Wrap(sys, plan), train, opts, cfg.Watchdog)
			if stalled {
				// The attempt stopped making virtual progress and was
				// abandoned. A wedged trainer is not retried — a retry
				// would gamble another stall-detection latency on the
				// same cell — so the cell degrades straight to the
				// fallback, keeping the budget the stall burned charged.
				rec.Failure = faults.Stall
				break
			}
			if err != nil {
				rec.Failure = faults.KindOf(err, faults.FitError)
				continue
			}
			res = r
			rec.Failure = faults.None
			break
		}
	}
	// The meter totals cover every attempt: a stage-level failure keeps
	// the execution measurements, and retry energy is part of the cell's
	// real cost.
	rec.ExecKWh = execMeter.Tracker().KWh(energy.Execution)
	rec.ExecTime = execMeter.Clock().Now()
	if execMeter.Dropped() && rec.Failure == faults.None {
		rec.Failure = faults.MeterDropout
	}

	if res == nil {
		// Retries exhausted: degrade to the constant majority-class
		// predictor (AMLB semantics) so the cell still yields a score.
		res = automl.MajorityResult(sys.Name(), train)
		rec.Fallback = true
	}
	rec.Evaluated = res.Evaluated

	// Inference is measured separately on a single core (per-instance
	// profile, paper §3.2). Systems whose predictor cannot use the GPU
	// leave it idling when drivers are loaded (paper Table 3).
	inferMeter := energy.NewMeter(cfg.Machine, 1)
	if cfg.GPUMode != energy.GPUOff {
		if res.GPUInference {
			inferMeter.SetGPUMode(energy.GPUActive)
		} else {
			inferMeter.SetGPUMode(energy.GPUIdle)
		}
	}
	var inferCost ml.Cost
	proba, cost, err := safePredictProba(res, test, inferMeter)
	inferCost.Add(cost)
	searched := res
	if err != nil {
		if rec.Failure == faults.None {
			rec.Failure = faults.KindOf(err, faults.PredictError)
		}
		// The execution measurements above survive this stage-level
		// failure; only the score degrades to the fallback predictor.
		fb := automl.MajorityResult(sys.Name(), train)
		proba, cost, err = safePredictProba(fb, test, inferMeter)
		inferCost.Add(cost)
		if err != nil {
			return rec, nil // no predictions: stored as a zero-row cell
		}
		rec.Fallback = true
	}
	pred := metrics.ArgmaxRows(proba)
	rec.TestScore = metrics.BalancedAccuracy(test.LabelsInto(nil), pred, test.Classes())
	n := float64(test.Rows())
	if n > 0 {
		rec.InferKWhPerInst = inferMeter.Tracker().KWh(energy.Inference) / n
		rec.InferTimePerInst = time.Duration(float64(inferMeter.Tracker().BusyTime(energy.Inference)) / n)
	}
	payload := &cellPayload{
		proba:     proba,
		classes:   test.Classes(),
		inferCost: inferCost,
		score:     rec.TestScore,
	}
	// The winning configuration feeds portfolio meta-learning — but
	// only when the search's own recipe produced the stored score; a
	// fallback's constant predictions prove nothing about the config.
	if !rec.Fallback && len(searched.BestConfig) > 0 {
		if cfgBytes, merr := json.Marshal(searched.BestConfig); merr == nil {
			payload.config = cfgBytes
		}
	}
	return rec, payload
}

// CellKey aggregates records by (system, budget).
type CellKey struct {
	System string
	Budget time.Duration
}

// CellStats are the bootstrap-aggregated measurements of one (system,
// budget) cell across datasets and seeds.
type CellStats struct {
	Key CellKey
	// Score is the bootstrap mean ± std of balanced accuracy (paper
	// §3.1: resample one run per dataset with replacement).
	Score metrics.Summary
	// ExecKWh and InferKWhPerInst are means across datasets of per-
	// dataset mean energy.
	ExecKWh         float64
	ExecKWhStd      float64
	InferKWhPerInst float64
	// InferTimePerInst is the mean per-instance inference compute time.
	InferTimePerInst time.Duration
	// ExecTime is the mean ± std of the actual execution duration.
	ExecTime    time.Duration
	ExecTimeStd time.Duration
	// Runs counts the records whose score entered the aggregation
	// (clean, fallback-scored and meter-dropout runs).
	Runs int
	// Total counts every record of the cell, including hard failures —
	// failed runs are reported, not silently excluded.
	Total int
	// Failures counts records per root-cause failure kind; clean runs
	// do not appear. Nil when the cell saw no failures.
	Failures map[faults.Kind]int
	// Fallbacks counts records scored by the majority-class fallback.
	Fallbacks int
}

// FailureRate is the fraction of the cell's records that hit any fault
// (including those rescued by retries' fallback or with partial energy).
func (s CellStats) FailureRate() float64 {
	if s.Total == 0 {
		return 0
	}
	n := 0
	for _, c := range s.Failures {
		n += c
	}
	return float64(n) / float64(s.Total)
}

// FallbackRate is the fraction of the cell's records scored by the
// fallback predictor.
func (s CellStats) FallbackRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Fallbacks) / float64(s.Total)
}

// Aggregate groups records into per-(system, budget) statistics. Failed
// records are counted into the cell's failure and fallback rates rather
// than silently dropped; fallback-scored runs contribute their
// (majority-class) score as the paper's reference harness does, and
// meter-dropout runs contribute their score but not their partial
// energy readings.
func Aggregate(records []Record, rng *rand.Rand) []CellStats {
	type accum struct {
		scoreByDataset map[string][]float64
		execByDataset  map[string][]float64
		inferPerInst   []float64
		inferTimes     []float64
		execTimes      []float64
		runs           int
		total          int
		fallbacks      int
		failures       map[faults.Kind]int
	}
	cells := make(map[CellKey]*accum)
	for _, r := range records {
		key := CellKey{System: r.System, Budget: r.Budget}
		a := cells[key]
		if a == nil {
			a = &accum{
				scoreByDataset: make(map[string][]float64),
				execByDataset:  make(map[string][]float64),
			}
			cells[key] = a
		}
		a.total++
		if r.Failure != faults.None {
			if a.failures == nil {
				a.failures = make(map[faults.Kind]int)
			}
			a.failures[r.Failure]++
		}
		if r.Fallback {
			a.fallbacks++
		}
		if !r.Scored() {
			continue
		}
		a.scoreByDataset[r.Dataset] = append(a.scoreByDataset[r.Dataset], r.TestScore)
		if r.EnergyValid() {
			a.execByDataset[r.Dataset] = append(a.execByDataset[r.Dataset], r.ExecKWh)
			a.inferPerInst = append(a.inferPerInst, r.InferKWhPerInst)
			a.inferTimes = append(a.inferTimes, r.InferTimePerInst.Seconds())
			a.execTimes = append(a.execTimes, r.ExecTime.Seconds())
		}
		a.runs++
	}

	// Cells must be processed in sorted key order, not map order: the
	// bootstrap below draws from the shared rng, so the order cells
	// consume it — and the order datasets feed each bootstrap — would
	// otherwise vary run to run and leak into every exported stat.
	keys := make([]CellKey, 0, len(cells))
	for key := range cells {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].System != keys[j].System {
			return keys[i].System < keys[j].System
		}
		return keys[i].Budget < keys[j].Budget
	})

	out := make([]CellStats, 0, len(cells))
	for _, key := range keys {
		a := cells[key]
		stats := CellStats{Key: key, Runs: a.runs, Total: a.total, Failures: a.failures, Fallbacks: a.fallbacks}
		perDataset := make([][]float64, 0, len(a.scoreByDataset))
		for _, ds := range sortedDatasets(a.scoreByDataset) {
			perDataset = append(perDataset, a.scoreByDataset[ds])
		}
		stats.Score = metrics.Bootstrap(perDataset, 500, rng)

		execMeans := make([]float64, 0, len(a.execByDataset))
		for _, ds := range sortedDatasets(a.execByDataset) {
			execMeans = append(execMeans, metrics.MeanStd(a.execByDataset[ds]).Mean)
		}
		execStats := metrics.MeanStd(execMeans)
		stats.ExecKWh = execStats.Mean
		stats.ExecKWhStd = execStats.Std
		stats.InferKWhPerInst = metrics.MeanStd(a.inferPerInst).Mean
		stats.InferTimePerInst = time.Duration(metrics.MeanStd(a.inferTimes).Mean * float64(time.Second))
		timeStats := metrics.MeanStd(a.execTimes)
		stats.ExecTime = time.Duration(timeStats.Mean * float64(time.Second))
		stats.ExecTimeStd = time.Duration(timeStats.Std * float64(time.Second))
		out = append(out, stats)
	}
	return out
}

func sortedDatasets(m map[string][]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BySystem indexes cell stats by system name.
func BySystem(stats []CellStats) map[string][]CellStats {
	out := make(map[string][]CellStats)
	for _, s := range stats {
		out[s.Key.System] = append(out[s.Key.System], s)
	}
	return out
}

// BestCell returns the cell with the highest mean score for the system.
func BestCell(stats []CellStats, system string) (CellStats, bool) {
	var best CellStats
	found := false
	for _, s := range stats {
		if s.Key.System != system {
			continue
		}
		if !found || s.Score.Mean > best.Score.Mean {
			best = s
			found = true
		}
	}
	return best, found
}

// Systems lists the distinct system names in the stats, sorted.
func Systems(stats []CellStats) []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range stats {
		if !seen[s.Key.System] {
			seen[s.Key.System] = true
			names = append(names, s.Key.System)
		}
	}
	sort.Strings(names)
	return names
}

// FormatBudget renders a budget the way the paper does (10s, 30s, 1min,
// 5min).
func FormatBudget(d time.Duration) string {
	if d < time.Minute {
		return fmt.Sprintf("%ds", int(d.Seconds()))
	}
	return fmt.Sprintf("%dmin", int(d.Minutes()))
}
