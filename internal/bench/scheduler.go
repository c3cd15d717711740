package bench

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automl"
	"repro/internal/faults"
	"repro/internal/openml"
	"repro/internal/tabular"
	"repro/internal/vclock"
)

// gridCell is one enumerated (system × dataset × budget × seed) cell of
// the benchmark grid, carrying everything a worker needs to execute it:
// the shared, read-only train/test split (materialized once per
// (dataset, seed) during enumeration), the cell's identity-derived seed,
// and — on a warm replay — the stored record that makes execution
// unnecessary.
type gridCell struct {
	sys      automl.System
	spec     openml.Spec
	budget   time.Duration
	cellSeed uint64
	train    tabular.View
	test     tabular.View
	// dsErr records a dataset that never materialized; every dependent
	// cell yields a failure record instead of silently shrinking the
	// grid.
	dsErr error
	// cached is the already-completed record of the cell, decoded out
	// of the evaluation repository.
	cached *Record
	// id is the cell's repository key.
	id string
}

// enumerateGrid walks the grid in its canonical order and materializes
// every immutable per-cell input up front: dataset generation and
// train/test splits happen here, once per dataset and per (dataset,
// seed), so workers share them read-only and never recompute state that
// does not depend on the cell's own execution. Every RNG stream involved
// derives from cell identity (dataset index, seed index, base seed) —
// never from execution order — which is what lets the cells run in any
// order, on any number of workers, and still reproduce the one-worker grid
// exactly.
//
// With cfg.Shard set, only the cells the shard owns are enumerated.
// Ownership is a pure function of (grid fingerprint, cell identity), and
// dataset generation and splits are keyed by identity too, so the cells
// a shard materializes are bit-identical to the same cells of an
// unsharded enumeration. Datasets and splits are generated lazily — a
// shard that owns no cell of a dataset never pays for (or rolls fault
// decisions about) generating it; the injector's dataset-fault draws
// are site-keyed, so skipping them cannot perturb any other decision.
//
// With cfg.Repo set, every cell consults the repository: a verified
// entry replays its record (the cell never executes), a miss runs live,
// and damage follows the repository's policy — counted under
// AllowDamage, otherwise aborting enumeration. The returned RepoStats
// reports that traffic (Stored is filled in later by the runners).
func enumerateGrid(systems []automl.System, cfg Config, inj *faults.Injector, fingerprint string) ([]gridCell, RepoStats, error) {
	var stats RepoStats
	owns := func(string) bool { return true }
	if cfg.Shard.Enabled() {
		owns = func(id string) bool { return cfg.Shard.Owns(fingerprint, id) }
	}
	var cells []gridCell
	for di, spec := range cfg.Datasets {
		var ds *tabular.Frame
		var dsErr error
		generated := false
		for seed := 0; seed < cfg.Seeds; seed++ {
			var train, test tabular.View
			split := false
			cellSeed := uint64(seed)*1009 + uint64(di)
			for _, sys := range systems {
				for _, budget := range cfg.Budgets {
					if budget < sys.MinBudget() {
						continue
					}
					id := cellID(sys.Name(), spec.Name, budget, cellSeed)
					if !owns(id) {
						continue
					}
					if !generated {
						ds, dsErr = generateDataset(spec, cfg, inj)
						generated = true
					}
					if !split && dsErr == nil {
						splitRng := rand.New(rand.NewPCG(cfg.Seed+uint64(seed)*101, uint64(di)))
						train, test = ds.All().TrainTestSplit(splitRng)
						split = true
					}
					cell := gridCell{
						sys:      sys,
						spec:     spec,
						budget:   budget,
						cellSeed: cellSeed,
						train:    train,
						test:     test,
						dsErr:    dsErr,
						id:       id,
					}
					if cfg.Repo != nil {
						rec, hit, damaged, err := repoLookup(cfg.Repo, fingerprint, id)
						if err != nil {
							return nil, stats, err
						}
						switch {
						case damaged:
							stats.Damaged++
							stats.Misses++
						case hit:
							stats.Hits++
							cell.cached = &rec
						default:
							stats.Misses++
						}
					}
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells, stats, nil
}

// fitOutcome carries one Fit attempt's result across the watchdog
// boundary.
type fitOutcome struct {
	res *automl.Result
	err error
}

// fitWithWatchdog runs one Fit attempt under the stall watchdog. The
// attempt executes on its own goroutine while the watchdog samples the
// cell's virtual clock through the concurrency-safe Probe mirror; an
// attempt whose virtual clock fails to advance across wd.Probes
// consecutive probe intervals has its abandon channel closed.
// Abandonment is advisory and cooperative: the watchdog then waits for
// the attempt to return and believes what it says. A parked hang — the
// injected kind — acknowledges immediately with a typed stall error
// and is recorded as stalled; a cell the probe timer merely caught
// between two virtual-clock advances (scheduling jitter, a slow
// machine, -race) runs to completion and its real result stands.
// Whether a cell stalls is therefore a pure function of the injected
// fault plan — never of real time — so records stay byte-identical at
// every worker count and probe interval. The flip side is that a
// trainer which neither finishes nor acknowledges would keep its
// worker parked (Go cannot kill a goroutine); every in-repo trainer
// terminates in bounded virtual time or parks on the abandon channel,
// so the wait is bounded in practice. With the watchdog disabled this
// is exactly safeFit.
func fitWithWatchdog(sys automl.System, train tabular.View, opts automl.Options, wd WatchdogPolicy) (res *automl.Result, stalled bool, err error) {
	if !wd.Enabled() {
		res, err = safeFit(sys, train, opts)
		return res, false, err
	}
	abandon := make(chan struct{})
	opts.Abandon = abandon
	clock := opts.Meter.Clock()
	done := make(chan fitOutcome, 1)
	go func() {
		r, ferr := safeFit(sys, train, opts)
		done <- fitOutcome{res: r, err: ferr}
	}()
	//greenlint:allow wallclock watchdog probe timer is operator-facing real time; stall decisions depend only on virtual progress
	ticker := time.NewTicker(wd.Interval)
	defer ticker.Stop()
	stall := vclock.NewStallCounter(wd.Probes)
	stall.Observe(int64(clock.Probe()))
	for {
		select {
		case out := <-done:
			return out.res, false, out.err
		case <-ticker.C:
			if !stall.Observe(int64(clock.Probe())) {
				continue
			}
			// No virtual progress across wd.Probes intervals: the cell
			// looks wedged. Close the abandon channel and wait for the
			// attempt to unwind; receiving its outcome gives the caller a
			// happens-before edge, so reading the shared meter afterwards
			// is race-free. Only a typed stall acknowledgement — the
			// parked hang unwinding — records a stall; a cell that was
			// merely slow between clock advances returns its real result,
			// which keeps stall records independent of real time.
			close(abandon)
			out := <-done
			if faults.KindOf(out.err, faults.None) == faults.Stall {
				return nil, true, nil
			}
			return out.res, false, out.err
		}
	}
}

// runCellTask executes one enumerated cell and returns its record plus
// the repository payload (nil when the cell produced no predictions).
func runCellTask(c gridCell, cfg Config, inj *faults.Injector) (Record, *cellPayload) {
	if c.dsErr != nil {
		return Record{
			System: c.sys.Name(), Dataset: c.spec.Name,
			Budget: c.budget, Seed: c.cellSeed,
			Failure: faults.KindOf(c.dsErr, faults.DatasetError), Attempts: cfg.Retry.MaxAttempts,
		}, nil
	}
	return runCell(c.sys, c.train, c.test, c.budget, cfg, c.cellSeed, inj)
}

// runCells executes the cells on a bounded worker pool — the grid's
// only concurrency: every kernel inside a cell runs sequentially. Each
// cell is independent — its RNG streams derive from cell identity, its
// meters are private, the shared datasets are read-only and the fault
// injector is pure — so workers need no coordination: each writes its
// own cell file. Results land in a slice indexed by enumeration order,
// which makes the returned records (and therefore every export and
// figure) byte-identical at any worker count, one included; only the
// order in which cells reach the store varies, and replay looks cells
// up by identity, not by write order. A store failure drains the pool
// and returns no records.
func runCells(cells []gridCell, cfg Config, inj *faults.Injector, st *cellStore) ([]Record, error) {
	records := make([]Record, len(cells))
	work := make(chan int)
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}

	workers := cfg.Workers
	if workers > len(cells) {
		workers = len(cells)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range work {
				if failed.Load() {
					continue // drain remaining work after a failure
				}
				rec, payload := runCellTask(cells[ci], cfg, inj)
				if err := st.put(cells[ci].id, rec, payload); err != nil {
					fail(err)
					continue
				}
				records[ci] = rec
			}
		}()
	}
	for ci := range cells {
		if c := cells[ci]; c.cached != nil {
			records[ci] = *c.cached
			continue
		}
		work <- ci
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return records, nil
}
