package bench

import (
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/repo"
	"repro/internal/vclock"
)

// CoordinatorConfig drives a multi-process sharded sweep: the
// coordinator spawns one subprocess per shard, each running its
// content-addressed slice of the grid into one shared store, and
// babysits them — crashed shards restart and resume from the cells
// they already stored, wedged shards are reclaimed by a process-level
// deadline, and a shard that exhausts its restart budget degrades the
// sweep instead of aborting it.
type CoordinatorConfig struct {
	// Shards is the number of grid slices (and subprocesses). Must be
	// positive.
	Shards int
	// MaxRestarts bounds how many times one shard is relaunched after
	// its first attempt (crashes and deadline kills both count). Zero
	// means a shard gets exactly one attempt.
	MaxRestarts int
	// Deadline is the process-level straggler policy: a shard whose
	// count of stored cells stops growing across Probes consecutive
	// Interval-long real-time windows is presumed wedged beyond what its
	// in-process watchdog can reclaim (hung runtime, stopped process)
	// and is SIGKILLed, then restarted under the normal restart budget.
	// The zero value disables deadline kills. Store growth is the
	// process-level analog of the cell watchdog's virtual-clock probes:
	// the probe cadence is operator real time, but the verdict depends
	// only on whether durable progress happened.
	Deadline WatchdogPolicy
	// Repo is the writable store every shard writes into — the sweep's
	// only output, which the deadline probes and callers merge.
	Repo *repo.Repository
	// Fingerprint and Cells identify the grid (Fingerprint and
	// EnumerateCellRefs of it), so the deadline probe knows which cell
	// files each shard owns.
	Fingerprint string
	Cells       []CellRef
	// Command builds the subprocess for one shard: typically the
	// running binary re-invoked with -shard i/N and the same -repo. The
	// coordinator starts, kills, and restarts what this returns; each
	// call must return a fresh unstarted Cmd. Restarted shards resume
	// from the store, so the command must be idempotent under
	// re-execution.
	Command func(shard ShardSpec) *exec.Cmd
}

// ShardStatus is the coordinator's account of one shard.
type ShardStatus struct {
	// Shard is the slice this status describes.
	Shard ShardSpec
	// Launches counts subprocess launches, including restarts.
	Launches int
	// DeadlineKills counts launches the straggler deadline reclaimed.
	DeadlineKills int
	// Completed reports whether the shard eventually exited cleanly.
	Completed bool
	// Err describes the final failure of a shard that exhausted its
	// restart budget; empty for completed shards.
	Err string
}

// CoordinatorResult summarizes a coordinated sweep.
type CoordinatorResult struct {
	// Shards holds one status per shard, indexed by shard number.
	Shards []ShardStatus
}

// Failed returns the shard specs that never completed. An empty result
// means the whole grid is in the store.
func (r *CoordinatorResult) Failed() []ShardSpec {
	var failed []ShardSpec
	for _, s := range r.Shards {
		if !s.Completed {
			failed = append(failed, s.Shard)
		}
	}
	return failed
}

// RunCoordinator executes a sharded sweep across subprocesses. It
// returns once every shard has either completed or exhausted its
// restart budget; per-shard failure is reported in the result, not as
// an error — a dead shard costs its cells (reported as shard failures
// downstream), never the sweep. The error return covers coordinator-
// level failures only (unusable configuration or store).
func RunCoordinator(cfg CoordinatorConfig) (*CoordinatorResult, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("bench: coordinator needs a positive shard count, got %d", cfg.Shards)
	}
	if cfg.Command == nil {
		return nil, fmt.Errorf("bench: coordinator needs a shard command builder")
	}
	if cfg.MaxRestarts < 0 {
		return nil, fmt.Errorf("bench: coordinator restart budget %d must not be negative", cfg.MaxRestarts)
	}
	if cfg.Repo == nil || cfg.Repo.ReadOnly() {
		return nil, fmt.Errorf("bench: coordinator needs a writable store: it is the shards' only output")
	}

	res := &CoordinatorResult{Shards: make([]ShardStatus, cfg.Shards)}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		res.Shards[i] = ShardStatus{Shard: ShardSpec{Index: i, Count: cfg.Shards}}
		wg.Add(1)
		go func(st *ShardStatus) {
			defer wg.Done()
			runShardProcess(cfg, st)
		}(&res.Shards[i])
	}
	wg.Wait()
	return res, nil
}

// runShardProcess babysits one shard: launch, watch, restart. Each
// launch resumes from the store, so the cells lost to a kill are only
// those in flight at the instant of death — the same contract a
// single-process warm replay has, lifted to process granularity.
func runShardProcess(cfg CoordinatorConfig, st *ShardStatus) {
	for attempt := 0; attempt <= cfg.MaxRestarts; attempt++ {
		st.Launches++
		killed, err := launchAndWatch(cfg, st)
		if err == nil {
			st.Completed = true
			st.Err = ""
			return
		}
		if killed {
			st.DeadlineKills++
		}
		st.Err = err.Error()
	}
}

// launchAndWatch runs one shard subprocess attempt to completion,
// SIGKILLing it if the straggler deadline fires. killed reports a
// deadline kill (as opposed to the process dying on its own).
func launchAndWatch(cfg CoordinatorConfig, st *ShardStatus) (killed bool, err error) {
	cmd := cfg.Command(st.Shard)
	if cmd == nil {
		return false, fmt.Errorf("bench: shard %s: command builder returned nil", st.Shard)
	}
	if err := cmd.Start(); err != nil {
		return false, fmt.Errorf("bench: shard %s: starting subprocess: %w", st.Shard, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// The process-level deadline probes the shard's stored cells: a
	// shard making progress stores cells, and each one is a new file at
	// a path the shard owns. The in-process watchdog already reclaims
	// hung *cells*; this deadline reclaims hung *processes* — a wedged
	// runtime, a livelocked pool — that the in-process machinery can no
	// longer save. Without a deadline the probe channel stays nil.
	var probe <-chan time.Time
	var owned []string
	stall := vclock.NewStallCounter(cfg.Deadline.Probes)
	if cfg.Deadline.Enabled() {
		for _, ref := range cfg.Cells {
			if st.Shard.Owns(cfg.Fingerprint, ref.ID()) {
				owned = append(owned, cfg.Repo.CellPath(cfg.Fingerprint, ref.ID()))
			}
		}
		//greenlint:allow wallclock coordinator process-deadline probe timer over store growth is operator-facing real time; kill/restart/resume is byte-identity-safe, so the verdict never reaches a measured quantity
		ticker := time.NewTicker(cfg.Deadline.Interval)
		defer ticker.Stop()
		probe = ticker.C
		stall.Observe(storedCells(owned))
	}
	for {
		select {
		case werr := <-done:
			if werr != nil {
				return false, fmt.Errorf("bench: shard %s: subprocess failed: %w", st.Shard, werr)
			}
			return false, nil
		case <-probe:
			if !stall.Observe(storedCells(owned)) {
				continue
			}
			// No durable progress across the deadline window: reclaim the
			// process. SIGKILL, not SIGTERM — a wedged process may not
			// service signals, and the store makes abrupt death safe.
			cmd.Process.Kill()
			<-done
			return true, fmt.Errorf("bench: shard %s: no store progress across %d probes — straggler killed", st.Shard, cfg.Deadline.Probes)
		}
	}
}

// storedCells counts the cell files present among paths: one stat per
// cell, no decode. Atomic writes make a present file a complete cell.
func storedCells(paths []string) int64 {
	var n int64
	for _, p := range paths {
		if _, err := os.Stat(p); err == nil {
			n++
		}
	}
	return n
}
