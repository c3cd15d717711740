package bench

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/repo"
)

// The shard chaos tests exercise real process death: shard subprocesses
// are SIGKILLed — by themselves at deterministic store crash points, or
// by the coordinator's straggler deadline — and the merge of the store
// they share must still be byte-identical to an unsharded run. The
// subprocesses are this test binary re-executed into the helper entry
// point below (the standard helper-process pattern), so they run the
// exact library code under test with no extra build step.
const (
	shardHelperEnv        = "GREENBENCH_SHARD_HELPER" // "run" executes a shard, "hang" parks forever
	shardHelperShardEnv   = "GREENBENCH_HELPER_SHARD"
	shardHelperStoreEnv   = "GREENBENCH_HELPER_STORE"
	shardHelperWorkersEnv = "GREENBENCH_HELPER_WORKERS"
)

// chaosKillEnv, when set, makes a helper shard SIGKILL its own process
// at a deterministic store crash point — the chaos harness's way of
// killing whole shard subprocesses the way a real OOM killer or node
// failure would, with no deferred cleanup and no flushing. The value is
// "<mode>@<seq>": the process dies at its seq-th (zero-based) store
// write in one of the modes chaosKill describes; unset means off.
const chaosKillEnv = "GREENBENCH_CHAOS_KILL"

// chaosKillHookFromEnv builds the crash hook the chaos environment
// variable requests, or nil.
func chaosKillHookFromEnv() crashFn {
	mode, seqStr, ok := strings.Cut(os.Getenv(chaosKillEnv), "@")
	if !ok {
		return nil
	}
	seq, err := strconv.Atoi(seqStr)
	if err != nil {
		return nil
	}
	hook, _ := chaosKill(mode, seq, func() error {
		// SIGKILL ourselves: unlike os.Exit, nothing between the kill and
		// process death runs — the exact failure mode the coordinator's
		// restart machinery must absorb.
		proc, err := os.FindProcess(os.Getpid())
		if err != nil {
			os.Exit(137)
		}
		proc.Kill()
		// The signal is asynchronous; park until it lands so no further
		// store write can race past the kill point.
		select {}
	})
	return hook
}

// TestShardHelperProcess is not a test: it is the subprocess entry
// point the chaos tests re-execute this binary into. It runs one shard
// of the mergeCfg grid (or parks forever, for the straggler tests) and
// exits without touching the rest of the test suite.
func TestShardHelperProcess(t *testing.T) {
	mode := os.Getenv(shardHelperEnv)
	if mode == "" {
		t.Skip("subprocess entry point; runs only when re-executed by a chaos test")
	}
	if mode == "hang" {
		// A wedged process: alive, but making no durable progress — the
		// straggler the coordinator's process deadline must reclaim. A
		// bare select{} would trip the runtime's deadlock detector and
		// crash the process on its own; sleeping keeps it convincingly
		// alive.
		for {
			//greenlint:allow wallclock chaos-test straggler subprocess idles on real time; it is killed, never measured
			time.Sleep(time.Hour)
		}
	}
	var shard ShardSpec
	if s := os.Getenv(shardHelperShardEnv); s != "" {
		var err error
		if shard, err = ParseShardSpec(s); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	workers, _ := strconv.Atoi(os.Getenv(shardHelperWorkersEnv))
	rp, err := repo.Open(os.Getenv(shardHelperStoreEnv), repo.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := withStore(withWorkers(mergeCfg(), workers), rp)
	cfg.Shard = shard
	if _, _, err := runGrid(chaosSystems(), cfg, chaosKillHookFromEnv()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperEnv builds the helper subprocess environment, deliberately not
// inheriting any chaos variable from the test's own environment.
func helperEnv(mode string, shard ShardSpec, store string, workers int, extra ...string) []string {
	env := append(os.Environ(),
		shardHelperEnv+"="+mode,
		shardHelperShardEnv+"="+shard.String(),
		shardHelperStoreEnv+"="+store,
		shardHelperWorkersEnv+"="+strconv.Itoa(workers),
		chaosKillEnv+"=", // cleared unless extra re-sets it
	)
	return append(env, extra...)
}

// helperCommand re-executes this test binary into the helper entry
// point, running one shard into the store at dir.
func helperCommand(mode string, shard ShardSpec, store string, workers int, extra ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run", "^TestShardHelperProcess$")
	cmd.Env = helperEnv(mode, shard, store, workers, extra...)
	return cmd
}

// coordinatorCfg is the coordinator configuration of the mergeCfg grid
// over the store rp.
func coordinatorCfg(rp *repo.Repository, shards, maxRestarts int, command func(ShardSpec) *exec.Cmd) CoordinatorConfig {
	cfg := mergeCfg()
	return CoordinatorConfig{
		Shards:      shards,
		MaxRestarts: maxRestarts,
		Repo:        rp,
		Fingerprint: Fingerprint(chaosSystems(), cfg),
		Cells:       EnumerateCellRefs(chaosSystems(), cfg),
		Command:     command,
	}
}

// mergeStore merges the single store rp for the mergeCfg grid.
func mergeStore(t *testing.T, rp *repo.Repository) *MergeResult {
	t.Helper()
	cfg := mergeCfg()
	res, err := MergeStores([]*repo.Repository{rp}, Fingerprint(chaosSystems(), cfg), EnumerateCellRefs(chaosSystems(), cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// diedBySIGKILL reports whether a subprocess error is death by SIGKILL.
func diedBySIGKILL(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

// ownedCells counts how many grid cells a shard owns.
func ownedCells(fingerprint string, refs []CellRef, shard ShardSpec) int {
	n := 0
	for _, ref := range refs {
		if shard.Owns(fingerprint, ref.ID()) {
			n++
		}
	}
	return n
}

// TestShardSubprocessSIGKILLResumeByteIdentical kills real shard
// subprocesses with SIGKILL at every store crash point — including a
// torn write — then reruns them to completion and merges the store
// they share: the result must be byte-identical to the unsharded
// single-worker run. This is the crash-chaos contract of chaos_test.go
// lifted from simulated write failures to actual process death.
func TestShardSubprocessSIGKILLResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cfg := mergeCfg()
	systems := chaosSystems()
	want := mustRunGrid(t, systems, withWorkers(cfg, 1))
	wantCSV, wantJSON, wantSVG := chaosExports(t, want)
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	const shards = 2
	const workers = 4
	for _, point := range []string{"start", "torn", "written", "synced"} {
		t.Run(point, func(t *testing.T) {
			rp := openTestRepo(t, repo.Options{})
			killed := 0
			for i := 0; i < shards; i++ {
				shard := ShardSpec{Index: i, Count: shards}
				owned := ownedCells(fingerprint, refs, shard)

				cmd := helperCommand("run", shard, rp.Dir(), workers, chaosKillEnv+"="+point+"@0")
				err := cmd.Run()
				if owned == 0 {
					if err != nil {
						t.Fatalf("shard %s owns nothing but failed: %v", shard, err)
					}
				} else {
					if !diedBySIGKILL(err) {
						t.Fatalf("shard %s: want death by SIGKILL at %s@0, got %v", shard, point, err)
					}
					killed++
				}

				// Restart without the kill: must resume from the cells the
				// store holds and complete.
				if out, err := helperCommand("run", shard, rp.Dir(), workers).CombinedOutput(); err != nil {
					t.Fatalf("shard %s: resume after SIGKILL failed: %v\n%s", shard, err, out)
				}
			}
			if killed == 0 {
				t.Fatal("no subprocess was killed — the chaos hook never fired")
			}

			res := mergeStore(t, rp)
			if len(res.Missing) != 0 {
				t.Fatalf("%d cells missing after resume", len(res.Missing))
			}
			if !reflect.DeepEqual(res.Records, want) {
				t.Fatal("merged records differ from the unsharded run after SIGKILL/resume")
			}
			csv, js, svg := chaosExports(t, res.Records)
			if !bytes.Equal(csv, wantCSV) || !bytes.Equal(js, wantJSON) || !bytes.Equal(svg, wantSVG) {
				t.Fatal("merged exports are not byte-identical after SIGKILL/resume")
			}
		})
	}
}

// launchCounter hands the coordinator per-shard launch counts so tests
// can inject chaos on specific launches only.
type launchCounter struct {
	mu       sync.Mutex
	launches map[int]int
}

func newLaunchCounter() *launchCounter {
	return &launchCounter{launches: make(map[int]int)}
}

// next returns the 1-based launch number for a shard.
func (c *launchCounter) next(shard int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.launches[shard]++
	return c.launches[shard]
}

// TestCoordinatorKillRestartMergeMatrix is the end-to-end proof: at
// shard counts 1, 2 and 4, worker counts 1 and 4, every shard
// subprocess is SIGKILLed on its first launch at a store crash point;
// the coordinator must restart each, the restarts must resume from the
// shared store, and the merged exports must be byte-identical to an
// unsharded single-process run.
func TestCoordinatorKillRestartMergeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess fleets")
	}
	cfg := mergeCfg()
	systems := chaosSystems()
	want := mustRunGrid(t, systems, withWorkers(cfg, 1))
	wantCSV, wantJSON, wantSVG := chaosExports(t, want)
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)
	points := []string{"start", "torn", "written", "synced"}

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				counter := newLaunchCounter()
				rp := openTestRepo(t, repo.Options{})
				res, err := RunCoordinator(coordinatorCfg(rp, shards, 2, func(shard ShardSpec) *exec.Cmd {
					var extra []string
					if counter.next(shard.Index) == 1 {
						// First launch dies at a crash point that varies by
						// shard, covering the full kill surface across the
						// matrix.
						extra = []string{chaosKillEnv + "=" + points[shard.Index%len(points)] + "@0"}
					}
					return helperCommand("run", shard, rp.Dir(), workers, extra...)
				}))
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range res.Shards {
					if !st.Completed {
						t.Fatalf("shard %s did not complete: %s", st.Shard, st.Err)
					}
					wantLaunches := 1
					if ownedCells(fingerprint, refs, st.Shard) > 0 {
						wantLaunches = 2 // killed once, resumed once
					}
					if st.Launches != wantLaunches {
						t.Errorf("shard %s: %d launches, want %d", st.Shard, st.Launches, wantLaunches)
					}
					if st.DeadlineKills != 0 {
						t.Errorf("shard %s: %d deadline kills with no deadline armed", st.Shard, st.DeadlineKills)
					}
				}
				merged := mergeStore(t, rp)
				if err := merged.VerifyMissingOwnedBy(fingerprint, res.Failed()); err != nil {
					t.Fatal(err)
				}
				if len(merged.Missing) != 0 {
					t.Fatalf("%d cells missing after coordinated restarts", len(merged.Missing))
				}
				if !reflect.DeepEqual(merged.Records, want) {
					t.Fatal("coordinated merge differs from the unsharded run")
				}
				csv, js, svg := chaosExports(t, merged.Records)
				if !bytes.Equal(csv, wantCSV) || !bytes.Equal(js, wantJSON) || !bytes.Equal(svg, wantSVG) {
					t.Fatal("coordinated exports are not byte-identical to the unsharded run")
				}
			})
		}
	}
}

// TestCoordinatorDeadlineReclaimsStraggler wedges a shard's first
// launch (alive, no store growth): the process-level deadline must
// SIGKILL it, the restart must complete, and the merge must match the
// oracle.
func TestCoordinatorDeadlineReclaimsStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cfg := mergeCfg()
	systems := chaosSystems()
	want := mustRunGrid(t, systems, withWorkers(cfg, 1))

	counter := newLaunchCounter()
	rp := openTestRepo(t, repo.Options{})
	ccfg := coordinatorCfg(rp, 1, 1, func(shard ShardSpec) *exec.Cmd {
		if counter.next(shard.Index) == 1 {
			return helperCommand("hang", shard, rp.Dir(), 1)
		}
		return helperCommand("run", shard, rp.Dir(), 1)
	})
	// The grace window (Probes × Interval) must outlast a healthy
	// subprocess's whole boot-to-first-stored-cell span — test binary
	// startup and the first cell's fit included, which -race can
	// stretch past a few seconds — or the deadline would reap the
	// recovering relaunch too.
	ccfg.Deadline = WatchdogPolicy{Probes: 8, Interval: 750 * time.Millisecond}
	res, err := RunCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Shards[0]
	if !st.Completed {
		t.Fatalf("shard never completed: %s", st.Err)
	}
	if st.DeadlineKills != 1 {
		t.Errorf("DeadlineKills = %d, want 1", st.DeadlineKills)
	}
	if st.Launches != 2 {
		t.Errorf("Launches = %d, want 2", st.Launches)
	}
	if merged := mergeStore(t, rp); !reflect.DeepEqual(merged.Records, want) {
		t.Error("merge after straggler reclamation differs from oracle")
	}
}

// TestCoordinatorDegradesExhaustedShard kills one shard on every
// launch: with the restart budget exhausted the coordinator must report
// the shard failed — not abort — and the merge must keep the grid
// full-size with that shard's cells carried as shard-failure records.
func TestCoordinatorDegradesExhaustedShard(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	cfg := mergeCfg()
	systems := chaosSystems()
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	// Pick a shard of 2 that owns at least one cell, so the kill always
	// fires and the failure is observable in the taxonomy.
	doomed := ShardSpec{Index: 0, Count: 2}
	if ownedCells(fingerprint, refs, doomed) == 0 {
		doomed.Index = 1
	}

	rp := openTestRepo(t, repo.Options{})
	res, err := RunCoordinator(coordinatorCfg(rp, 2, 1, func(shard ShardSpec) *exec.Cmd {
		if shard == doomed {
			return helperCommand("run", shard, rp.Dir(), 1, chaosKillEnv+"=start@0")
		}
		return helperCommand("run", shard, rp.Dir(), 1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	var doomedStatus, healthyStatus ShardStatus
	for _, st := range res.Shards {
		if st.Shard == doomed {
			doomedStatus = st
		} else {
			healthyStatus = st
		}
	}
	if doomedStatus.Completed {
		t.Fatal("a shard killed on every launch reported completion")
	}
	if doomedStatus.Launches != 2 {
		t.Errorf("doomed shard launched %d times, want 2 (initial + 1 restart)", doomedStatus.Launches)
	}
	if doomedStatus.Err == "" {
		t.Error("failed shard carries no error")
	}
	if !healthyStatus.Completed {
		t.Fatalf("healthy shard failed: %s", healthyStatus.Err)
	}
	failed := res.Failed()
	if len(failed) != 1 || failed[0] != doomed {
		t.Fatalf("Failed() = %v, want [%s]", failed, doomed)
	}

	merged := mergeStore(t, rp)
	if err := merged.VerifyMissingOwnedBy(fingerprint, failed); err != nil {
		t.Errorf("degraded sweep failed its own completeness check: %v", err)
	}
	if len(merged.Records) != len(refs) {
		t.Fatalf("degraded merge has %d records for a %d-cell grid", len(merged.Records), len(refs))
	}
	if want := ownedCells(fingerprint, refs, doomed); len(merged.Missing) != want {
		t.Errorf("%d cells missing, want the doomed shard's %d", len(merged.Missing), want)
	}
	shardFailures := 0
	for _, rec := range merged.Records {
		if rec.Failure == faults.ShardFailure {
			shardFailures++
		}
	}
	if shardFailures != len(merged.Missing) {
		t.Errorf("%d shard-failure records for %d missing cells", shardFailures, len(merged.Missing))
	}
	// The degraded record set must still render: a dead shard costs its
	// cells, never the report.
	chaosExports(t, merged.Records)
}

// TestCoordinatorRejectsBadConfig: coordinator-level misconfiguration
// — including a missing or read-only store, the shards' only output —
// is an error before any subprocess spawns.
func TestCoordinatorRejectsBadConfig(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	ro := reopen(t, rp, repo.Options{ReadOnly: true})
	cmdFn := func(shard ShardSpec) *exec.Cmd { return helperCommand("run", shard, rp.Dir(), 1) }
	cases := map[string]CoordinatorConfig{
		"no shards":         coordinatorCfg(rp, 0, 0, cmdFn),
		"negative shards":   coordinatorCfg(rp, -2, 0, cmdFn),
		"no command":        coordinatorCfg(rp, 2, 0, nil),
		"negative restarts": coordinatorCfg(rp, 2, -1, cmdFn),
		"no store":          coordinatorCfg(nil, 2, 0, cmdFn),
		"read-only store":   coordinatorCfg(ro, 2, 0, cmdFn),
	}
	for name, cc := range cases {
		if _, err := RunCoordinator(cc); err == nil {
			t.Errorf("%s: invalid coordinator config accepted", name)
		}
	}
}

// TestCoordinatorNilCommandResult: a Command builder returning nil for
// one shard fails that shard, not the coordinator.
func TestCoordinatorNilCommandResult(t *testing.T) {
	res, err := RunCoordinator(coordinatorCfg(openTestRepo(t, repo.Options{}), 1, 0, func(ShardSpec) *exec.Cmd { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards[0].Completed || res.Shards[0].Err == "" {
		t.Errorf("nil command must fail the shard: %+v", res.Shards[0])
	}
}
