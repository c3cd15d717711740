// Command perfbench is the repository's benchmark. It drives fixed
// workloads through the public APIs of internal/bench, internal/repo,
// internal/artifact and internal/serve, checks their outputs, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check makes
// the command exit 1 after printing it; bad flags or a broken set-up
// exit 2 without a result.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build/perfbench"

// maxProblems caps the failed checks printed; a broken replay path
// fails every one of thousands of replays the same way.
const maxProblems = 20

// gomaxprocs sizes the process for the 2-core machine the workloads were
// chosen on; the grid runs 2 workers and serving one goroutine.
const gomaxprocs = 2

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// workloads maps each name to its runner. Every runner performs its
// set-up, its timed phase and its output checks, filling in the report.
var workloads = map[string]func(options, *report) error{
	"grid-cold":      runGridCold,
	"grid-warm":      runGridWarm,
	"serve-steady":   func(o options, r *report) error { return runServe(o, r, steady) },
	"serve-overload": func(o options, r *report) error { return runServe(o, r, overload) },
}

// unlisted are the workloads BENCHMARK.json leaves out; they run by
// hand, with the same checks. On a shared 2-vCPU host whose speed drifts
// by ±15% over minutes, only long runs keep the median steady, and the
// benchmark's time limit has room for two workloads of 45 s. grid-warm's
// median replay moved 23–25% (quartile distance over median) across ten
// runs of the same code. serve-steady runs the same engine and predict
// kernels as serve-overload, which also reaches admission and the journal.
var unlisted = map[string]bool{"grid-warm": true, "serve-steady": true}

func main() {
	runtime.GOMAXPROCS(gomaxprocs)
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep := newReport(o)
	work := filepath.Join(outDir, "work")
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	err = workloads[o.workload](o, rep)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !o.trace {
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if err := rep.complete(o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: grid-cold, serve-overload, grid-warm or serve-steady")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for the untraced run (end-to-end metrics)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown -workload %q", *workload)
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace must be 0 or 1")
	}
	return options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's result: the metrics of its kind, the
// operation and failure counts, the failed checks, and details (sample
// counts, digests, provenance) printed above the result line.
type report struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	// alias lists the workload-specific names of the end-to-end metrics
	// (grid_s, replay_ms_p50, req_per_s, ...), printed for readers.
	alias   map[string]metric
	details map[string]any
}

func newReport(o options) *report {
	return &report{
		metrics: make(map[string]metric),
		alias:   make(map[string]metric),
		details: map[string]any{"provenance": provenance(o)},
	}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// check records a failed output check, counting ops operations as
// failed.
func (r *report) check(ok bool, ops int, format string, args ...any) {
	if ok {
		return
	}
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 }

func (r *report) print(w io.Writer) error {
	for i, p := range r.problems {
		if i == maxProblems {
			fmt.Fprintf(w, "CHECK FAILED: ... and %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	keys := make([]string, 0, len(r.details))
	for k := range r.details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, err := json.Marshal(r.details[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %s\n", k, b)
	}
	for _, set := range []map[string]metric{r.alias, r.metrics} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-28s %.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// timed runs op until d has elapsed and at least minOps calls were made,
// and returns the wall time each call reports for its operation, which
// leaves out the output checks around it.
func timed(d time.Duration, minOps int, op func() (time.Duration, error)) ([]time.Duration, error) {
	var walls []time.Duration
	start := time.Now()
	for len(walls) < minOps || time.Since(start) < d {
		wall, err := op()
		if err != nil {
			return walls, err
		}
		walls = append(walls, wall)
	}
	return walls, nil
}

// setupTimes runs setup reps times, each on a freshly collected heap as
// in a new process, and returns the median wall time; the last set-up's
// state is what the timed phase uses.
func setupTimes(reps int, setup func() error) (time.Duration, error) {
	walls := make([]time.Duration, reps)
	for i := range walls {
		settle()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		walls[i] = time.Since(t0)
	}
	return median(walls), nil
}

// settle collects the garbage left behind, so every set-up and timed
// phase starts from the same heap state.
func settle() { runtime.GC() }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// provenance labels a result with what it was measured on, so results
// from different machines or sources are never compared silently.
func provenance(o options) map[string]any {
	trace := 0
	if o.trace {
		trace = 1
	}
	cpu := cpuModel()
	// machine_id differs exactly when results are cross-machine.
	machine := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%s", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())))
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"trace":         trace,
		"cpu_model":     cpu,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"machine_id":    hex.EncodeToString(machine[:6]),
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reports HEAD when the checkout itself is a git work tree;
// the ceiling keeps git from answering for an enclosing repository.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the checkout's Go sources and module files, which
// identifies the measured code even where the checkout is not a git
// work tree.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
