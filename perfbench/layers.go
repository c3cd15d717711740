package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
)

// named is a metric's name and unit, as BENCHMARK.json lists it.
type named struct{ name, unit string }

// endToEnd are the untraced run's metrics. Every workload reports all of
// them; an "operation" is one cold grid, one warm replay, or 1000
// consecutive Engine.Submit calls. The p99 of an operation and the
// operations per second are printed but not listed. On a shared 2-vCPU
// VM the grid-warm p99 moved 31–34% (quartile distance over median)
// across ten runs, more than any allowed bound. Operations per second,
// with one caller in a closed loop, is the reciprocal of the mean
// operation: it repeats op_ms_p50 with every GC pause and descheduling
// added, and moved up to twice as far from run to run.
var endToEnd = []named{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"alloc_mb", "MB/op"},
	{"peak_rss_mb", "MB"},
	{"mean_bacc", "ratio"},
	{"ok_frac", "ratio"},
}

// perLayer are the traced run's metrics, named after the repository's
// modules. A layer a workload does not reach reports 0.
var perLayer = func() []named {
	m := []named{
		{"bench.grid_s", "s"}, {"bench.self_s", "s"}, {"bench.worker_util", "ratio"},
		{"bench.cells", "count"}, {"bench.fits", "count"},
		{"bench.aggregate_ms", "ms"}, {"bench.export_ms", "ms"},
		{"automl.fit_s", "s"}, {"automl.fit_s_max", "s"},
	}
	for _, s := range bench.DefaultSystems() {
		m = append(m, named{"automl.fit_s." + s.Name(), "s"})
	}
	m = append(m,
		named{"automl.predict_s", "s"}, named{"automl.evaluated", "count"},
		named{"ml.cpu_share", "ratio"}, named{"ml.tree_sort_share", "ratio"},
		named{"pipeline.cpu_share", "ratio"}, named{"preprocess.cpu_share", "ratio"},
		named{"search.cpu_share", "ratio"}, named{"ensemble.cpu_share", "ratio"},
		named{"openml.generate_ms", "ms"},
		named{"repo.get_us_p50", "us"}, named{"repo.get_us_p99", "us"}, named{"repo.get_bytes", "B"},
		named{"repo.put_us_p50", "us"}, named{"repo.hits", "count"}, named{"repo.misses", "count"},
		named{"repo.damaged", "count"},
		named{"artifact.build_ms", "ms"}, named{"artifact.save_ms", "ms"}, named{"artifact.load_ms", "ms"},
		named{"serve.predict_us_p50", "us"}, named{"serve.predict_us_p99", "us"},
		named{"serve.batch_rows_mean", "rows"}, named{"serve.batches", "count"},
		named{"serve.engine_self_us", "us"}, named{"serve.drain_ms", "ms"},
		named{"serve.breaker_trips", "count"}, named{"serve.served", "count"}, named{"serve.shed", "count"},
		named{"serve.expired", "count"}, named{"serve.degraded", "count"}, named{"serve.failed", "count"},
		named{"serve.journal_bytes", "B"},
		named{"runtime.gc_cpu_share", "ratio"}, named{"runtime.gc_cycles", "count"},
		named{"trace.overhead_frac", "ratio"},
	)
	return m
}()

// complete checks the report's metrics against the run kind's table and
// reports 0 for every per-layer metric the workload did not reach.
func (r *report) complete(trace bool) error {
	table := endToEnd
	if trace {
		table = perLayer
	}
	want := make(map[string]string, len(table))
	for _, m := range table {
		want[m.name] = m.unit
	}
	for name, m := range r.metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not in the table", name, m.Unit)
		}
	}
	for _, m := range table {
		if _, ok := r.metrics[m.name]; ok {
			continue
		}
		if !trace {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		r.metrics[m.name] = metric{0, m.unit}
	}
	return nil
}

// profiled runs fn under a CPU profile and returns the runtime's GC
// deltas and the profile's per-package shares.
func profiled(o options, fn func() error) (gcSample, shares, error) {
	path := filepath.Join(outDir, "cpu-"+o.workload+".pprof")
	p, err := startProfile(path)
	if err != nil {
		return gcSample{}, shares{}, err
	}
	before := readGC()
	err = fn()
	gc := readGC().sub(before)
	if serr := p.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return gc, shares{}, err
	}
	bin, err := os.Executable()
	if err != nil {
		return gc, shares{}, err
	}
	sh, err := profileShares(bin, path)
	return gc, sh, err
}

// commonLayers reports the sampled layer shares, the runtime's GC cost
// and the tracing overhead: the traced operations' median wall time
// over the untraced baseline's.
func commonLayers(rep *report, gc gcSample, sh shares, ops int, traced, base time.Duration) {
	for _, l := range sampledLayers {
		rep.set(l+".cpu_share", sh.layer[l], "ratio")
	}
	rep.set("ml.tree_sort_share", sh.treeSort, "ratio")
	if gc.totalCPU > 0 {
		rep.set("runtime.gc_cpu_share", gc.gcCPU/gc.totalCPU, "ratio")
	}
	rep.set("runtime.gc_cycles", gc.cycles/float64(max(ops, 1)), "count")
	if base > 0 {
		rep.set("trace.overhead_frac", traced.Seconds()/base.Seconds()-1, "ratio")
	}
	rep.details["profile_samples_s"] = sh.samples.Seconds()
}

// writeSpans saves the traced run's spans next to the build.
func writeSpans(tr *tracer, o options) error {
	path := filepath.Join(outDir, "spans-"+o.workload+".csv")
	if err := tr.write(path); err != nil {
		return err
	}
	tr.mu.Lock()
	n := len(tr.spans)
	tr.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: %d spans -> %s\n", n, path)
	return nil
}
