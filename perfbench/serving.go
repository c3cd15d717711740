package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/automl"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/openml"
	"repro/internal/serve"
	"repro/internal/tabular"
)

// The served artifact is a fixed recipe, independent of the workload
// seed, so every seed serves the same model: CAML with a 30 s virtual
// budget on generated credit-g at openml.DefaultScale. Recipe seed 36
// makes CAML pick a gradient-boosting pipeline, so predict runs the
// tree kernels.
const (
	recipeDataset = "credit-g"
	recipeSeed    = 36
	recipeBudget  = 30 * time.Second
	// splitStream is the train/test split stream greenrun uses.
	splitStream = 0x511
)

// passRequests is the size of one serving pass: a fresh engine fed the
// run's whole request stream, then drained.
const passRequests = 200_000

// chunkRequests is one serving operation: this many consecutive Submit
// calls, timed together. A single Submit takes 0.2–2 µs, close to the
// cost of reading the clock and at the mercy of a cache miss; a chunk
// averages that away while a run still holds thousands of chunks.
const chunkRequests = 1000

// serveSetups is how many times a serving run builds its artifact; the
// median is setup_s.
const serveSetups = 3

// load is a serving workload's offered load as a multiple of the
// artifact's capacity, and whether the engine journals.
type load struct {
	factor  float64
	journal bool
}

var (
	steady   = load{factor: 0.5}
	overload = load{factor: 4, journal: true}
)

// served is a serving set-up's outcome.
type served struct {
	art    *artifact.Model
	model  *serve.Model
	test   tabular.View
	perRow time.Duration // virtual predict time of one row
}

// serveSetup generates the data, searches with CAML, and builds, saves
// and loads the artifact, timing each call when tracing.
func serveSetup(dir string, tr *tracer, evaluated *atomic.Int64) (served, error) {
	spec, ok := openml.ByName(recipeDataset)
	if !ok {
		return served{}, fmt.Errorf("dataset %s missing from the suite", recipeDataset)
	}
	i := tr.begin("openml.generate", spec.Name, 0)
	frame := openml.Generate(spec, openml.DefaultScale(), recipeSeed)
	tr.end(i)
	train, test := frame.All().TrainTestSplit(rand.New(rand.NewPCG(recipeSeed, splitStream)))

	var sys automl.System = automl.NewCAML()
	if tr != nil {
		sys = tracedSystem{System: sys, tr: tr, evaluated: evaluated}
	}
	meter := energy.NewMeter(hw.XeonGold6132(), 1)
	res, err := sys.Fit(train, automl.Options{Budget: recipeBudget, Meter: meter, Seed: recipeSeed})
	if err != nil {
		return served{}, fmt.Errorf("CAML search: %w", err)
	}
	if res.BestSpec == nil || res.BestConfig == nil {
		return served{}, fmt.Errorf("CAML returned no pipeline recipe")
	}
	aspec := artifact.Spec{
		Dataset:              spec.Name,
		Models:               res.BestSpec.Models,
		DataPreprocessors:    res.BestSpec.DataPreprocessors,
		FeaturePreprocessors: res.BestSpec.FeaturePreprocessors,
		ComplexityCaps:       res.BestSpec.ComplexityCaps,
		Params:               res.BestConfig,
		Seed:                 recipeSeed,
		Train:                train.Materialize(),
	}
	i = tr.begin("artifact.build", "", 0)
	built, _, err := artifact.Build(aspec)
	tr.end(i)
	if err != nil {
		return served{}, err
	}
	path := filepath.Join(dir, "model.art")
	i = tr.begin("artifact.save", "", 0)
	err = artifact.Save(path, built)
	tr.end(i)
	if err != nil {
		return served{}, err
	}
	i = tr.begin("artifact.load", "", 0)
	loaded, _, err := artifact.Load(path)
	tr.end(i)
	if err != nil {
		return served{}, err
	}
	if loaded.Fingerprint != built.Fingerprint {
		return served{}, fmt.Errorf("loaded artifact fingerprint %016x, built %016x", loaded.Fingerprint, built.Fingerprint)
	}
	m := serve.NewModel(loaded)
	var perRow time.Duration
	machine := hw.XeonGold6132()
	for _, w := range m.RowCost.Works(0) {
		perRow += machine.Duration(w, 1)
	}
	if perRow <= 0 {
		return served{}, fmt.Errorf("artifact has no per-row predict cost")
	}
	return served{art: loaded, model: m, test: test, perRow: perRow}, nil
}

// stream is a serving run's requests: open-loop Poisson arrivals on the
// virtual clock, rows drawn from the held-out split, all from the
// workload seed.
type stream struct {
	reqs   []serve.Request
	labels []int // true class of each request, indexed by ID
}

func makeStream(s served, l load, seed uint64) stream {
	rate := l.factor / s.perRow.Seconds() // requests per virtual second
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	rows := make([][]float64, s.test.Rows())
	for i := range rows {
		rows[i] = s.test.Row(i, nil)
	}
	st := stream{reqs: make([]serve.Request, passRequests), labels: make([]int, passRequests)}
	at := time.Duration(0)
	for i := range st.reqs {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		r := rng.IntN(len(rows))
		st.reqs[i] = serve.Request{ID: uint64(i), Row: rows[r], Arrival: at}
		st.labels[i] = s.test.Label(r)
	}
	return st
}

// passResult is one pass's outputs.
type passResult struct {
	stats      serve.Stats
	joules     float64 // Σ Response.Joules in resolution order
	tracker    float64 // the engine tracker's inference joules
	resolved   int
	bacc       float64 // balanced accuracy of served answers
	wall       time.Duration
	drain      time.Duration
	alloc      float64         // heap bytes allocated from the first Submit to the end of Drain
	chunks     []time.Duration // wall time of each chunkRequests Submit calls
	journalLen int64
}

// servePass feeds the stream to a fresh engine, one Submit at a time,
// then drains it, timing every chunk of chunkRequests Submit calls. A
// non-nil lat, one slot per request, also receives each Submit's own
// wall time; it is allocated once per run so the pass's allocation count
// is the engine's alone.
func servePass(m *serve.Model, st stream, journal string, classes int, lat []time.Duration, tr *tracer) (passResult, error) {
	eng := serve.NewEngine(m, hw.XeonGold6132(), serve.Config{})
	var j *serve.Journal
	if journal != "" {
		var err error
		if j, err = serve.NewJournal(journal, m.Name); err != nil {
			return passResult{}, err
		}
		eng.SetJournal(j)
	}
	var res passResult
	hit := make([]int, classes)
	seen := make([]int, classes)
	absorb := func(out []serve.Response) {
		for i := range out {
			r := &out[i]
			res.joules += r.Joules
			res.resolved++
			if r.Outcome == serve.Served {
				y := st.labels[r.ID]
				seen[y]++
				if r.Class == y {
					hit[y]++
				}
			}
		}
	}
	res.chunks = make([]time.Duration, 0, len(st.reqs)/chunkRequests)
	alloc0 := readGC().allocBytes
	start := time.Now()
	chunk := start
	for i := range st.reqs {
		sp := tr.enter("serve.submit", "", st.reqs[i].ID)
		var out []serve.Response
		if lat != nil {
			t0 := time.Now()
			out = eng.Submit(st.reqs[i])
			lat[i] = time.Since(t0)
		} else {
			out = eng.Submit(st.reqs[i])
		}
		tr.leave(sp)
		absorb(out)
		if (i+1)%chunkRequests == 0 {
			now := time.Now()
			res.chunks = append(res.chunks, now.Sub(chunk))
			chunk = now
		}
	}
	sp := tr.enter("serve.drain", "", 0)
	t0 := time.Now()
	out := eng.Drain(eng.Now())
	res.drain = time.Since(t0)
	tr.leave(sp)
	absorb(out)
	res.wall = time.Since(start)
	res.alloc = readGC().allocBytes - alloc0
	res.stats = eng.Stats()
	res.tracker = eng.Tracker().Joules(energy.Inference)
	var recall float64
	present := 0
	for c := range seen {
		if seen[c] > 0 {
			recall += float64(hit[c]) / float64(seen[c])
			present++
		}
	}
	if present > 0 {
		res.bacc = recall / float64(present)
	}
	if j != nil {
		if err := j.Close(); err != nil {
			return res, err
		}
		info, err := os.Stat(journal)
		if err != nil {
			return res, err
		}
		res.journalLen = info.Size()
	}
	return res, nil
}

// checkJournal requires the journal a pass left at path to replay one
// undamaged record per request.
func checkJournal(rep *report, path string, n int) error {
	rj, err := serve.ReplayJournal(path)
	if err != nil {
		return err
	}
	rep.check(len(rj.Records) == n && !rj.Torn && rj.Damaged == 0, n,
		"journal replayed %d records for %d requests (torn %v, damaged %d)", len(rj.Records), n, rj.Torn, rj.Damaged)
	return nil
}

// checkPass applies the per-pass output checks: conservation, one
// outcome per request, and the same outcome counts and joules as the
// run's first pass.
func checkPass(rep *report, p, first passResult, st stream) {
	n := len(st.reqs)
	rep.attempted += n
	rep.check(math.Float64bits(p.joules) == math.Float64bits(p.tracker), n,
		"Σ Response.Joules %v != tracker inference joules %v", p.joules, p.tracker)
	rep.check(p.resolved == n && p.stats.Submitted() == n, n,
		"%d responses and %d outcomes for %d requests", p.resolved, p.stats.Submitted(), n)
	rep.check(p.stats.Outcomes == first.stats.Outcomes && math.Float64bits(p.joules) == math.Float64bits(first.joules), n,
		"pass outcomes %v and joules %v differ from the first pass's %v and %v", p.stats.Outcomes, p.joules, first.stats.Outcomes, first.joules)
	failed := p.stats.Count(serve.Failed)
	rep.check(failed == 0, failed, "%d requests failed in predict", failed)
}

// runServe times serving passes at the load's rate.
func runServe(o options, rep *report, l load) error {
	work := filepath.Join(outDir, "work")
	var tr *tracer
	var evaluated atomic.Int64
	if o.trace {
		tr = newTracer()
	}
	var s served
	var fingerprints []uint64
	var setup time.Duration
	var err error
	if o.trace {
		s, err = serveSetup(work, tr, &evaluated)
		fingerprints = append(fingerprints, s.art.Fingerprint)
	} else {
		setup, err = setupTimes(serveSetups, func() error {
			var err error
			s, err = serveSetup(work, nil, nil)
			if err == nil {
				fingerprints = append(fingerprints, s.art.Fingerprint)
			}
			return err
		})
	}
	if err != nil {
		return err
	}
	for _, fp := range fingerprints {
		rep.check(fp == fingerprints[0], 1, "set-ups built artifacts with fingerprints %x", fingerprints)
	}
	st := makeStream(s, l, o.seed)
	journal := ""
	if l.journal {
		journal = filepath.Join(work, "serve.journal")
	}
	rep.details["artifact"] = map[string]any{
		"fingerprint":     fmt.Sprintf("%016x", s.art.Fingerprint),
		"model":           s.art.Spec.Models[int(s.art.Spec.Params["model"])],
		"per_row_virtual": s.perRow.String(),
		"capacity_per_s":  1 / s.perRow.Seconds(),
		"offered_per_s":   l.factor / s.perRow.Seconds(),
	}

	var first passResult
	var passes []passResult
	// Every pass starts on a collected heap, so the collections inside it,
	// and the peak resident set they allow, repeat from pass to pass.
	pass := func(m *serve.Model, lat []time.Duration, tr *tracer) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			settle()
			p, err := servePass(m, st, journal, s.art.Classes, lat, tr)
			if err != nil {
				return 0, err
			}
			if len(passes) == 0 {
				first = p
			}
			passes = append(passes, p)
			checkPass(rep, p, first, st)
			// Passes journal identically, so only the first pass's
			// journal and, after the timed phase, the last one's are
			// replayed; replaying every one would halve the time spent
			// serving.
			if l.journal && len(passes) == 1 {
				return p.wall, checkJournal(rep, journal, len(st.reqs))
			}
			return p.wall, nil
		}
	}

	if !o.trace {
		// The first pass warms caches and the heap, and times every Submit
		// on its own for the per-request percentiles. The timed passes
		// read the clock once a chunk.
		lat := make([]time.Duration, len(st.reqs))
		if _, err := timed(0, 1, pass(s.model, lat, nil)); err != nil {
			return err
		}
		if _, err := timed(o.seconds, 1, pass(s.model, nil, nil)); err != nil {
			return err
		}
		if l.journal {
			if err := checkJournal(rep, journal, len(st.reqs)); err != nil {
				return err
			}
		}
		var chunks []time.Duration
		var alloc float64
		var drain time.Duration
		for _, p := range passes[1:] {
			chunks = append(chunks, p.chunks...)
			alloc += p.alloc
			drain += p.drain
		}
		busy := sumDur(chunks)
		q := quantiles(chunks, 0.5, 0.99)
		req := quantiles(lat, 0.5, 0.99)
		served := float64(first.stats.Count(serve.Served)) / float64(len(st.reqs))
		rep.set("setup_s", setup.Seconds(), "s")
		rep.set("op_ms_p50", ms(q[0]), "ms")
		rep.alias["op_ms_p99"] = metric{ms(q[1]), "ms"}
		rep.alias["op_per_s"] = metric{float64(len(chunks)) / busy.Seconds(), "1/s"}
		rep.set("alloc_mb", alloc/1e6/float64(len(chunks)), "MB/op")
		rep.set("mean_bacc", first.bacc, "ratio")
		rep.set("ok_frac", served, "ratio")
		rep.alias["req_per_s"] = metric{float64(len(chunks)*chunkRequests) / busy.Seconds(), "1/s"}
		rep.alias["req_us_p50"] = metric{us(req[0]), "us"}
		rep.alias["req_us_p99"] = metric{us(req[1]), "us"}
		rep.alias["drain_ms"] = metric{ms(drain) / float64(len(passes)-1), "ms"}
		rep.alias["fail_frac"] = metric{1 - served, "ratio"}
		rep.details["samples"] = map[string]any{"op_ms": len(chunks), "op_ms_p99_supported": tailSupported(len(chunks), 0.99),
			"req_us": len(lat), "req_us_p99_supported": tailSupported(len(lat), 0.99),
			"timed_passes": len(passes) - 1, "setup_s": serveSetups}
		rep.details["outcomes"] = outcomeCounts(first.stats)
		return nil
	}

	// Traced run: one untraced pass as the overhead baseline, then one
	// traced, profiled pass through a timed predictor.
	base, err := timed(0, 1, pass(s.model, nil, nil))
	if err != nil {
		return err
	}
	tp := &tracedPredictor{inner: s.model.Pred, tr: tr, name: "serve.predict"}
	tm := *s.model
	tm.Pred = tp
	var traced []time.Duration
	gc, sh, err := profiled(o, func() error {
		traced, err = timed(0, 1, pass(&tm, nil, tr))
		return err
	})
	if err != nil {
		return err
	}
	if l.journal {
		if err := checkJournal(rep, journal, len(st.reqs)); err != nil {
			return err
		}
	}
	p := passes[len(passes)-1]
	_, preds := tr.closed("serve.predict")
	_, submits := tr.closed("serve.submit")
	_, drains := tr.closed("serve.drain")
	q := quantiles(durations(preds), 0.5, 0.99)
	engine := busyTime(submits) + busyTime(drains) - busyTime(preds)
	rep.set("serve.predict_us_p50", us(q[0]), "us")
	rep.set("serve.predict_us_p99", us(q[1]), "us")
	rep.set("serve.batch_rows_mean", float64(tp.rows.Load())/float64(max(tp.calls.Load(), 1)), "rows")
	rep.set("serve.batches", float64(p.stats.Batches), "count")
	rep.set("serve.engine_self_us", us(engine)/float64(len(st.reqs)), "us")
	rep.set("serve.drain_ms", ms(p.drain), "ms")
	rep.set("serve.breaker_trips", float64(p.stats.BreakerTrips), "count")
	rep.set("serve.served", float64(p.stats.Count(serve.Served)), "count")
	rep.set("serve.shed", float64(p.stats.Count(serve.Shed)), "count")
	rep.set("serve.expired", float64(p.stats.Count(serve.Expired)), "count")
	rep.set("serve.degraded", float64(p.stats.Count(serve.Degraded)), "count")
	rep.set("serve.failed", float64(p.stats.Count(serve.Failed)), "count")
	rep.set("serve.journal_bytes", float64(p.journalLen), "B")
	rep.details["predict_samples"] = map[string]any{"batches": len(preds), "p99_supported": tailSupported(len(preds), 0.99)}

	_, gen := tr.closed("openml.generate")
	_, build := tr.closed("artifact.build")
	_, save := tr.closed("artifact.save")
	_, load := tr.closed("artifact.load")
	_, fits := tr.closed("automl.fit")
	rep.set("openml.generate_ms", ms(busyTime(gen)), "ms")
	rep.set("artifact.build_ms", ms(busyTime(build)), "ms")
	rep.set("artifact.save_ms", ms(busyTime(save)), "ms")
	rep.set("artifact.load_ms", ms(busyTime(load)), "ms")
	automlLayers(rep, fits, nil, 1, float64(evaluated.Load()))
	commonLayers(rep, gc, sh, len(traced), median(traced), median(base))
	return writeSpans(tr, o)
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start
	}
	return out
}

func outcomeCounts(s serve.Stats) map[string]int {
	out := make(map[string]int)
	for o := serve.Served; o <= serve.Failed; o++ {
		out[o.String()] = s.Count(o)
	}
	return out
}
