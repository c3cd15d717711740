package bench

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"repro/internal/automl"
	"repro/internal/faults"
	"repro/internal/openml"
)

// faultCfg is a tiny grid configuration with fault injection enabled.
func faultCfg(rate float64, seed uint64) Config {
	return Config{
		Datasets: openml.Suite()[:2],
		Budgets:  []time.Duration{10 * time.Second},
		Seeds:    2,
		Faults:   faults.Config{Rate: rate, Seed: seed},
	}
}

// expectedCells counts the grid cells the config produces for the systems.
func expectedCells(systems []automl.System, cfg Config) int {
	cfg = cfg.normalized()
	n := 0
	for _, sys := range systems {
		for _, b := range cfg.Budgets {
			if b >= sys.MinBudget() {
				n++
			}
		}
	}
	return n * len(cfg.Datasets) * cfg.Seeds
}

func TestFaultGridDeterministic(t *testing.T) {
	cfg := faultCfg(0.4, 7)
	a := mustRunGrid(t, DefaultSystems(), cfg)
	b := mustRunGrid(t, DefaultSystems(), cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same fault seed produced different records")
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("records are not byte-identical under the same fault seed")
	}
	faulted := 0
	for _, r := range a {
		if r.Failure != faults.None {
			faulted++
		}
	}
	if faulted == 0 {
		t.Error("rate 0.4 grid saw no faults — injection is not reaching cells")
	}
}

// TestInjectedFaultsNeverAbortGrid runs a heavily faulted grid (rate 0.85;
// the seed was picked so every injected kind fires) and checks that it
// still yields a full, scored set of records: panics are contained,
// exhausted retries degrade to the fallback predictor, and wasted attempts
// still show up as charged energy.
func TestInjectedFaultsNeverAbortGrid(t *testing.T) {
	cfg := faultCfg(0.85, 24)
	cfg.Retry.MaxAttempts = 4
	records := mustRunGrid(t, DefaultSystems(), cfg)
	if want := expectedCells(DefaultSystems(), cfg); len(records) != want {
		t.Fatalf("got %d records, want %d — failed cells must not shrink the grid", len(records), want)
	}
	counts := make(map[faults.Kind]int)
	for _, r := range records {
		counts[r.Failure]++
		if r.Attempts < 1 {
			t.Errorf("%s/%s: no attempts recorded", r.System, r.Dataset)
		}
		if !r.Scored() {
			continue
		}
		if r.TestScore <= 0 {
			t.Errorf("%s/%s: scored record has score %v", r.System, r.Dataset, r.TestScore)
		}
		if r.Fallback && r.EnergyValid() && r.ExecKWh <= 0 {
			t.Errorf("%s/%s: fallback record lost its wasted-attempt energy", r.System, r.Dataset)
		}
	}
	for _, kind := range []faults.Kind{faults.FitPanic, faults.FitError, faults.PredictError, faults.MeterDropout} {
		if counts[kind] == 0 {
			t.Errorf("no %s records — this grid is meant to exercise every injected kind", kind)
		}
	}
}

// TestRetrySuccessChargesEnergy finds a cell whose first attempt faulted
// and whose retry succeeded, and checks the failed attempt's energy stayed
// charged: the record must cost strictly more than the identical cell in a
// fault-free grid.
func TestRetrySuccessChargesEnergy(t *testing.T) {
	cfg := faultCfg(0, 0)
	clean := make(map[string]Record)
	for _, r := range mustRunGrid(t, DefaultSystems(), cfg) {
		clean[cellID(r.System, r.Dataset, r.Budget, r.Seed)] = r
	}

	for seed := uint64(1); seed <= 10; seed++ {
		for _, r := range mustRunGrid(t, DefaultSystems(), faultCfg(0.5, seed)) {
			if r.Attempts <= 1 || r.Failure != faults.None || r.Fallback {
				continue
			}
			base, ok := clean[cellID(r.System, r.Dataset, r.Budget, r.Seed)]
			if !ok {
				t.Fatalf("no clean twin for %s/%s", r.System, r.Dataset)
			}
			if r.ExecKWh <= base.ExecKWh {
				t.Errorf("%s/%s: retried cell charged %v kWh, clean run %v — failed attempts must cost energy",
					r.System, r.Dataset, r.ExecKWh, base.ExecKWh)
			}
			if r.ExecTime <= base.ExecTime {
				t.Errorf("%s/%s: retried cell took %v, clean run %v", r.System, r.Dataset, r.ExecTime, base.ExecTime)
			}
			return
		}
	}
	t.Fatal("no cell recovered via retry across 10 fault seeds")
}

func TestOOMInjectionDegradesToFallback(t *testing.T) {
	cfg := faultCfg(0, 0)
	cfg.Faults.MemoryBytes = 1 // every working set exceeds one byte
	records := mustRunGrid(t, DefaultSystems(), cfg)
	if want := expectedCells(DefaultSystems(), cfg); len(records) != want {
		t.Fatalf("got %d records, want %d", len(records), want)
	}
	for _, r := range records {
		if r.Failure != faults.OOM {
			t.Fatalf("%s/%s: failure %q, want oom", r.System, r.Dataset, r.Failure)
		}
		if !r.Fallback || !r.Scored() {
			t.Fatalf("%s/%s: OOM cell must degrade to a scored fallback", r.System, r.Dataset)
		}
		if r.TestScore <= 0 {
			t.Errorf("%s/%s: fallback score %v", r.System, r.Dataset, r.TestScore)
		}
	}
}

// TestPredictFaultKeepsExecMeasurements checks the stage separation: an
// inference-stage failure must not discard the execution stage's energy
// and time, and the score degrades to the fallback predictor.
func TestPredictFaultKeepsExecMeasurements(t *testing.T) {
	cfg := faultCfg(1, 0).normalized()
	cfg.Retry.MaxAttempts = 1
	spec, ok := openml.ByName("credit-g")
	if !ok {
		t.Fatal("credit-g spec missing")
	}
	ds := openml.Generate(spec, cfg.Scale, cfg.Seed)
	rng := rand.New(rand.NewPCG(1, 2))
	train, test := ds.All().TrainTestSplit(rng)

	sys := automl.NewTabPFN()
	budget := 10 * time.Second
	for seed := uint64(0); seed < 64; seed++ {
		cfg.Faults.Seed = seed
		inj := faults.New(cfg.Faults)
		if !inj.CellPlan(sys.Name(), train.Name(), budget, 1, 0).PredictError {
			continue
		}
		rec, _ := runCell(sys, train, test, budget, cfg, 1, inj)
		if rec.Failure != faults.PredictError {
			t.Fatalf("failure %q, want predict-error", rec.Failure)
		}
		if !rec.Fallback {
			t.Error("predict fault did not fall back")
		}
		if rec.ExecKWh <= 0 || rec.ExecTime <= 0 {
			t.Errorf("exec measurements lost on inference failure: %v kWh, %v", rec.ExecKWh, rec.ExecTime)
		}
		if rec.TestScore <= 0 {
			t.Errorf("fallback score %v", rec.TestScore)
		}
		return
	}
	t.Fatal("no fault seed in [0,64) plans a predict-error for this cell")
}

// TestDatasetFaultAccountsDependentCells checks that a dataset that never
// materializes yields failure records for every dependent cell instead of
// silently shrinking the grid.
func TestDatasetFaultAccountsDependentCells(t *testing.T) {
	cfg := faultCfg(1, 5)
	cfg.Retry.MaxAttempts = 2
	records := mustRunGrid(t, DefaultSystems(), cfg)
	if want := expectedCells(DefaultSystems(), cfg); len(records) != want {
		t.Fatalf("got %d records, want %d", len(records), want)
	}
	// Rate 1 means generation faults on every attempt: all cells carry the
	// dataset-error kind and no score.
	for _, r := range records {
		if r.Failure != faults.DatasetError {
			t.Fatalf("%s/%s: failure %q, want dataset-error", r.System, r.Dataset, r.Failure)
		}
		if r.Scored() {
			t.Errorf("%s/%s: dataset-error record claims a usable score", r.System, r.Dataset)
		}
		if r.Attempts != 2 {
			t.Errorf("%s/%s: attempts %d, want the full retry budget 2", r.System, r.Dataset, r.Attempts)
		}
	}
}

func TestAggregateReportsFailureRates(t *testing.T) {
	records := []Record{
		{System: "S", Budget: time.Second, Dataset: "a", TestScore: 0.8, ExecKWh: 1},
		{System: "S", Budget: time.Second, Dataset: "a", TestScore: 0.5, Failure: faults.FitError, Fallback: true, Attempts: 3, ExecKWh: 3},
		{System: "S", Budget: time.Second, Dataset: "b", Failure: faults.FitPanic, Attempts: 3},
		{System: "S", Budget: time.Second, Dataset: "b", TestScore: 0.7, Failure: faults.MeterDropout, ExecKWh: 0.1},
	}
	stats := Aggregate(records, rand.New(rand.NewPCG(1, 2)))
	if len(stats) != 1 {
		t.Fatalf("got %d cells, want 1", len(stats))
	}
	s := stats[0]
	if s.Total != 4 {
		t.Errorf("total %d, want 4", s.Total)
	}
	if s.Runs != 3 {
		t.Errorf("scored runs %d, want 3 (clean + fallback + dropout)", s.Runs)
	}
	if s.Fallbacks != 1 {
		t.Errorf("fallbacks %d, want 1", s.Fallbacks)
	}
	if got := s.FailureRate(); got != 0.75 {
		t.Errorf("failure rate %v, want 0.75", got)
	}
	if got := s.FallbackRate(); got != 0.25 {
		t.Errorf("fallback rate %v, want 0.25", got)
	}
	if s.Failures[faults.FitPanic] != 1 || s.Failures[faults.FitError] != 1 || s.Failures[faults.MeterDropout] != 1 {
		t.Errorf("failure counts %v", s.Failures)
	}
	// The dropout record's partial 0.1 kWh must stay out of the means:
	// dataset a contributes (1+3)/2 and dataset b contributes nothing.
	if s.ExecKWh != 2 {
		t.Errorf("exec kWh %v, want 2 (dropout energy excluded)", s.ExecKWh)
	}
}

func TestRenderFailureBreakdown(t *testing.T) {
	if out := RenderFailureBreakdown([]Record{{System: "S"}}); out != "" {
		t.Errorf("clean records rendered %q, want empty", out)
	}
	out := RenderFailureBreakdown([]Record{
		{Failure: faults.FitPanic, Attempts: 3, Fallback: true},
		{Failure: faults.OOM, Fallback: true},
		{},
	})
	for _, want := range []string{"fit-panic=1", "oom=1", "fallback-used=2", "retried=1"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("breakdown %q missing %q", out, want)
		}
	}
}
