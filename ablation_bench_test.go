package greenautoml

// Ablation benchmarks: isolate the design choices the study credits for
// each system's profile by toggling them on otherwise identical
// configurations. Run with -v to see the deltas.

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/automl"
	"repro/internal/bench"
	"repro/internal/openml"
)

// ablationConfig uses a few mid-size datasets where search budgets bind.
func ablationConfig(tb testing.TB, budget time.Duration) bench.Config {
	names := []string{"adult", "higgs", "segment", "mfeat-factors"}
	specs := make([]openml.Spec, 0, len(names))
	for _, n := range names {
		s, ok := openml.ByName(n)
		if !ok {
			tb.Fatalf("dataset %s missing", n)
		}
		specs = append(specs, s)
	}
	return bench.Config{
		Datasets: specs,
		Budgets:  []time.Duration{budget},
		Seeds:    2,
	}
}

// meanScore aggregates one system's mean balanced accuracy from a grid.
func meanScore(stats []bench.CellStats, system string) float64 {
	for _, s := range stats {
		if s.Key.System == system {
			return s.Score.Mean
		}
	}
	return 0
}

// runAblation runs two system variants on the same grid and reports both
// scores.
func runAblation(b *testing.B, budget time.Duration, variantA, variantB automl.System) (scoreA, scoreB float64) {
	cfg := ablationConfig(b, budget)
	records, err := bench.RunGrid([]automl.System{variantA, variantB}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	stats := bench.Aggregate(records, benchAblRNG())
	return meanScore(stats, variantA.Name()), meanScore(stats, variantB.Name())
}

// BenchmarkAblationIncrementalTraining isolates CAML's successive-halving
// incremental training: at a 10-second budget it is what lets CAML finish
// any evaluation at all on large datasets (paper §3.2: "CAML's execution
// shows higher energy efficiency for small search times ... because it
// leverages successive halving").
func BenchmarkAblationIncrementalTraining(b *testing.B) {
	withParams := automl.DefaultCAMLParams()
	withoutParams := automl.DefaultCAMLParams()
	withoutParams.Incremental = false
	for i := 0; i < b.N; i++ {
		with, without := runAblation(b, 10*time.Second,
			&automl.CAML{Params: withParams, Label: "CAML(incremental)"},
			&automl.CAML{Params: withoutParams, Label: "CAML(full-fit)"})
		if i == b.N-1 {
			b.Logf("10s budget: incremental %.4f vs full-fit %.4f balanced accuracy", with, without)
			b.ReportMetric(with, "incremental-bacc")
			b.ReportMetric(without, "fullfit-bacc")
		}
	}
}

// BenchmarkAblationWarmStart isolates auto-sklearn 2's meta-learned
// warm-start portfolio against version 1's random initialization at the
// smallest budget both support (paper §2.3: "the warm starting approach
// through meta-learning ... is more efficient").
func BenchmarkAblationWarmStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v2, v1 := runAblation(b, 30*time.Second, automl.NewAutoSklearn2(), automl.NewAutoSklearn1())
		if i == b.N-1 {
			b.Logf("30s budget: warm-started ASKL2 %.4f vs random-init ASKL1 %.4f", v2, v1)
			b.ReportMetric(v2, "warmstart-bacc")
			b.ReportMetric(v1, "random-init-bacc")
		}
	}
}

// BenchmarkAblationRandomValSplit isolates the tuned CAML's per-iteration
// validation reshuffling, the paper's §3.7 anti-overfitting choice.
func BenchmarkAblationRandomValSplit(b *testing.B) {
	onParams := automl.DefaultTunedParams(time.Minute)
	offParams := automl.DefaultTunedParams(time.Minute)
	offParams.RandomValSplit = false
	for i := 0; i < b.N; i++ {
		on, off := runAblation(b, time.Minute,
			&automl.CAML{Params: onParams, Label: "CAML(reshuffle)"},
			&automl.CAML{Params: offParams, Label: "CAML(fixed-val)"})
		if i == b.N-1 {
			b.Logf("1min budget: reshuffled validation %.4f vs fixed %.4f", on, off)
			b.ReportMetric(on, "reshuffle-bacc")
			b.ReportMetric(off, "fixed-val-bacc")
		}
	}
}

// BenchmarkAblationUpfrontSampling isolates the tuning process's
// always-selected upfront sampling knob (paper §3.7: "this
// search-time-specific sampling step is not implemented by any AutoML
// system").
func BenchmarkAblationUpfrontSampling(b *testing.B) {
	onParams := automl.DefaultTunedParams(10 * time.Second)
	offParams := automl.DefaultTunedParams(10 * time.Second)
	offParams.SampleRows = 0
	for i := 0; i < b.N; i++ {
		on, off := runAblation(b, 10*time.Second,
			&automl.CAML{Params: onParams, Label: "CAML(sampled)"},
			&automl.CAML{Params: offParams, Label: "CAML(all-rows)"})
		if i == b.N-1 {
			b.Logf("10s budget: upfront sampling %.4f vs all rows %.4f", on, off)
			b.ReportMetric(on, "sampled-bacc")
			b.ReportMetric(off, "allrows-bacc")
		}
	}
}

// BenchmarkAblationStacking isolates AutoGluon's second stacking layer by
// comparing the default preset against a bag-only run at the same budget.
// Stacking is the paper's explanation for both AutoGluon's accuracy and
// its order-of-magnitude inference cost (Observation O1).
func BenchmarkAblationStacking(b *testing.B) {
	cfg := ablationConfig(b, time.Minute)
	for i := 0; i < b.N; i++ {
		records, err := bench.RunGrid([]automl.System{
			automl.NewAutoGluon(),
			automl.NewAutoGluonFastInference(),
		}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		stats := bench.Aggregate(records, benchAblRNG())
		if i == b.N-1 {
			full := meanScore(stats, "AutoGluon")
			fast := meanScore(stats, "AutoGluon(fast-infer)")
			var fullInfer, fastInfer float64
			for _, s := range stats {
				switch s.Key.System {
				case "AutoGluon":
					fullInfer = s.InferKWhPerInst
				case "AutoGluon(fast-infer)":
					fastInfer = s.InferKWhPerInst
				}
			}
			b.Logf("1min: full stack %.4f bacc / %.3g kWh-inst vs refit %.4f / %.3g",
				full, fullInfer, fast, fastInfer)
			b.ReportMetric(full, "stack-bacc")
			b.ReportMetric(fast, "refit-bacc")
			if fastInfer > 0 {
				b.ReportMetric(fullInfer/fastInfer, "stack-infer-cost-ratio")
			}
		}
	}
}

func benchAblRNG() *rand.Rand { return rand.New(rand.NewPCG(0xab1a, 0x7)) }
