package main

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/tabular"
)

func iv(lo, hi int) interval {
	return interval{time.Duration(lo), time.Duration(hi)}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		name string
		ivs  []interval
		want time.Duration
	}{
		{"none", nil, 0},
		{"one", []interval{iv(2, 5)}, 3},
		{"disjoint", []interval{iv(0, 2), iv(5, 6)}, 3},
		{"overlapping workers", []interval{iv(0, 6), iv(4, 10)}, 10},
		{"nested", []interval{iv(0, 10), iv(2, 3), iv(4, 8)}, 10},
		{"touching", []interval{iv(0, 2), iv(2, 4)}, 4},
		{"unsorted", []interval{iv(8, 9), iv(0, 3), iv(2, 5)}, 6},
		{"empty and inverted ignored", []interval{iv(3, 3), iv(5, 4), iv(0, 1)}, 1},
		{"chain", []interval{iv(0, 2), iv(1, 4), iv(3, 6), iv(7, 8)}, 7},
	}
	for _, c := range cases {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("%s: unionLen = %v, want %v", c.name, got, c.want)
		}
	}
}

// Two grid workers fit cells at once: self time must subtract the time
// either worker was busy, once, not the sum of their busy times.
func TestSelfTimeWithTwoWorkers(t *testing.T) {
	grid := iv(0, 100)
	worker1 := []interval{iv(0, 40), iv(40, 70)}
	worker2 := []interval{iv(5, 50), iv(60, 90)}
	kids := append(append([]interval(nil), worker1...), worker2...)
	if got := selfTime(grid, kids); got != 10 {
		t.Errorf("selfTime = %v, want 10 (covered 0-90)", got)
	}
	spans := []span{}
	for _, k := range kids {
		spans = append(spans, span{start: k.lo, end: k.hi})
	}
	if got := busyTime(spans); got != 145 {
		t.Errorf("busyTime = %v, want 145 (overlap counts twice)", got)
	}
}

func TestSelfTimeClipsChildren(t *testing.T) {
	if got := selfTime(iv(10, 20), []interval{iv(0, 12), iv(18, 30)}); got != 6 {
		t.Errorf("selfTime = %v, want 6", got)
	}
	if got := selfTime(iv(10, 20), []interval{iv(30, 40)}); got != 10 {
		t.Errorf("selfTime with a child outside the parent = %v, want 10", got)
	}
	if got := selfTime(iv(10, 20), nil); got != 10 {
		t.Errorf("selfTime without children = %v, want 10", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	i := tr.enter("x", "", 0)
	tr.end(tr.begin("y", "", 0))
	tr.leave(i)
	if i != -1 {
		t.Errorf("nil tracer returned span %d", i)
	}
}

type constPredictor struct{}

func (constPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	return make([][]float64, x.Rows()), ml.Cost{Generic: 1}
}

// Spans opened by decorators while a parent is current belong to it,
// also when two goroutines open them at once.
func TestSpansNestUnderCurrentParent(t *testing.T) {
	tr := newTracer()
	p := &tracedPredictor{inner: constPredictor{}, tr: tr, name: "automl.predict"}
	g := tr.enter("bench.grid", "", 0)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.PredictProba(tabular.FromRows([][]float64{{1}, {2}}))
			}
		}()
	}
	wg.Wait()
	tr.leave(g)
	after := tr.begin("loose", "", 0)
	tr.end(after)

	kids := tr.childrenOf()[g]
	if len(kids) != 100 {
		t.Fatalf("grid has %d child spans, want 100", len(kids))
	}
	if p.calls.Load() != 100 || p.rows.Load() != 200 {
		t.Errorf("predictor counted %d calls and %d rows, want 100 and 200", p.calls.Load(), p.rows.Load())
	}
	if tr.spans[after].parent != -1 {
		t.Errorf("span opened after leave has parent %d, want -1", tr.spans[after].parent)
	}
	idx, grids := tr.closed("bench.grid")
	if len(grids) != 1 || idx[0] != g {
		t.Fatalf("closed(bench.grid) = %v %v", idx, grids)
	}
	var ivs []interval
	for _, k := range kids {
		ivs = append(ivs, k.interval())
	}
	if s := selfTime(grids[0].interval(), ivs); s < 0 || s > grids[0].end-grids[0].start {
		t.Errorf("self time %v outside [0, %v]", s, grids[0].end-grids[0].start)
	}
}

const tracesOutput = `File: perfbench
Type: cpu
Duration: 2.65s, Total samples = 60ms (2.26%)
-----------+-------------------------------------------------------
      10ms   runtime.heapSetTypeNoHeader (inline)
             repro/internal/ml.(*treeCore).orderByFeature
             repro/internal/ml.(*BoostingClassifier).Fit
             repro/internal/pipeline.(*Pipeline).Fit
             main.main
-----------+-------------------------------------------------------
      20ms   repro/internal/preprocess.(*Scaler).Transform
             repro/internal/pipeline.(*Pipeline).Fit
             repro/internal/pipeline.(*Pipeline).Fit
-----------+-------------------------------------------------------
      30ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	sh, err := parseTraces([]byte(tracesOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ml": 1.0 / 6, "pipeline": 3.0 / 6, "preprocess": 2.0 / 6, "search": 0, "ensemble": 0}
	for l, w := range want {
		if got := sh.layer[l]; got != w {
			t.Errorf("%s share = %v, want %v", l, got, w)
		}
	}
	if sh.treeSort != 1.0/6 {
		t.Errorf("tree sort share = %v, want 1/6", sh.treeSort)
	}
	if sh.samples != 60*time.Millisecond {
		t.Errorf("samples = %v, want 60ms", sh.samples)
	}
	if _, err := parseTraces([]byte("File: x\n")); err == nil {
		t.Error("a profile without samples parsed")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/ml.(*treeCore).fit":     "repro/internal/ml",
		"repro/internal/ml.runIndexed.func1":    "repro/internal/ml",
		"sort.Sort":                             "sort",
		"runtime.mallocgc":                      "runtime",
		"main.(*tracer).begin":                  "main",
		"repro/internal/pipeline.(*Pipeline).X": "repro/internal/pipeline",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// BENCHMARK.json must name exactly the metrics the program reports, with
// the same units, and every workload the program runs but unlisted ones.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok || unlisted[w.Name] {
			t.Errorf("BENCHMARK.json workload %s has no runner or is marked unlisted", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] && !unlisted[name] {
			t.Errorf("workload %s is neither in BENCHMARK.json nor marked unlisted", name)
		}
	}
	compare := func(kind string, listed []struct{ Name, Unit string }, table []named) {
		if len(listed) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(table))
		}
		for i := range min(len(listed), len(table)) {
			if listed[i].Name != table[i].name || listed[i].Unit != table[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, table[i].name, table[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
