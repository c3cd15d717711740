package bench

import (
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"repro/internal/automl"
	"repro/internal/metrics"
	"repro/internal/openml"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xbe)) }

func tinyConfig() Config {
	specs := []openml.Spec{}
	for _, name := range []string{"credit-g", "phoneme"} {
		s, _ := openml.ByName(name)
		specs = append(specs, s)
	}
	return Config{
		Datasets: specs,
		Budgets:  []time.Duration{10 * time.Second},
		Seeds:    1,
		Scale:    openml.SmallScale(),
	}
}

// mustRunGrid runs the grid and fails the test on an error.
func mustRunGrid(tb testing.TB, systems []automl.System, cfg Config) []Record {
	tb.Helper()
	records, err := RunGrid(systems, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return records
}

func TestRunGridCoversCells(t *testing.T) {
	cfg := tinyConfig()
	systems := []automl.System{automl.NewCAML(), automl.NewTabPFN()}
	records := mustRunGrid(t, systems, cfg)
	if len(records) != 4 { // 2 systems x 2 datasets x 1 budget x 1 seed
		t.Fatalf("%d records, want 4", len(records))
	}
	for _, r := range records {
		if r.Failure != "" || r.Fallback {
			t.Errorf("%s on %s failed: %s", r.System, r.Dataset, r.Failure)
		}
		if r.Attempts != 1 {
			t.Errorf("%s on %s consumed %d attempts without faults", r.System, r.Dataset, r.Attempts)
		}
		if r.TestScore <= 0 || r.ExecKWh <= 0 || r.InferKWhPerInst <= 0 {
			t.Errorf("incomplete record %+v", r)
		}
	}
}

func TestRunGridSkipsBelowMinBudget(t *testing.T) {
	cfg := tinyConfig() // 10s budget only
	records := mustRunGrid(t, []automl.System{automl.NewTPOT()}, cfg)
	if len(records) != 0 {
		t.Errorf("TPOT ran below its 1-minute minimum budget: %d records", len(records))
	}
}

func TestAggregate(t *testing.T) {
	records := []Record{
		{System: "A", Dataset: "d1", Budget: time.Second, TestScore: 0.6, ExecKWh: 1, InferKWhPerInst: 0.1, ExecTime: time.Second},
		{System: "A", Dataset: "d1", Budget: time.Second, TestScore: 0.8, ExecKWh: 3, InferKWhPerInst: 0.3, ExecTime: 3 * time.Second},
		{System: "A", Dataset: "d2", Budget: time.Second, TestScore: 1.0, ExecKWh: 2, InferKWhPerInst: 0.2, ExecTime: 2 * time.Second},
		{System: "A", Dataset: "d1", Budget: time.Second, Failure: "fit-panic"}, // not scored
		{System: "B", Dataset: "d1", Budget: time.Second, TestScore: 0.5, ExecKWh: 5, InferKWhPerInst: 0.5, ExecTime: 5 * time.Second},
	}
	stats := Aggregate(records, testRNG(1))
	if len(stats) != 2 {
		t.Fatalf("%d cells, want 2", len(stats))
	}
	var a CellStats
	for _, s := range stats {
		if s.Key.System == "A" {
			a = s
		}
	}
	if a.Runs != 3 {
		t.Errorf("A runs %d, want 3 (failure excluded)", a.Runs)
	}
	// Bootstrap mean: datasets average ((0.6|0.8) + 1.0)/2 -> ~0.85.
	if a.Score.Mean < 0.75 || a.Score.Mean > 0.95 {
		t.Errorf("A score %v, want ~0.85", a.Score.Mean)
	}
	if a.Score.Std <= 0 {
		t.Error("A score std zero despite run variance")
	}
	// Exec energy: mean over dataset means ((1+3)/2 + 2)/2 = 2.
	if a.ExecKWh != 2 {
		t.Errorf("A exec %v kWh, want 2", a.ExecKWh)
	}
}

func TestBestCellAndSystems(t *testing.T) {
	stats := []CellStats{
		{Key: CellKey{System: "A", Budget: time.Second}, Score: summary(0.7)},
		{Key: CellKey{System: "A", Budget: time.Minute}, Score: summary(0.9)},
		{Key: CellKey{System: "B", Budget: time.Minute}, Score: summary(0.8)},
	}
	best, ok := BestCell(stats, "A")
	if !ok || best.Key.Budget != time.Minute {
		t.Errorf("best cell %+v", best)
	}
	if _, ok := BestCell(stats, "missing"); ok {
		t.Error("missing system resolved")
	}
	if got := Systems(stats); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("systems %v", got)
	}
}

func TestFig4CrossoverMath(t *testing.T) {
	stats := []CellStats{
		{Key: CellKey{System: "TabPFN", Budget: time.Second}, Score: summary(0.7), ExecKWh: 0.001, InferKWhPerInst: 1e-4},
		{Key: CellKey{System: "FLAML", Budget: time.Second}, Score: summary(0.7), ExecKWh: 0.101, InferKWhPerInst: 0},
	}
	res := Fig4(stats, []float64{10, 1e6})
	// Crossover: 0.001 + n*1e-4 = 0.101 -> n = 1000.
	if res.TabPFNCrossover != 1000 {
		t.Errorf("crossover %v, want 1000", res.TabPFNCrossover)
	}
	// Series totals.
	for _, s := range res.Series {
		if s.System == "TabPFN" && s.TotalKWh[1] != 0.001+1e6*1e-4 {
			t.Errorf("TabPFN total %v", s.TotalKWh[1])
		}
	}
	// No crossover when TabPFN is cheaper everywhere.
	cheap := []CellStats{
		{Key: CellKey{System: "TabPFN", Budget: time.Second}, ExecKWh: 0.001, InferKWhPerInst: 0},
		{Key: CellKey{System: "FLAML", Budget: time.Second}, ExecKWh: 0.1, InferKWhPerInst: 1},
	}
	if got := Fig4(cheap, nil).TabPFNCrossover; got != 0 {
		t.Errorf("impossible crossover %v", got)
	}
}

func TestTable4Ordering(t *testing.T) {
	stats := []CellStats{
		{Key: CellKey{System: "cheap", Budget: time.Second}, InferKWhPerInst: 1e-9},
		{Key: CellKey{System: "dear", Budget: time.Second}, InferKWhPerInst: 1e-6},
	}
	res := Table4(stats)
	if len(res.Rows) != 2 || res.Rows[0].System != "dear" {
		t.Errorf("rows %v — want most expensive first (paper Table 4)", res.Rows)
	}
	if res.Rows[0].EnergyKWh != 1e6 {
		t.Errorf("trillion-prediction energy %v, want 1e6 kWh", res.Rows[0].EnergyKWh)
	}
	if res.Rows[0].CO2Kg <= 0 || res.Rows[0].CostEUR <= 0 {
		t.Error("conversions missing")
	}
}

func TestTable6Counting(t *testing.T) {
	records := []Record{
		// System A overfits on d1 (5m < 1m) but not on d2.
		{System: "A", Dataset: "d1", Budget: time.Minute, TestScore: 0.9},
		{System: "A", Dataset: "d1", Budget: 5 * time.Minute, TestScore: 0.7},
		{System: "A", Dataset: "d2", Budget: time.Minute, TestScore: 0.6},
		{System: "A", Dataset: "d2", Budget: 5 * time.Minute, TestScore: 0.8},
		// d3 has no 5-minute record: not counted either way.
		{System: "A", Dataset: "d3", Budget: time.Minute, TestScore: 0.5},
	}
	res := Table6(records)
	if len(res.Rows) != 1 {
		t.Fatalf("rows %v", res.Rows)
	}
	if res.Rows[0].Overfits != 1 || res.Rows[0].Datasets != 2 {
		t.Errorf("row %+v, want 1 overfit of 2 datasets", res.Rows[0])
	}
}

func TestTable7SortsByActualTime(t *testing.T) {
	stats := []CellStats{
		{Key: CellKey{System: "slow", Budget: 5 * time.Minute}, ExecTime: 400 * time.Second},
		{Key: CellKey{System: "fast", Budget: 5 * time.Minute}, ExecTime: 300 * time.Second},
	}
	res := Table7(stats, []time.Duration{5 * time.Minute})
	if res.Rows[0].System != "fast" {
		t.Errorf("rows not sorted fastest-first: %v", res.Rows)
	}
	// Missing budgets render as -1.
	res = Table7(stats, []time.Duration{time.Second})
	for _, row := range res.Rows {
		if row.Mean[0] >= 0 {
			t.Errorf("missing budget produced %v", row.Mean[0])
		}
	}
}

func TestRendersNonEmpty(t *testing.T) {
	stats := []CellStats{{Key: CellKey{System: "X", Budget: time.Second}, Score: summary(0.5)}}
	records := []Record{{System: "X", Dataset: "d", Budget: time.Minute, TestScore: 0.5}}
	outputs := []string{
		Fig3Result{Stats: stats, Records: records}.Render(),
		Fig4(stats, nil).Render(),
		Fig5Result{Cells: []Fig5Cell{{System: "X", Cores: 1, Budget: time.Second}}}.Render(),
		Fig6Result{Cells: []Fig6Cell{{Variant: "X", Budget: time.Second}}}.Render(),
		Table3Result{Rows: []Table3Row{{System: "X"}}}.Render(),
		Table4(stats).Render(),
		Table6(records).Render(),
		Table7(stats, nil).Render(),
		SweepResult{Label: "k", Rows: []SweepRow{{Value: 10}}}.Render(),
	}
	for i, out := range outputs {
		if len(strings.TrimSpace(out)) == 0 {
			t.Errorf("render %d empty", i)
		}
	}
	if got := RenderCAMLParams(automl.DefaultCAMLParams()); !strings.Contains(got, "holdout=0.33") {
		t.Errorf("params render %q", got)
	}
}

func TestFormatBudget(t *testing.T) {
	if FormatBudget(10*time.Second) != "10s" {
		t.Error("seconds format")
	}
	if FormatBudget(5*time.Minute) != "5min" {
		t.Error("minutes format")
	}
}

func summary(mean float64) metrics.Summary {
	return metrics.Summary{Mean: mean}
}

func TestWinners(t *testing.T) {
	records := []Record{
		{System: "A", Dataset: "adult", Budget: time.Second, TestScore: 0.9},
		{System: "B", Dataset: "adult", Budget: time.Second, TestScore: 0.8},
		{System: "A", Dataset: "credit-g", Budget: time.Second, TestScore: 0.5},
		{System: "B", Dataset: "credit-g", Budget: time.Second, TestScore: 0.7},
		{System: "B", Dataset: "robert", Budget: time.Second, TestScore: 0.7},
		{System: "A", Dataset: "adult", Budget: time.Minute, TestScore: 0.9},
	}
	res := Winners(records)
	if len(res.Budgets) != 2 {
		t.Fatalf("budgets %v", res.Budgets)
	}
	wins := res.Wins[time.Second]
	if wins["A"] != 1 || wins["B"] != 2 {
		t.Errorf("wins %v, want A:1 B:2", wins)
	}
	if res.Datasets[time.Second] != 3 {
		t.Errorf("datasets %d, want 3", res.Datasets[time.Second])
	}
	// Characteristic breakdown: credit-g is small (1000 rows, 20
	// features), robert is wide (7200 features).
	ch := res.Characteristics(time.Second)
	if ch.SmallWins["B"] != 1 {
		t.Errorf("small wins %v", ch.SmallWins)
	}
	if ch.WideWins["B"] != 1 {
		t.Errorf("wide wins %v", ch.WideWins)
	}
	if out := res.Render(); !strings.Contains(out, "1s") {
		t.Errorf("render %q", out)
	}
}

func TestExportRoundTrip(t *testing.T) {
	records := []Record{
		{System: "A", Dataset: "d1", Budget: time.Second, Seed: 3, TestScore: 0.5, ExecKWh: 0.01, ExecTime: 2 * time.Second, InferKWhPerInst: 1e-8, Evaluated: 7},
		{System: "B", Dataset: "d2", Budget: time.Minute, Failure: "fit-error", Attempts: 2},
	}
	var jsonBuf, csvBuf strings.Builder
	if err := WriteJSON(&jsonBuf, records); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(jsonBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != records[0] || back[1] != records[1] {
		t.Errorf("json round trip lost data: %+v", back)
	}
	if err := WriteCSV(&csvBuf, records); err != nil {
		t.Fatal(err)
	}
	out := csvBuf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "system,dataset,budget_s") {
		t.Errorf("csv header %q", lines[0])
	}
	if !strings.Contains(lines[1], "A,d1,1,3,0.5") {
		t.Errorf("csv row %q", lines[1])
	}
	if !strings.Contains(lines[2], "fit-error") {
		t.Errorf("failure kind missing: %q", lines[2])
	}
}

func TestSignificance(t *testing.T) {
	var records []Record
	datasets := []string{"d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10", "d11", "d12"}
	for i, d := range datasets {
		// A consistently beats B by a margin that varies per dataset.
		records = append(records,
			Record{System: "A", Dataset: d, Budget: time.Minute, TestScore: 0.8 + float64(i)*0.001},
			Record{System: "B", Dataset: d, Budget: time.Minute, TestScore: 0.7 + float64(i)*0.002},
		)
	}
	res := Significance(records)
	if res.Top[time.Minute] != "A" {
		t.Errorf("top system %q, want A", res.Top[time.Minute])
	}
	if res.Ranks[time.Minute]["A"] != 1 || res.Ranks[time.Minute]["B"] != 2 {
		t.Errorf("ranks %v", res.Ranks[time.Minute])
	}
	if p := res.PValues[time.Minute]["B"]; p > 0.01 {
		t.Errorf("p-value %v for a 12-dataset sweep, want significant", p)
	}
	if out := res.Render(); !strings.Contains(out, "top: A") {
		t.Errorf("render %q", out)
	}
}

func TestSVGRenderers(t *testing.T) {
	stats := []CellStats{
		{Key: CellKey{System: "A", Budget: 10 * time.Second}, Score: summary(0.6), ExecKWh: 1e-4, InferKWhPerInst: 1e-8},
		{Key: CellKey{System: "A", Budget: time.Minute}, Score: summary(0.7), ExecKWh: 1e-3, InferKWhPerInst: 2e-8},
		{Key: CellKey{System: "B", Budget: time.Minute}, Score: summary(0.65), ExecKWh: 5e-4, InferKWhPerInst: 1e-6},
	}
	var execSVG, inferSVG strings.Builder
	if err := WriteFig3SVG(&execSVG, stats, false); err != nil {
		t.Fatal(err)
	}
	if err := WriteFig3SVG(&inferSVG, stats, true); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{execSVG.String(), inferSVG.String()} {
		if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
			t.Fatal("not a complete SVG document")
		}
		if !strings.Contains(out, "polyline") || !strings.Contains(out, "circle") {
			t.Error("missing marks")
		}
		for _, sys := range []string{"A", "B"} {
			if !strings.Contains(out, ">"+sys+"<") {
				t.Errorf("legend misses %s", sys)
			}
		}
	}

	fig4 := Fig4(stats, []float64{1e2, 1e4, 1e6})
	var f4 strings.Builder
	if err := WriteFig4SVG(&f4, fig4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f4.String(), "polyline") {
		t.Error("fig4 svg missing lines")
	}
	if err := WriteFig4SVG(&f4, Fig4Result{}); err == nil {
		t.Error("empty fig4 accepted")
	}

	fig5 := Fig5Result{Cells: []Fig5Cell{
		{System: "CAML", Cores: 1, Budget: time.Minute, Score: 0.6, ExecKWh: 1e-3},
		{System: "CAML", Cores: 8, Budget: time.Minute, Score: 0.61, ExecKWh: 2.7e-3},
	}}
	var f5 strings.Builder
	if err := WriteFig5SVG(&f5, fig5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f5.String(), "CAML/8 cores") {
		t.Error("fig5 legend missing core counts")
	}
	if err := WriteFig5SVG(&f5, Fig5Result{}); err == nil {
		t.Error("empty fig5 accepted")
	}
}
