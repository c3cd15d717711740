package ml

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tabular"
)

// ForestParams configure random forests and extremely randomized trees.
type ForestParams struct {
	// Trees is the ensemble size.
	Trees int
	// Tree holds the per-tree parameters. A zero MaxFeatures defaults to
	// sqrt(d)/d, the random-forest convention.
	Tree TreeParams
	// Bootstrap resamples the training set per tree (random forests do,
	// extra-trees by convention do not).
	Bootstrap bool
	// ExtraTrees switches to random-threshold splitting.
	ExtraTrees bool
}

func (p ForestParams) normalized(features int) ForestParams {
	if p.Trees < 1 {
		p.Trees = 10
	}
	if p.Tree.MaxFeatures <= 0 {
		p.Tree.MaxFeatures = math.Sqrt(float64(features)) / float64(features)
	}
	p.Tree.RandomThreshold = p.ExtraTrees
	return p
}

// ForestClassifier is a random forest (or extra-trees) classifier.
type ForestClassifier struct {
	Params  ForestParams
	trees   []*TreeClassifier
	classes int
}

// NewForestClassifier constructs a forest with the given parameters.
func NewForestClassifier(p ForestParams) *ForestClassifier {
	return &ForestClassifier{Params: p}
}

// Fit implements Classifier. The parent stream is consumed up front —
// one PCG seed pair per tree, in tree order — and each tree then draws
// its bootstrap sample and feature subsets from its own stream. The
// grid oracle pins these pre-split seeds.
func (f *ForestClassifier) Fit(ds tabular.View, rng *rand.Rand) (Cost, error) {
	p := f.Params.normalized(ds.Features())
	f.classes = ds.Classes()
	n := ds.Rows()
	seeds := make([][2]uint64, p.Trees)
	for i := range seeds {
		seeds[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	// One bootstrap index buffer (same draws as View.Bootstrap) serves
	// every tree: the tree kernel gathers the view into its column
	// cache, so the next tree may overwrite it.
	var bootIdx []int
	if p.Bootstrap {
		bootIdx = make([]int, n)
	}
	var cost Cost
	f.trees = f.trees[:0]
	for i, seed := range seeds {
		trng := rand.New(rand.NewPCG(seed[0], seed[1]))
		tree := NewTreeClassifier(p.Tree)
		data := ds
		var treeCost Cost
		if p.Bootstrap {
			for j := range bootIdx {
				bootIdx[j] = ds.RowIndex(trng.IntN(n))
			}
			treeCost.Generic += float64(n)
			data = tabular.NewView(ds.Frame(), bootIdx)
		}
		c, err := tree.Fit(data, trng)
		treeCost.Add(c)
		if err != nil {
			// The first error wins, counting only the trees before it.
			return cost, fmt.Errorf("ml: forest tree %d: %w", i, err)
		}
		cost.Add(treeCost)
		f.trees = append(f.trees, tree)
	}
	return cost, nil
}

// PredictProba implements Classifier by averaging tree leaf
// distributions, accumulated in tree order.
func (f *ForestClassifier) PredictProba(x tabular.View) ([][]float64, Cost) {
	if len(f.trees) == 0 {
		return uniformProba(x.Rows(), max(f.classes, 2)), Cost{}
	}
	var cost Cost
	out := make([][]float64, x.Rows()) //greenlint:allow rowmajor proba output rows, class-wide not feature-wide
	for i := range out {
		out[i] = make([]float64, f.classes)
	}
	for _, tree := range f.trees {
		proba, c := tree.PredictProba(x)
		cost.Add(c)
		for i, row := range proba {
			for j, p := range row {
				out[i][j] += p
			}
		}
	}
	inv := 1 / float64(len(f.trees))
	for i := range out {
		for j := range out[i] {
			out[i][j] *= inv
		}
	}
	cost.Generic += float64(x.Rows() * f.classes * len(f.trees))
	return out, cost
}

// Clone implements Classifier.
func (f *ForestClassifier) Clone() Classifier { return NewForestClassifier(f.Params) }

// Name implements Classifier.
func (f *ForestClassifier) Name() string {
	kind := "rf"
	if f.Params.ExtraTrees {
		kind = "xt"
	}
	trees := f.Params.Trees
	if trees < 1 {
		trees = 10
	}
	return fmt.Sprintf("%s(trees=%d,depth=%d)", kind, trees, f.Params.Tree.normalized().MaxDepth)
}

// ParallelFrac implements Classifier: tree fits are embarrassingly
// parallel.
func (f *ForestClassifier) ParallelFrac() float64 { return 0.9 }

// TreeCount reports the number of fitted trees.
func (f *ForestClassifier) TreeCount() int { return len(f.trees) }

// ForestRegressor is a random-forest regressor. It additionally exposes the
// across-tree prediction variance, which the Bayesian-optimization
// surrogate needs for expected improvement.
type ForestRegressor struct {
	Params ForestParams
	trees  []*TreeRegressor
}

// NewForestRegressor constructs a forest regressor.
func NewForestRegressor(p ForestParams) *ForestRegressor {
	return &ForestRegressor{Params: p}
}

// FitReg implements Regressor with the pre-split per-tree streams of
// ForestClassifier.Fit.
func (f *ForestRegressor) FitReg(x tabular.View, y []float64, rng *rand.Rand) (Cost, error) {
	n := x.Rows()
	if n == 0 {
		return Cost{}, fmt.Errorf("ml: forest regressor fit on empty data")
	}
	p := f.Params.normalized(x.Features())
	seeds := make([][2]uint64, p.Trees)
	for i := range seeds {
		seeds[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	// One bootstrap resample buffer pair serves every tree: the tree
	// kernel gathers what it needs into its column cache.
	var bootIdx []int
	var bootY []float64
	if p.Bootstrap {
		bootIdx, bootY = make([]int, n), make([]float64, len(y))
	}
	var cost Cost
	f.trees = f.trees[:0]
	for i, seed := range seeds {
		trng := rand.New(rand.NewPCG(seed[0], seed[1]))
		tree := NewTreeRegressor(p.Tree)
		xs, ys := x, y
		var treeCost Cost
		if p.Bootstrap {
			for j := range bootIdx {
				r := trng.IntN(n)
				bootIdx[j] = x.RowIndex(r)
				bootY[j] = y[r]
			}
			treeCost.Generic += float64(n)
			xs, ys = tabular.NewView(x.Frame(), bootIdx), bootY
		}
		c, err := tree.FitReg(xs, ys, trng)
		treeCost.Add(c)
		if err != nil {
			// The first error wins, counting only the trees before it.
			return cost, fmt.Errorf("ml: forest regressor tree %d: %w", i, err)
		}
		cost.Add(treeCost)
		f.trees = append(f.trees, tree)
	}
	return cost, nil
}

// PredictReg implements Regressor by averaging tree predictions.
func (f *ForestRegressor) PredictReg(x tabular.View) ([]float64, Cost) {
	mean, _, cost := f.PredictWithStd(x)
	return mean, cost
}

// PredictWithStd returns the per-row mean and standard deviation of the
// tree predictions.
func (f *ForestRegressor) PredictWithStd(x tabular.View) (mean, std []float64, cost Cost) {
	mean = make([]float64, x.Rows())
	std = make([]float64, x.Rows())
	if len(f.trees) == 0 {
		return mean, std, cost
	}
	sums := make([]float64, x.Rows())
	sumSqs := make([]float64, x.Rows())
	for _, tree := range f.trees {
		pred, c := tree.PredictReg(x)
		cost.Add(c)
		for i, v := range pred {
			sums[i] += v
			sumSqs[i] += v * v
		}
	}
	n := float64(len(f.trees))
	for i := range mean {
		m := sums[i] / n
		mean[i] = m
		variance := sumSqs[i]/n - m*m
		if variance > 0 {
			std[i] = math.Sqrt(variance)
		}
	}
	cost.Generic += float64(x.Rows()) * n
	return mean, std, cost
}
