package ml

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tabular"
)

// AdaBoostParams configure the SAMME boosting classifier.
type AdaBoostParams struct {
	// Rounds is the number of boosting rounds (default 30).
	Rounds int
	// Tree holds the weak learner's parameters (depth defaults to 1 —
	// decision stumps).
	Tree TreeParams
}

func (p AdaBoostParams) normalized() AdaBoostParams {
	if p.Rounds < 1 {
		p.Rounds = 30
	}
	if p.Tree.MaxDepth <= 0 {
		p.Tree.MaxDepth = 1
	}
	return p
}

// AdaBoost is the multi-class SAMME variant of adaptive boosting over
// decision stumps/trees: each round reweights misclassified instances
// (realized as weighted resampling, which keeps the weak learner
// unchanged) and weak learners vote with log-odds weights.
type AdaBoost struct {
	Params  AdaBoostParams
	classes int
	stumps  []*TreeClassifier
	alphas  []float64
}

// NewAdaBoost constructs an AdaBoost classifier.
func NewAdaBoost(p AdaBoostParams) *AdaBoost { return &AdaBoost{Params: p} }

// Fit implements Classifier.
func (a *AdaBoost) Fit(ds tabular.View, rng *rand.Rand) (Cost, error) {
	p := a.Params.normalized()
	a.Params = p
	n, k := ds.Rows(), ds.Classes()
	a.classes = k
	labels := ds.LabelsInto(nil)
	a.stumps = a.stumps[:0]
	a.alphas = a.alphas[:0]

	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}
	var cost Cost
	cum := make([]float64, n)
	idx := make([]int, n)
	for round := 0; round < p.Rounds; round++ {
		// Weighted resample (cheap stand-in for weighted impurity).
		var total float64
		for i, w := range weights {
			total += w
			cum[i] = total
		}
		for i := range idx {
			u := rng.Float64() * total
			lo, hi := 0, n-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			idx[i] = lo
		}
		cost.Generic += float64(n) * math.Log2(float64(n)+2)
		// The sample view aliases/composes idx; the stump gathers it into
		// its own column cache, so idx can be rewritten next round.
		sample := ds.Select(idx)

		stump := NewTreeClassifier(p.Tree)
		c, err := stump.Fit(sample, rng)
		cost.Add(c)
		if err != nil {
			return cost, fmt.Errorf("ml: adaboost round %d: %w", round, err)
		}

		// Weighted training error on the original data.
		pred, c2 := Predict(stump, ds)
		cost.Add(c2)
		var errW float64
		for i, yhat := range pred {
			if yhat != labels[i] {
				errW += weights[i]
			}
		}
		errW /= total
		if errW >= 1-1/float64(k) {
			// Worse than chance: discard and stop.
			break
		}
		if errW < 1e-10 {
			errW = 1e-10
		}
		alpha := math.Log((1-errW)/errW) + math.Log(float64(k)-1) // SAMME
		a.stumps = append(a.stumps, stump)
		a.alphas = append(a.alphas, alpha)

		// Reweight.
		var newTotal float64
		for i, yhat := range pred {
			if yhat != labels[i] {
				weights[i] *= math.Exp(alpha)
			}
			newTotal += weights[i]
		}
		for i := range weights {
			weights[i] /= newTotal
		}
		cost.Generic += float64(3 * n)
		if errW < 1e-9 {
			break // perfect weak learner: done
		}
	}
	return cost, nil
}

// PredictProba implements Classifier: alpha-weighted votes normalized
// to probabilities, accumulated in stump order.
func (a *AdaBoost) PredictProba(x tabular.View) ([][]float64, Cost) {
	m := x.Rows()
	if len(a.stumps) == 0 {
		return uniformProba(m, max(a.classes, 2)), Cost{}
	}
	var cost Cost
	out := make([][]float64, m) //greenlint:allow rowmajor proba output rows, class-wide not feature-wide
	for i := range out {
		out[i] = make([]float64, a.classes)
	}
	for s, stump := range a.stumps {
		pred, c := Predict(stump, x)
		cost.Add(c)
		for i, yhat := range pred {
			out[i][yhat] += a.alphas[s]
		}
	}
	for i := range out {
		normalizeInPlace(out[i])
	}
	cost.Generic += float64(m * a.classes)
	return out, cost
}

// Clone implements Classifier.
func (a *AdaBoost) Clone() Classifier { return NewAdaBoost(a.Params) }

// Name implements Classifier.
func (a *AdaBoost) Name() string {
	p := a.Params.normalized()
	return fmt.Sprintf("adaboost(rounds=%d,depth=%d)", p.Rounds, p.Tree.MaxDepth)
}

// ParallelFrac implements Classifier: boosting rounds are sequential.
func (a *AdaBoost) ParallelFrac() float64 { return 0.2 }

// Rounds reports the number of fitted weak learners.
func (a *AdaBoost) Rounds() int { return len(a.stumps) }
