package ml

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/tabular"
)

// HistBoostingParams configure histogram-based gradient boosting.
type HistBoostingParams struct {
	// Rounds is the number of boosting iterations (default 50).
	Rounds int
	// LearningRate shrinks each round's contribution (default 0.1).
	LearningRate float64
	// MaxDepth limits the per-round tree depth (default 3).
	MaxDepth int
	// Bins is the histogram resolution per feature (default 32, capped
	// at 256 — bin indices are uint8).
	Bins int
}

func (p HistBoostingParams) normalized() HistBoostingParams {
	if p.Rounds < 1 {
		p.Rounds = 50
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 3
	}
	if p.Bins < 2 {
		p.Bins = 32
	}
	if p.Bins > 256 {
		p.Bins = 256
	}
	return p
}

// HistBoosting is a histogram-binned gradient-boosted tree classifier in
// the LightGBM/HistGradientBoosting family: features are quantized into a
// fixed number of bins once, and split search scans bin histograms instead
// of sorting — the trick that makes modern boosting libraries an order of
// magnitude cheaper to train than exact-split boosting. It is the closest
// stand-in for the LightGBM/XGBoost models real AutoGluon and FLAML lean
// on.
//
// The fit kernel is written for the columnar Frame: bins are column-major
// (one contiguous []uint8 per feature), the per-node histogram scan
// gathers the node's gradients once and then accumulates gradient and
// hessian-weight histograms in a fused, 8-wide unrolled pass per column
// with uint8-indexed fixed-size histogram arrays (no bounds checks on the
// accumulate).
type HistBoosting struct {
	Params  HistBoostingParams
	classes int
	// thresholds[j] holds the bin upper edges of feature j.
	thresholds [][]float64
	// nodes is the arena of every fitted tree's nodes; roots[r*classes+c]
	// indexes the class-c tree of round r. An arena keeps the ~rounds ×
	// classes × 2^depth nodes in a handful of allocations and walks
	// prediction through contiguous memory.
	nodes []histNode
	roots []int32
}

// histNode is one arena node of a regression tree over bin indices.
// Leaves have feature == -1.
type histNode struct {
	feature     int32
	bin         int32 // split: go left if binIdx <= bin
	left, right int32
	value       float64
}

// histScratch is the pooled working memory of one HistBoosting.Fit.
type histScratch struct {
	n, d int
	// binned is the column-major quantized matrix: binned[j*n+i] is the
	// bin of feature j at view row i.
	binned []uint8
	// idx is the shared node index buffer (each node owns a contiguous
	// range, split in place); spill/spillT are the partition scratch.
	idx, spill []int32
	// tgt[lo:hi] holds the node's gradients in node order — gathered
	// once at the root and partitioned alongside idx — so the d
	// per-column scans read them sequentially instead of re-gathering.
	tgt      []float64
	spillT   []float64
	residual []float64
	logits   []float64
	labBuf   []int
	colBuf   []float64 // column gather for subset views
	sortBuf  []float64 // quantile sort scratch
	posBuf   []int     // quantile position scratch
	// The histogram arrays are fixed [256] so the accumulation loop
	// indexes them with a uint8 bin — provably in bounds, so the
	// compiler drops the bounds checks; only the leading Bins entries
	// are ever cleared or read.
	histSum  [256]float64 // per-bin gradient (residual) sums
	histCnt  [256]int32   // per-bin hessian weights (counts, for L2 loss)
	histSum2 [256]float64 // second feature of a paired scan
	histCnt2 [256]int32
}

var histScratchPool = sync.Pool{New: func() any { return new(histScratch) }}

func getHistScratch(n, d, k int) *histScratch {
	s := histScratchPool.Get().(*histScratch)
	s.n, s.d = n, d
	s.binned = sizedU8(s.binned, n*d)
	s.idx = sizedI32(s.idx, n)
	s.spill = sizedI32(s.spill, n)
	s.tgt = sizedF64(s.tgt, n)
	s.spillT = sizedF64(s.spillT, n)
	s.residual = sizedF64(s.residual, n)
	s.logits = sizedF64(s.logits, n*k)
	clear(s.logits) // recycled scratch carries the previous fit's logits
	s.labBuf = sizedInt(s.labBuf, n)
	s.colBuf = sizedF64(s.colBuf, n)
	s.sortBuf = sizedF64(s.sortBuf, n)
	return s
}

func putHistScratch(s *histScratch) { histScratchPool.Put(s) }

func sizedU8(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n)
	}
	return buf[:n]
}

// NewHistBoosting constructs a histogram gradient-boosting classifier.
func NewHistBoosting(p HistBoostingParams) *HistBoosting { return &HistBoosting{Params: p} }

// Fit implements Classifier. The rng is unused: histogram boosting is
// deterministic given the data.
func (h *HistBoosting) Fit(ds tabular.View, _ *rand.Rand) (Cost, error) {
	p := h.Params.normalized()
	h.Params = p
	n, d, k := ds.Rows(), ds.Features(), ds.Classes()
	if n == 0 || d == 0 {
		return Cost{}, fmt.Errorf("ml: hist boosting on empty data")
	}
	h.classes = k

	var cost Cost
	s := getHistScratch(n, d, k)
	defer putHistScratch(s)

	// Quantize features once: thresholds at uniform quantiles. The
	// binned matrix is column-major (one []uint8 per feature) so the
	// per-node histogram scans below walk memory sequentially.
	h.thresholds = make([][]float64, d) //greenlint:allow rowmajor per-feature bin thresholds, bin-wide not row-wide
	for j := 0; j < d; j++ {
		col := ds.ColInto(j, s.colBuf)
		sorted := s.sortBuf[:n]
		hasNaN := false
		for i, v := range col {
			sorted[i] = v
			if v != v {
				hasNaN = true
			}
		}
		pos := s.posBuf[:0]
		for b := 1; b < p.Bins; b++ {
			q := b * n / p.Bins
			if q >= n {
				q = n - 1
			}
			if len(pos) == 0 || pos[len(pos)-1] != q {
				pos = append(pos, q)
			}
		}
		s.posBuf = pos
		if hasNaN {
			// NaN ordering is sort-algorithm-specific; keep the exact
			// legacy arrangement rather than select's.
			sort.Float64s(sorted)
		} else {
			// Order statistics do not depend on the sorting algorithm,
			// so selecting just the quantile positions yields the exact
			// edges a full sort would — at a fraction of the compares.
			multiSelect(sorted, 0, n, pos)
		}
		edges := make([]float64, 0, p.Bins-1)
		for b := 1; b < p.Bins; b++ {
			q := b * n / p.Bins
			if q >= n {
				q = n - 1
			}
			edges = append(edges, sorted[q])
		}
		h.thresholds[j] = edges
		bcol := s.binned[j*n : (j+1)*n : (j+1)*n]
		for i, v := range col {
			bcol[i] = binIndex(edges, v)
		}
	}
	cost.Generic += float64(n*d) * (math.Log2(float64(n)+2) + 2)

	logits := s.logits[:n*k]
	residual := s.residual
	labels := ds.LabelsInto(s.labBuf)

	h.nodes = h.nodes[:0]
	h.roots = h.roots[:0]
	for r := 0; r < p.Rounds; r++ {
		for c := 0; c < k; c++ {
			// Fused gradient pass: residual[i] = 1{y=c} − softmax_c of
			// row i's logits, computed directly (only class c's
			// probability is needed) with the exact float sequence of
			// the historical copy-softmax-index path.
			for i := 0; i < n; i++ {
				lrow := logits[i*k : i*k+k : i*k+k]
				maxv := math.Inf(-1)
				for _, x := range lrow {
					if x > maxv {
						maxv = x
					}
				}
				var sum, ec float64
				for j, x := range lrow {
					e := math.Exp(x - maxv)
					if j == c {
						ec = e
					}
					sum += e
				}
				pc := ec / sum
				if sum <= 0 {
					pc = 1 / float64(k)
				}
				indicator := 0.0
				if labels[i] == c {
					indicator = 1.0
				}
				residual[i] = indicator - pc
			}
			for i := range s.idx {
				s.idx[i] = int32(i)
			}
			// Root gather: tree growth keeps (idx, tgt) paired from here
			// on, partitioning both together so children never regather.
			var rsum float64
			tgt := s.tgt[:n]
			for i, v := range residual {
				tgt[i] = v
				rsum += v
			}
			root := h.buildTree(s, logits, c, 0, int32(n), 0, rsum, &cost)
			h.roots = append(h.roots, root)
		}
		cost.Generic += float64(n * k * 4)
	}
	return cost, nil
}

// multiSelect partially orders a[lo:hi) so that every index in pos
// (ascending, within [lo, hi)) holds its exact order statistic,
// recursing only into segments that still contain a wanted position.
// For Bins quantiles this does O(n log Bins) compares instead of the
// full sort's O(n log n). Tiny segments are insertion-sorted outright.
//
//greenlint:hotpath quantile-binning inner kernel; operates in place on caller scratch
func multiSelect(a []float64, lo, hi int, pos []int) {
	for len(pos) > 0 {
		if hi-lo <= 12 {
			for i := lo + 1; i < hi; i++ {
				for k := i; k > lo && a[k] < a[k-1]; k-- {
					a[k], a[k-1] = a[k-1], a[k]
				}
			}
			return
		}
		// Median-of-3 pivot, then Hoare partition: both halves are
		// non-empty, so the range always shrinks.
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi-1] < a[lo] {
			a[hi-1], a[lo] = a[lo], a[hi-1]
		}
		if a[hi-1] < a[mid] {
			a[hi-1], a[mid] = a[mid], a[hi-1]
		}
		pivot := a[mid]
		i, j := lo-1, hi
		for {
			for {
				i++
				if !(a[i] < pivot) {
					break
				}
			}
			for {
				j--
				if !(pivot < a[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		cut := j + 1
		split := len(pos)
		for k, p := range pos {
			if p >= cut {
				split = k
				break
			}
		}
		if split == len(pos) {
			hi = cut
			continue
		}
		if split == 0 {
			lo = cut
			continue
		}
		multiSelect(a, lo, cut, pos[:split])
		lo, pos = cut, pos[split:]
	}
}

// binIndex returns the number of edges strictly below v — the first
// index where v <= edges[i]. The loop is the branch-free lower-bound
// shape (the range shrinks by half unconditionally and the comparison
// only shifts the base), which compiles to a conditional move instead
// of an unpredictable branch per probe.
//
//greenlint:hotpath per-cell binning probe; runs rows-times-features times per fit
func binIndex(edges []float64, v float64) uint8 {
	base, n := 0, len(edges)
	for n > 1 {
		half := n / 2
		if edges[base+half-1] < v {
			base += half
		}
		n -= half
	}
	if n == 1 && edges[base] < v {
		base++
	}
	return uint8(base)
}

// buildTree grows a depth-limited regression tree over the index range
// s.idx[lo:hi) and returns the arena index of its root. The node's
// gradients are gathered once into node order (s.tgt), then each
// feature's fused gradient/hessian histogram build and split scan
// yields its best (gain, bin), kept in ascending feature order with
// strict > — the argmax and tie-breaks of the historical lexicographic
// scan. Leaves apply their contribution to the shared logits directly
// (one add per owned row, replacing the historical per-row tree walk
// with identical arithmetic).
func (h *HistBoosting) buildTree(s *histScratch, logits []float64, class int, lo, hi int32, depth int, sum float64, cost *Cost) int32 {
	idx := s.idx[lo:hi]
	m := len(idx)
	tgt := s.tgt[lo:hi]
	node := histNode{feature: -1, value: sum / math.Max(float64(m), 1)}
	p := h.Params
	if depth >= p.MaxDepth || m < 4 {
		h.applyLeaf(logits, idx, class, node.value)
		return h.pushHist(node)
	}

	d := s.d
	bins := p.Bins
	// Features scan in pairs; odd d leaves a single tail feature.
	bestGain := 1e-9
	bestFeature, bestBin := -1, int32(-1)
	for j := 0; j < d; j += 2 {
		gains, cuts := [2]float64{}, [2]int32{-1, -1}
		if j+1 < d {
			gains[0], cuts[0], gains[1], cuts[1] = s.scanPair(j, bins, idx, tgt, sum)
		} else {
			gains[0], cuts[0] = s.scanOne(j, bins, idx, tgt, sum)
		}
		for q, cut := range cuts {
			if cut >= 0 && gains[q] > bestGain {
				bestGain, bestFeature, bestBin = gains[q], j+q, cut
			}
		}
	}
	cost.Tree += float64(d) * (float64(m) + float64(bins))

	if bestFeature < 0 {
		h.applyLeaf(logits, idx, class, node.value)
		return h.pushHist(node)
	}
	// Stable partition of (idx, tgt) together: the children inherit
	// their gradients already in node order (no per-node regather), and
	// each child's sum accumulates in its partitioned order — exactly
	// the order the child's own gather would have used.
	bcol := s.binned[bestFeature*s.n : (bestFeature+1)*s.n]
	nl, nr := int32(0), 0
	var leftSum, rightSum float64
	for t, i := range idx {
		v := tgt[t]
		if int32(bcol[i]) <= bestBin {
			idx[nl] = i
			tgt[nl] = v
			leftSum += v
			nl++
		} else {
			s.spill[nr] = i
			s.spillT[nr] = v
			rightSum += v
			nr++
		}
	}
	copy(idx[nl:], s.spill[:nr])
	copy(tgt[nl:], s.spillT[:nr])
	cost.Tree += float64(m)
	node.feature = int32(bestFeature)
	node.bin = bestBin
	self := h.pushHist(node)
	left := h.buildTree(s, logits, class, lo, lo+nl, depth+1, leftSum, cost)
	right := h.buildTree(s, logits, class, lo+nl, hi, depth+1, rightSum, cost)
	h.nodes[self].left = left
	h.nodes[self].right = right
	return self
}

// scanOne is the single-feature histogram pass: fused gradient and
// hessian-weight accumulation, 8-wide unrolled, uint8 bins indexing the
// fixed arrays without bounds checks and full-capacity sub-slices
// lifting the checks off the unrolled loads. Per-bin addition order
// stays ascending node order, exactly as the rolled loop.
//
//greenlint:hotpath split-search scan; all histogram state lives in preallocated scratch
func (s *histScratch) scanOne(j, bins int, idx []int32, tgt []float64, sum float64) (float64, int32) {
	m := len(idx)
	n := s.n
	hs, hc := &s.histSum, &s.histCnt
	for b := 0; b < bins; b++ {
		hs[b] = 0
		hc[b] = 0
	}
	bcol := s.binned[j*n : (j+1)*n : (j+1)*n]
	t := 0
	for ; t+8 <= m; t += 8 {
		ib := idx[t : t+8 : t+8]
		tb := tgt[t : t+8 : t+8]
		b0, b1, b2, b3 := bcol[ib[0]], bcol[ib[1]], bcol[ib[2]], bcol[ib[3]]
		b4, b5, b6, b7 := bcol[ib[4]], bcol[ib[5]], bcol[ib[6]], bcol[ib[7]]
		hs[b0] += tb[0]
		hc[b0]++
		hs[b1] += tb[1]
		hc[b1]++
		hs[b2] += tb[2]
		hc[b2]++
		hs[b3] += tb[3]
		hc[b3]++
		hs[b4] += tb[4]
		hc[b4]++
		hs[b5] += tb[5]
		hc[b5]++
		hs[b6] += tb[6]
		hc[b6]++
		hs[b7] += tb[7]
		hc[b7]++
	}
	for ; t < m; t++ {
		b := bcol[idx[t]]
		hs[b] += tgt[t]
		hc[b]++
	}
	return histGainScan(hs, hc, bins, sum, m)
}

// scanPair interleaves two features through one pass over the node: the
// per-row index and gradient loads are shared, and the two histograms
// give the FP adder independent dependency chains (one feature's
// per-bin += chain serializes on add latency; two features double the
// ILP). Each feature's per-bin addition order is still ascending node
// order — bit-identical to its own scanOne.
//
//greenlint:hotpath split-search scan; all histogram state lives in preallocated scratch
func (s *histScratch) scanPair(j0, bins int, idx []int32, tgt []float64, sum float64) (gain0 float64, bin0 int32, gain1 float64, bin1 int32) {
	j1 := j0 + 1
	m := len(idx)
	n := s.n
	hs0, hc0 := &s.histSum, &s.histCnt
	hs1, hc1 := &s.histSum2, &s.histCnt2
	for b := 0; b < bins; b++ {
		hs0[b] = 0
		hc0[b] = 0
		hs1[b] = 0
		hc1[b] = 0
	}
	b0col := s.binned[j0*n : (j0+1)*n : (j0+1)*n]
	b1col := s.binned[j1*n : (j1+1)*n : (j1+1)*n]
	t := 0
	for ; t+4 <= m; t += 4 {
		ib := idx[t : t+4 : t+4]
		tb := tgt[t : t+4 : t+4]
		i0, i1, i2, i3 := ib[0], ib[1], ib[2], ib[3]
		a0, a1, a2, a3 := b0col[i0], b0col[i1], b0col[i2], b0col[i3]
		c0, c1, c2, c3 := b1col[i0], b1col[i1], b1col[i2], b1col[i3]
		hs0[a0] += tb[0]
		hc0[a0]++
		hs1[c0] += tb[0]
		hc1[c0]++
		hs0[a1] += tb[1]
		hc0[a1]++
		hs1[c1] += tb[1]
		hc1[c1]++
		hs0[a2] += tb[2]
		hc0[a2]++
		hs1[c2] += tb[2]
		hc1[c2]++
		hs0[a3] += tb[3]
		hc0[a3]++
		hs1[c3] += tb[3]
		hc1[c3]++
	}
	for ; t < m; t++ {
		i := idx[t]
		v := tgt[t]
		a, c := b0col[i], b1col[i]
		hs0[a] += v
		hc0[a]++
		hs1[c] += v
		hc1[c]++
	}
	gain0, bin0 = histGainScan(hs0, hc0, bins, sum, m)
	gain1, bin1 = histGainScan(hs1, hc1, bins, sum, m)
	return gain0, bin0, gain1, bin1
}

// histGainScan finds the best variance-reduction boundary of one
// feature's finished histograms: same 1e-9 sentinel and strict->
// tie-break as the historical global scan.
func histGainScan(hs *[256]float64, hc *[256]int32, bins int, sum float64, m int) (float64, int32) {
	bestGain := 1e-9
	bestBin := int32(-1)
	var leftSum, leftCnt float64
	totalCnt := float64(m)
	for b := 0; b < bins-1; b++ {
		leftSum += hs[b]
		leftCnt += float64(hc[b])
		rightCnt := totalCnt - leftCnt
		if leftCnt < 2 || rightCnt < 2 {
			continue
		}
		rightSum := sum - leftSum
		gain := leftSum*leftSum/leftCnt + rightSum*rightSum/rightCnt - sum*sum/totalCnt
		if gain > bestGain {
			bestGain, bestBin = gain, int32(b)
		}
	}
	return bestGain, bestBin
}

// applyLeaf adds the leaf's shrunk value to the owned rows' class
// logits. The historical kernel re-walked every training row through
// the finished tree; a row lands in exactly one leaf, so applying at
// leaf creation performs the same single addition per row.
//
//greenlint:hotpath per-row logit update at every leaf of every tree
func (h *HistBoosting) applyLeaf(logits []float64, idx []int32, class int, value float64) {
	lr := h.Params.LearningRate
	k := h.classes
	for _, i := range idx {
		logits[int(i)*k+class] += lr * value
	}
}

func (h *HistBoosting) pushHist(n histNode) int32 {
	h.nodes = append(h.nodes, n)
	return int32(len(h.nodes) - 1)
}

// walkRow walks a binned feature row to its leaf value.
//
//greenlint:hotpath per-row per-tree inference walk
func (h *HistBoosting) walkRow(root int32, row []uint8) float64 {
	nd := &h.nodes[root]
	for nd.feature >= 0 {
		if int32(row[nd.feature]) <= nd.bin {
			nd = &h.nodes[nd.left]
		} else {
			nd = &h.nodes[nd.right]
		}
	}
	return nd.value
}

// PredictProba implements Classifier: each row bins its features and
// walks every tree.
func (h *HistBoosting) PredictProba(x tabular.View) ([][]float64, Cost) {
	n := x.Rows()
	if len(h.roots) == 0 {
		return uniformProba(n, max(h.classes, 2)), Cost{}
	}
	d := len(h.thresholds)
	k := h.classes
	out := make([][]float64, n) //greenlint:allow rowmajor proba output rows, class-wide not feature-wide
	width := x.Features()
	row := make([]uint8, d)
	var visits float64
	for i := range out {
		for j := 0; j < d; j++ {
			v := 0.0
			if j < width {
				v = x.At(i, j)
			}
			row[j] = binIndex(h.thresholds[j], v)
		}
		logits := make([]float64, k)
		for ri, root := range h.roots {
			logits[ri%k] += h.Params.LearningRate * h.walkRow(root, row)
			visits += float64(h.Params.MaxDepth)
		}
		softmaxInPlace(logits)
		out[i] = logits
	}
	return out, Cost{Tree: 2 * visits, Generic: float64(n*d) * 4}
}

// Clone implements Classifier.
func (h *HistBoosting) Clone() Classifier { return NewHistBoosting(h.Params) }

// Name implements Classifier.
func (h *HistBoosting) Name() string {
	p := h.Params.normalized()
	return fmt.Sprintf("histgbt(rounds=%d,depth=%d,bins=%d)", p.Rounds, p.MaxDepth, p.Bins)
}

// ParallelFrac implements Classifier.
func (h *HistBoosting) ParallelFrac() float64 { return 0.5 }
