package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/automl"
	"repro/internal/ml"
	"repro/internal/tabular"
)

// span is one timed call across a layer boundary. Spans live in memory
// for the whole traced run and are written out when it ends.
type span struct {
	name string
	// key identifies a grid cell (system/dataset/budget); id a request
	// or batch. A span carries whichever applies.
	key    string
	id     uint64
	parent int32 // index of the causing span, -1 for a root
	start  time.Duration
	end    time.Duration
}

func (s span) interval() interval { return interval{s.start, s.end} }

// tracer records spans relative to its origin. A nil *tracer is the
// untraced run: every method is a no-op, so workloads run the same code
// either way. The grid's two workers open spans concurrently.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// cur is the span that decorator spans opened now belong to: the
	// grid span while a grid runs, the Submit span while a request is
	// admitted.
	cur atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.cur.Store(-1)
	return t
}

// begin opens a span under the current parent and returns its index.
func (t *tracer) begin(name, key string, id uint64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, key: key, id: id, parent: t.cur.Load(), start: now, end: -1})
	return int32(len(t.spans) - 1)
}

// enter opens a span and makes it the parent of spans opened until
// leave.
func (t *tracer) enter(name, key string, id uint64) int32 {
	if t == nil {
		return -1
	}
	i := t.begin(name, key, id)
	t.cur.Store(i)
	return i
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// leave closes span i and restores its parent as the current span.
func (t *tracer) leave(i int32) {
	if t == nil {
		return
	}
	t.end(i)
	t.mu.Lock()
	parent := t.spans[i].parent
	t.mu.Unlock()
	t.cur.Store(parent)
}

// closed returns the finished spans called name, with their indices.
func (t *tracer) closed(name string) ([]int32, []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var idx []int32
	var out []span
	for i, s := range t.spans {
		if s.name == name && s.end >= 0 {
			idx = append(idx, int32(i))
			out = append(out, s)
		}
	}
	return idx, out
}

// childrenOf maps each span index to the finished spans it caused.
func (t *tracer) childrenOf() map[int32][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int32][]span)
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

// write saves every span as CSV: name,key,id,parent,start_ns,end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,key,id,parent,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", s.name, s.key, s.id, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open wall-time range [lo, hi).
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by the union of ivs: overlapping
// intervals — spans of two grid workers running at once — count once.
func unionLen(ivs []interval) time.Duration {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.hi > iv.lo {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total time.Duration
	for i := 0; i < len(s); {
		lo, hi := s[i].lo, s[i].hi
		for i++; i < len(s) && s[i].lo <= hi; i++ {
			hi = max(hi, s[i].hi)
		}
		total += hi - lo
	}
	return total
}

// selfTime is parent's duration minus the part of it that the union of
// children covers. Children are clipped to the parent first.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		clipped = append(clipped, interval{max(c.lo, parent.lo), min(c.hi, parent.hi)})
	}
	return parent.hi - parent.lo - unionLen(clipped)
}

// busyTime sums span durations without merging overlaps: the work two
// workers did at once counts twice.
func busyTime(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.end - s.start
	}
	return d
}

// tracedSystem times automl.System.Fit and wraps the fitted predictor so
// its predict calls are timed too. Name and MinBudget pass through, so
// the grid fingerprint and cell keys are unchanged.
type tracedSystem struct {
	automl.System
	tr        *tracer
	evaluated *atomic.Int64
}

func (s tracedSystem) Fit(train tabular.View, opts automl.Options) (*automl.Result, error) {
	key := fmt.Sprintf("%s/%s/%v", s.Name(), train.Name(), opts.Budget)
	i := s.tr.begin("automl.fit", key, 0)
	res, err := s.System.Fit(train, opts)
	s.tr.end(i)
	if res != nil {
		s.evaluated.Add(int64(res.Evaluated))
		if res.Predictor != nil {
			res.Predictor = &tracedPredictor{inner: res.Predictor, tr: s.tr, name: "automl.predict", key: key}
		}
	}
	return res, err
}

// predictor is the method set shared by ensemble.Predictor and
// serve.Predictor, so one decorator serves both layers.
type predictor interface {
	PredictProba(x tabular.View) ([][]float64, ml.Cost)
}

// tracedPredictor times each PredictProba call and counts the rows.
type tracedPredictor struct {
	inner predictor
	tr    *tracer
	name  string
	key   string
	calls atomic.Int64
	rows  atomic.Int64
}

func (p *tracedPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	n := p.calls.Add(1)
	p.rows.Add(int64(x.Rows()))
	i := p.tr.begin(p.name, p.key, uint64(n))
	proba, cost := p.inner.PredictProba(x)
	p.tr.end(i)
	return proba, cost
}
