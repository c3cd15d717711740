// Package vclock provides a deterministic virtual clock for replaying
// compute-bound workloads without consuming wall-clock time.
//
// The paper's experiments run AutoML systems under wall-clock search budgets
// of 10 seconds to 5 minutes on a 28-core Xeon; the full sweep took 28 days.
// This reproduction replaces wall-clock with a virtual clock: every unit of
// work (model training, prediction, preprocessing) reports its cost in
// abstract floating-point operations, a hardware model converts that cost to
// seconds, and the clock advances accordingly. AutoML systems schedule
// against the virtual clock exactly as they would against time.Now, so
// budget-fidelity behaviour (paper Table 7) is emergent, not scripted.
package vclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a virtual clock. The zero value is a clock at time zero.
//
// Clock is not safe for concurrent use; each simulated run owns one clock.
// Simulated parallelism is expressed through AdvanceParallel, which advances
// the clock by the critical-path duration of a batch of parallel tasks.
// The single concurrency exception is Probe, the liveness hook: it reads
// an atomically mirrored position, so a watchdog on another goroutine can
// observe whether the owning run is still making virtual progress without
// racing the owner.
type Clock struct {
	now time.Duration
	// pos mirrors now for Probe. Advance is the only writer; keeping the
	// owner's fast path (Now) on the plain field costs probes nothing.
	pos atomic.Int64
}

// New returns a clock starting at time zero.
func New() *Clock { return &Clock{} }

// Now reports the current virtual time since the clock's origin.
func (c *Clock) Now() time.Duration { return c.now }

// Probe reports the clock's position like Now, but is safe to call from
// a goroutine that does not own the clock. It exists for liveness
// watchdogs: a run whose Probe value stops changing has stopped making
// virtual progress, whatever its wall-clock behaviour.
func (c *Clock) Probe() time.Duration { return time.Duration(c.pos.Load()) }

// Advance moves the clock forward by d. Negative durations are ignored:
// virtual time never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
		c.pos.Store(int64(c.now))
	}
}

// AdvanceParallel advances the clock as if the given task durations executed
// concurrently on `workers` workers using longest-processing-time-first
// scheduling, and returns the makespan the clock advanced by. With one
// worker it degenerates to the sum of all durations.
func (c *Clock) AdvanceParallel(durations []time.Duration, workers int) time.Duration {
	m := Makespan(durations, workers)
	c.Advance(m)
	return m
}

// Makespan estimates the completion time of the given tasks on `workers`
// parallel workers under greedy longest-first scheduling. It is the
// scheduling model used for embarrassingly parallel AutoML workloads such
// as bagging.
func Makespan(durations []time.Duration, workers int) time.Duration {
	if workers <= 1 {
		var sum time.Duration
		for _, d := range durations {
			if d > 0 {
				sum += d
			}
		}
		return sum
	}
	// Greedy assignment to least-loaded worker, processing tasks in the
	// given order (systems submit tasks in priority order already, so a
	// full sort is unnecessary and would hide submission-order effects).
	loads := make([]time.Duration, workers)
	for _, d := range durations {
		if d <= 0 {
			continue
		}
		min := 0
		for i := 1; i < workers; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += d
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// StallCounter is the liveness rule shared by every watchdog in the
// harness: a position observed unchanged across Threshold consecutive
// probes means the observed party has stopped making progress. The
// in-process cell watchdog feeds it virtual-clock probes; the shard
// coordinator feeds it counts of stored cells — in both cases the probe
// cadence is operator-facing real time, but the stall verdict depends
// only on whether the monotone position advanced, never on how fast.
type StallCounter struct {
	threshold int
	last      int64
	idle      int
	primed    bool
}

// NewStallCounter returns a counter that reports a stall after
// threshold consecutive probes without progress. A threshold below one
// never reports a stall (a disabled watchdog).
func NewStallCounter(threshold int) *StallCounter {
	return &StallCounter{threshold: threshold}
}

// Observe records one probe of the monitored position and reports
// whether the stall threshold has been reached. The first observation
// primes the counter; any change of position resets it.
func (s *StallCounter) Observe(pos int64) bool {
	if !s.primed || pos != s.last {
		s.last, s.idle, s.primed = pos, 0, true
		return false
	}
	s.idle++
	return s.threshold > 0 && s.idle >= s.threshold
}

// Idle reports how many consecutive probes have seen no progress.
func (s *StallCounter) Idle() int { return s.idle }

// Budget couples a clock with a deadline. AutoML systems consult Remaining
// and Exceeded to implement their individual budget-fidelity policies.
type Budget struct {
	clock    *Clock
	start    time.Duration
	duration time.Duration
}

// NewBudget starts a budget of length d on clock c at the clock's current
// time.
func NewBudget(c *Clock, d time.Duration) *Budget {
	return &Budget{clock: c, start: c.Now(), duration: d}
}

// Clock returns the underlying clock.
func (b *Budget) Clock() *Clock { return b.clock }

// Duration reports the configured budget length.
func (b *Budget) Duration() time.Duration { return b.duration }

// Elapsed reports how much virtual time has passed since the budget started.
func (b *Budget) Elapsed() time.Duration { return b.clock.Now() - b.start }

// Remaining reports the virtual time left; it can be negative once the
// budget has been exceeded.
func (b *Budget) Remaining() time.Duration { return b.duration - b.Elapsed() }

// Exceeded reports whether the budget has been consumed.
func (b *Budget) Exceeded() bool { return b.Remaining() <= 0 }

// String implements fmt.Stringer.
func (b *Budget) String() string {
	return fmt.Sprintf("budget %s (elapsed %s)", b.duration, b.Elapsed())
}
