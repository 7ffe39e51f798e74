package experiment

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bcache/internal/obs/tracespan"
	"bcache/internal/workload"
)

// The scheduler is the suite's crash boundary. A multi-hour campaign must
// survive one misbehaving work unit — a panic in a cache model, a
// wedged simulation, a transient failure — without losing the hours of
// sibling results already computed. Three mechanisms provide that:
//
//   - Panic isolation: each unit runs under recover; a panic becomes an
//     error carrying the unit's stack, and every other unit proceeds.
//   - Deadlines and retry: a unit exceeding its deadline is abandoned
//     (the orphaned goroutine can never write shared state, because
//     results are committed only via a closure the worker itself invokes
//     on receipt) and retried with exponential backoff, as are units
//     failing with ErrTransient.
//   - No cancel-on-first-error: workers keep claiming units after a
//     failure, so one bad (benchmark, spec) pair costs one cell, not the
//     whole table. All errors come back via errors.Join alongside
//     whatever results completed.
//
// RequestStop (wired to SIGINT in the CLIs) is the one thing that stops
// claiming early: in-flight units finish, the error includes
// ErrInterrupted, and completed units remain available for checkpointing.

var (
	// ErrTransient marks a unit failure worth retrying (wrap it:
	// fmt.Errorf("...: %w", ErrTransient)).
	ErrTransient = errors.New("transient failure")
	// ErrInterrupted is joined into the scheduler's error when a stop
	// request (RequestStop) cut the run short.
	ErrInterrupted = errors.New("experiment: interrupted")
	// ErrUnitTimeout marks a unit abandoned past its deadline.
	ErrUnitTimeout = errors.New("experiment: unit deadline exceeded")
)

// stopRequested is the process-wide graceful-stop latch.
var stopRequested atomic.Bool

// RequestStop asks all schedulers to stop claiming new work units.
// In-flight units finish and their results are committed; the active
// runs return ErrInterrupted (joined with any other errors).
func RequestStop() { stopRequested.Store(true) }

// ResetStop clears a previous stop request (tests and REPL-style
// drivers; a one-shot CLI exits instead).
func ResetStop() { stopRequested.Store(false) }

// Stopped reports whether a stop has been requested.
func Stopped() bool { return stopRequested.Load() }

// maxJoinedErrors bounds the error list a run returns; past it, failures
// are summarized by count so a systematically broken spec does not
// produce megabytes of joined errors.
const maxJoinedErrors = 16

// unitOpts bounds one scheduled work unit.
type unitOpts struct {
	// Timeout abandons a unit that runs longer (0 = no deadline). The
	// abandoned goroutine is left to finish in the background; its
	// commit closure is never invoked.
	Timeout time.Duration
	// Retries re-runs a unit that timed out or failed with ErrTransient
	// up to this many additional times.
	Retries int
	// Backoff is the first retry delay, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Clock times unit attempts and sleeps retry backoffs (nil = wall
	// clock). Tests inject tracespan.FakeClock to pin exact schedules.
	Clock tracespan.Clock
	// Label names unit i for telemetry spans and the slowest-unit
	// digest. Only called when a telemetry hub is installed, so label
	// formatting costs nothing on unobserved runs.
	Label func(i int) string
	// Group names the trace unit i replays: units with equal values
	// share one trace, and the claimer keeps a worker on its group (see
	// groupClaimer). nil makes every unit its own group, which claims in
	// index order.
	Group func(i int) int
}

func (o unitOpts) backoff() time.Duration {
	if o.Backoff > 0 {
		return o.Backoff
	}
	return 50 * time.Millisecond
}

func (o unitOpts) clock() tracespan.Clock {
	if o.Clock != nil {
		return o.Clock
	}
	return tracespan.Wall
}

func (o unitOpts) label(i int) string {
	if o.Label == nil {
		return ""
	}
	return o.Label(i)
}

// runUnitsCtl executes fn(i) for every i in [0, n) on up to workers
// goroutines claiming units through a groupClaimer. Work units should be
// the finest independent grain available — (profile × spec × seed)
// rather than whole profiles — so a run with fewer benchmarks than cores
// still saturates the machine; o.Group tells the claimer which of them
// share a trace.
//
// fn returns (commit, error). On success the worker invokes commit (if
// non-nil) from its own goroutine — that is the only path results may
// reach shared state through, which is what makes abandoning a
// timed-out unit safe. Unit failures do not cancel siblings; every
// error is collected and returned via errors.Join after all claimable
// units ran.
func runUnitsCtl(n, workers int, o unitOpts, fn func(int) (func(), error)) error {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	tel := CurrentTelemetry()
	tel.runQueued(n)
	claims := newGroupClaimer(n, o.Group)
	var (
		interrupted atomic.Bool
		mu          sync.Mutex
		errs        []error
		dropped     int
		wg          sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			group := -1
			for {
				if stopRequested.Load() {
					interrupted.Store(true)
					return
				}
				i, g, ok := claims.claim(group)
				if !ok {
					return
				}
				group = g
				tel.unitClaimed()
				err := runOneUnit(w, i, o, tel, fn)
				tel.unitReleased()
				if err != nil {
					tel.unitFailed()
					mu.Lock()
					if len(errs) < maxJoinedErrors {
						errs = append(errs, err)
					} else {
						dropped++
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	// A stop request leaves units unclaimed; take them back out of the
	// queue-depth gauge.
	tel.runDrained(n - claims.claimedCount())
	if dropped > 0 {
		errs = append(errs, fmt.Errorf("experiment: %d further unit failures elided", dropped))
	}
	if interrupted.Load() {
		errs = append(errs, ErrInterrupted)
	}
	return errors.Join(errs...)
}

// groupClaimer hands out unit indices so that workers do not share a
// trace while another trace still waits to be built. The experiments
// replay each trace against many configurations; when two workers claim
// units of the same trace at once, one of them sits blocked on the
// other's build. The claim rule:
//
//  1. a worker continues its own group while that group has units left;
//  2. otherwise it opens the next group nobody has opened (groups open
//     in the order of their first unit index);
//  3. once every group is open, it joins the open group with the most
//     unclaimed units (ties go to the earlier group).
//
// Each claim returns one unit, so commits, retries, deadlines and panic
// isolation stay per unit; only the claim order follows the groups.
type groupClaimer struct {
	mu sync.Mutex
	// groups lists each group's unit indices in index order, groups in
	// the order of their first unit; immutable after construction.
	groups [][]int
	next   []int // guarded by mu: per group, how many of its units are claimed
	opened int   // guarded by mu: groups opened so far
	taken  int   // guarded by mu: units claimed so far
}

// newGroupClaimer groups units [0, n) by group(i); nil puts every unit
// in its own group.
func newGroupClaimer(n int, group func(int) int) *groupClaimer {
	c := &groupClaimer{}
	dense := map[int]int{} // group value -> index into c.groups
	for i := 0; i < n; i++ {
		key := i
		if group != nil {
			key = group(i)
		}
		g, ok := dense[key]
		if !ok {
			g = len(c.groups)
			dense[key] = g
			c.groups = append(c.groups, nil)
		}
		c.groups[g] = append(c.groups[g], i)
	}
	c.next = make([]int, len(c.groups))
	return c
}

// claim returns the next unit for a worker whose current group is cur
// (-1 for none) and the group that unit belongs to; ok is false once
// every unit has been claimed.
func (c *groupClaimer) claim(cur int) (unit, group int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	group = cur
	if group < 0 || c.next[group] == len(c.groups[group]) {
		if c.opened < len(c.groups) {
			group = c.opened
			c.opened++
		} else {
			group = -1
			most := 0
			for g := 0; g < c.opened; g++ {
				if left := len(c.groups[g]) - c.next[g]; left > most {
					group, most = g, left
				}
			}
			if group < 0 {
				return 0, 0, false
			}
		}
	}
	unit = c.groups[group][c.next[group]]
	c.next[group]++
	c.taken++
	return unit, group, true
}

// claimedCount reports how many units have been handed out.
func (c *groupClaimer) claimedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.taken
}

// runOneUnit runs unit i to completion on worker w, committing on
// success and retrying timeouts and transient failures with exponential
// backoff through the unit clock. Each attempt emits exactly one
// KindUnit span, and each scheduled retry exactly one KindRetry span.
func runOneUnit(w, i int, o unitOpts, tel *Telemetry, fn func(int) (func(), error)) error {
	clk := o.clock()
	label := ""
	if tel != nil {
		label = o.label(i)
	}
	delay := o.backoff()
	for attempt := 0; ; attempt++ {
		var start time.Time
		if tel != nil {
			start = tel.now()
		}
		commit, err := invokeUnit(i, o.Timeout, fn)
		if tel != nil {
			tel.unitAttempt(w, i, label, attempt, start, tel.now().Sub(start), err)
		}
		if err == nil {
			if commit != nil {
				commit()
			}
			return nil
		}
		retryable := errors.Is(err, ErrTransient) || errors.Is(err, ErrUnitTimeout)
		if !retryable || attempt >= o.Retries || stopRequested.Load() {
			if attempt > 0 {
				return fmt.Errorf("unit %d (after %d retries): %w", i, attempt, err)
			}
			return fmt.Errorf("unit %d: %w", i, err)
		}
		tel.unitRetry(w, i, label, attempt, delay)
		clk.Sleep(delay)
		delay *= 2
	}
}

// invokeUnit calls fn(i) with panic isolation and, when a deadline is
// set, abandons the call past it. An abandoned call keeps running on its
// orphaned goroutine but its commit closure is discarded unseen, so it
// can never race a retry or corrupt shared slots.
func invokeUnit(i int, timeout time.Duration, fn func(int) (func(), error)) (func(), error) {
	if timeout <= 0 {
		return protectUnit(i, fn)
	}
	type outcome struct {
		commit func()
		err    error
	}
	ch := make(chan outcome, 1)
	//bcachelint:allow goroutinelife(deliberately abandoned on the timeout path: the buffered send never blocks and the unit's panic protection already ran; see the hung-unit contract above)
	go func() {
		c, err := protectUnit(i, fn)
		ch <- outcome{c, err}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out.commit, out.err
	case <-t.C:
		return nil, fmt.Errorf("after %v: %w", timeout, ErrUnitTimeout)
	}
}

// errUnitPanic marks an error produced by a recovered unit panic, so
// telemetry can classify it without string matching.
var errUnitPanic = errors.New("panicked")

// protectUnit converts a panic in fn into an error carrying the stack.
func protectUnit(i int, fn func(int) (func(), error)) (commit func(), err error) {
	defer func() {
		if r := recover(); r != nil {
			commit = nil
			err = fmt.Errorf("experiment: unit %d %w: %v\n%s", i, errUnitPanic, r, debug.Stack())
		}
	}()
	return fn(i)
}

// forEachProfile runs fn over profiles with bounded parallelism.
// Experiments whose work does not decompose further use this; the
// miss-rate and timed paths schedule finer units directly. fn both
// computes and stores its result, which is safe because without a
// deadline no call is ever abandoned.
func forEachProfile(profiles []*workload.Profile, workers int, fn func(*workload.Profile) error) error {
	uo := unitOpts{Label: func(i int) string { return profiles[i].Name }}
	return runUnitsCtl(len(profiles), workers, uo, func(i int) (func(), error) {
		if err := fn(profiles[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", profiles[i].Name, err)
		}
		return nil, nil
	})
}
