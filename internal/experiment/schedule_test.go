package experiment

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The scheduler's contract under failure: siblings of a failing unit
// still complete and commit, panics become errors with stacks, transient
// failures retry, deadlines abandon the unit without letting it commit,
// and a stop request drains the queue instead of finishing it.

func TestRunUnitsCollectsAllErrors(t *testing.T) {
	const n = 20
	var committed [n]bool
	err := runUnitsCtl(n, 4, unitOpts{}, func(i int) (func(), error) {
		if i%5 == 0 {
			return nil, fmt.Errorf("unit %d failed", i)
		}
		return func() { committed[i] = true }, nil
	})
	if err == nil {
		t.Fatal("want joined error, got nil")
	}
	for i := 0; i < n; i += 5 {
		if !strings.Contains(err.Error(), fmt.Sprintf("unit %d failed", i)) {
			t.Errorf("error missing unit %d: %v", i, err)
		}
	}
	for i := range committed {
		if want := i%5 != 0; committed[i] != want {
			t.Errorf("unit %d committed=%v, want %v", i, committed[i], want)
		}
	}
}

func TestRunUnitsPanicIsolation(t *testing.T) {
	var ok atomic.Int32
	err := runUnitsCtl(8, 4, unitOpts{}, func(i int) (func(), error) {
		if i == 3 {
			panic("boom in unit 3")
		}
		return func() { ok.Add(1) }, nil
	})
	if err == nil {
		t.Fatal("want error from panicking unit")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "boom in unit 3") {
		t.Errorf("panic not surfaced: %v", err)
	}
	// The stack trace names this test function.
	if !strings.Contains(err.Error(), "schedule_test") {
		t.Errorf("no stack trace in error: %v", err)
	}
	if got := ok.Load(); got != 7 {
		t.Errorf("%d siblings committed, want 7", got)
	}
}

func TestRunUnitsTransientRetry(t *testing.T) {
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 3, Backoff: time.Millisecond}, func(i int) (func(), error) {
		if attempts.Add(1) < 3 {
			return nil, fmt.Errorf("flaky: %w", ErrTransient)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatalf("unit should succeed on third attempt: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("got %d attempts, want 3", got)
	}
}

func TestRunUnitsRetriesExhausted(t *testing.T) {
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 2, Backoff: time.Millisecond}, func(i int) (func(), error) {
		attempts.Add(1)
		return nil, fmt.Errorf("always down: %w", ErrTransient)
	})
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("want ErrTransient after exhausting retries, got %v", err)
	}
	if got := attempts.Load(); got != 3 { // initial + 2 retries
		t.Errorf("got %d attempts, want 3", got)
	}
}

func TestRunUnitsNonRetryableFailsFast(t *testing.T) {
	var attempts atomic.Int32
	err := runUnitsCtl(1, 1, unitOpts{Retries: 5, Backoff: time.Millisecond}, func(i int) (func(), error) {
		attempts.Add(1)
		return nil, errors.New("permanent")
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("non-retryable error ran %d attempts, want 1", got)
	}
}

func TestRunUnitsTimeout(t *testing.T) {
	var committed atomic.Bool
	release := make(chan struct{})
	defer close(release)
	err := runUnitsCtl(1, 1, unitOpts{Timeout: 20 * time.Millisecond}, func(i int) (func(), error) {
		<-release // outlives the deadline
		return func() { committed.Store(true) }, nil
	})
	if !errors.Is(err, ErrUnitTimeout) {
		t.Fatalf("want ErrUnitTimeout, got %v", err)
	}
	if committed.Load() {
		t.Error("abandoned unit's commit ran")
	}
}

func TestRunUnitsStopRequest(t *testing.T) {
	defer ResetStop()
	const n = 64
	var done atomic.Int32
	err := runUnitsCtl(n, 2, unitOpts{}, func(i int) (func(), error) {
		if done.Add(1) == 4 {
			RequestStop()
		}
		time.Sleep(time.Millisecond)
		return nil, nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if got := done.Load(); got >= n {
		t.Errorf("all %d units ran despite stop request", got)
	}
	if !Stopped() {
		t.Error("Stopped() false after RequestStop")
	}
	ResetStop()
	if Stopped() {
		t.Error("Stopped() true after ResetStop")
	}
}

func TestRunUnitsErrorCapElides(t *testing.T) {
	const n = maxJoinedErrors + 10
	err := runUnitsCtl(n, 4, unitOpts{}, func(i int) (func(), error) {
		return nil, fmt.Errorf("unit %d failed", i)
	})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "further unit failures elided") {
		t.Errorf("cap note missing from: %v", err)
	}
}

// The claim order with Group set: a worker stays on its trace group,
// idle workers open unopened groups before sharing one, and once every
// group is open they join the group with the most units left.

func TestGroupClaimerOrder(t *testing.T) {
	// Groups by first appearance: g0 = {0, 3, 6}, g1 = {1, 4}, g2 = {2, 5}.
	c := newGroupClaimer(7, func(i int) int { return 10 * (i % 3) })
	steps := []struct{ cur, unit, group int }{
		{-1, 0, 0}, // opens g0
		{-1, 1, 1}, // opens g1 rather than joining g0
		{0, 3, 0},  // continues g0
		{1, 4, 1},  // continues g1
		{1, 2, 2},  // g1 is exhausted: opens g2
		{0, 6, 0},  // continues g0
		{0, 5, 2},  // all open, g0 exhausted: joins g2, the only group left
	}
	for n, s := range steps {
		unit, group, ok := c.claim(s.cur)
		if !ok || unit != s.unit || group != s.group {
			t.Fatalf("claim %d from group %d = unit %d group %d ok=%v, want unit %d group %d",
				n, s.cur, unit, group, ok, s.unit, s.group)
		}
	}
	if _, _, ok := c.claim(2); ok {
		t.Fatal("claimed past the last unit")
	}
	if got := c.claimedCount(); got != 7 {
		t.Fatalf("claimedCount = %d, want 7", got)
	}
}

func TestGroupClaimerJoinsLargestGroup(t *testing.T) {
	// g0 = {0..3}, g1 = {4..9}: with both open, an idle worker joins the
	// group with more units left, and a tie goes to the earlier group.
	c := newGroupClaimer(10, func(i int) int {
		if i < 4 {
			return 0
		}
		return 1
	})
	for _, want := range []struct{ cur, unit, group int }{
		{-1, 0, 0}, // opens g0 (3 left)
		{-1, 4, 1}, // opens g1 (5 left)
		{-1, 5, 1}, // 3 vs 5 left: g1 (4 left)
		{-1, 6, 1}, // 3 vs 4 left: g1 (3 left)
		{-1, 1, 0}, // 3 vs 3 left: the tie goes to g0 (2 left)
		{-1, 7, 1}, // 2 vs 3 left: g1 (2 left)
		{-1, 2, 0}, // 2 vs 2 left: g0 again
	} {
		unit, group, ok := c.claim(want.cur)
		if !ok || unit != want.unit || group != want.group {
			t.Fatalf("claim = unit %d group %d ok=%v, want unit %d group %d",
				unit, group, ok, want.unit, want.group)
		}
	}
}

func TestRunUnitsNilGroupKeepsIndexOrder(t *testing.T) {
	c := newGroupClaimer(9, nil)
	for i := 0; i < 9; i++ {
		// Whatever group the caller last worked on, claims go in index
		// order.
		unit, _, ok := c.claim(i%3 - 1)
		if !ok || unit != i {
			t.Fatalf("claim %d = %d ok=%v, want %d", i, unit, ok, i)
		}
	}
	var order []int
	if err := runUnitsCtl(20, 1, unitOpts{}, func(i int) (func(), error) {
		return func() { order = append(order, i) }, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, u := range order {
		if u != i {
			t.Fatalf("unit order %v, want index order", order)
		}
	}
}

func TestRunUnitsWorkersOpenDistinctGroups(t *testing.T) {
	const workers, perGroup, groups = 3, 4, 6
	started := make(chan int, perGroup*groups)
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- runUnitsCtl(perGroup*groups, workers, unitOpts{Group: func(i int) int { return i / perGroup }},
			func(i int) (func(), error) {
				started <- i
				<-release
				return nil, nil
			})
	}()
	seen := map[int]bool{}
	for w := 0; w < workers; w++ {
		seen[<-started/perGroup] = true
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(seen) != workers {
		t.Fatalf("%d workers blocked in groups %v, want %d distinct groups", workers, seen, workers)
	}
	for g := 0; g < workers; g++ {
		if !seen[g] {
			t.Fatalf("groups %v in flight, want the first %d opened in order", seen, workers)
		}
	}
}

func TestRunUnitsGroupedRunExactlyOnce(t *testing.T) {
	const n = 30
	var attempts, commits [n]atomic.Int32
	hang := make(chan struct{})
	defer close(hang)
	o := unitOpts{
		Timeout: 50 * time.Millisecond,
		Retries: 2,
		Backoff: time.Millisecond,
		Group:   func(i int) int { return i % 4 },
	}
	err := runUnitsCtl(n, 3, o, func(i int) (func(), error) {
		a := attempts[i].Add(1)
		switch i % 5 {
		case 0:
			panic(fmt.Sprintf("unit %d", i))
		case 1:
			if a == 1 {
				return nil, fmt.Errorf("flaky: %w", ErrTransient)
			}
		case 2:
			if a == 1 {
				<-hang // abandoned past the deadline, then retried
			}
		}
		return func() { commits[i].Add(1) }, nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want the panics reported, got %v", err)
	}
	for i := 0; i < n; i++ {
		wantAttempts, wantCommits := int32(1), int32(1)
		switch i % 5 {
		case 0:
			wantCommits = 0
		case 1, 2:
			wantAttempts = 2
		}
		if got := attempts[i].Load(); got != wantAttempts {
			t.Errorf("unit %d ran %d attempts, want %d", i, got, wantAttempts)
		}
		if got := commits[i].Load(); got != wantCommits {
			t.Errorf("unit %d committed %d times, want %d", i, got, wantCommits)
		}
	}
}

func TestRunUnitsGroupedStopDrainsQueue(t *testing.T) {
	tel, _ := withTelemetry(t)
	defer ResetStop()
	const n = 40
	var ran atomic.Int32
	err := runUnitsCtl(n, 2, unitOpts{Group: func(i int) int { return i / 5 }}, func(i int) (func(), error) {
		if ran.Add(1) == 3 {
			RequestStop()
		}
		time.Sleep(time.Millisecond)
		return nil, nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if got := int(ran.Load()); got >= n {
		t.Fatalf("all %d units ran despite the stop request", got)
	}
	// Every queued unit was either claimed (and ran) or drained.
	if d := tel.queueDepth.Value(); d != 0 {
		t.Fatalf("queue depth %v after the run, want 0 (%d of %d units ran)", d, ran.Load(), n)
	}
	if f := tel.inFlight.Value(); f != 0 {
		t.Fatalf("in-flight %v after the run, want 0", f)
	}
}
