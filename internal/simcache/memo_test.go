package simcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"iophases/internal/obs"
)

// value returns a computation that yields v and asks for it to be kept.
func value(v int) func() (int, bool) { return func() (int, bool) { return v, true } }

// mustOutcome runs Do for key with value(v) and fails unless it reports
// want.
func mustOutcome(t *testing.T, m *Memo[int], key string, v int, want Outcome) {
	t.Helper()
	got, out, err := m.Do(context.Background(), key, value(v))
	if err != nil || out != want || got != v {
		t.Fatalf("Do(%q) = %d, outcome %d, err %v; want %d, outcome %d", key, got, out, err, v, want)
	}
}

// blocked starts a computation of key on its own goroutine and returns
// once it runs. The computation returns v, asking to keep it, after
// release is closed; done closes when its Do returns.
func blocked(m *Memo[int], key string, v int, keep bool) (release, done chan struct{}) {
	started := make(chan struct{})
	release, done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		m.Do(context.Background(), key, func() (int, bool) {
			close(started)
			<-release
			return v, keep
		})
	}()
	<-started
	return release, done
}

// waitFor polls c until it reads n.
func waitFor(c *obs.Counter, n int64) {
	for c.Value() != n {
		time.Sleep(time.Millisecond)
	}
}

// The cap drops the coldest kept value: after overfilling a 3-value memo,
// the first (never re-touched) key recomputes while the newest is stored.
func TestLRUEvictsColdest(t *testing.T) {
	var evictions obs.Counter
	m := NewMemo[int](3, nil, &evictions, nil)
	for i := 0; i < 4; i++ {
		mustOutcome(t, m, fmt.Sprint(i), i, Computed)
	}
	if got := m.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := evictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	mustOutcome(t, m, "0", 0, Computed) // evicted: recomputed
	mustOutcome(t, m, "3", 3, Stored)   // recent: still kept
}

// A stored hit refreshes recency: touching the oldest value makes the
// other one the eviction victim.
func TestLRUTouchOnHit(t *testing.T) {
	m := NewMemo[int](2, nil, nil, nil)
	mustOutcome(t, m, "0", 0, Computed)
	mustOutcome(t, m, "1", 1, Computed)
	mustOutcome(t, m, "0", 0, Stored)   // touch: 0 becomes most recent
	mustOutcome(t, m, "2", 2, Computed) // evicts 1, not 0
	mustOutcome(t, m, "0", 0, Stored)
	mustOutcome(t, m, "1", 1, Computed)
}

// A running computation is never an eviction victim: dropping it would
// orphan its waiters and run it twice.
func TestLRUNeverEvictsInFlight(t *testing.T) {
	m := NewMemo[int](1, nil, nil, nil)
	release, done := blocked(m, "running", 7, true)
	for i := 0; i < 3; i++ {
		mustOutcome(t, m, fmt.Sprint(i), i, Computed) // each overflows the cap
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d, want the running cell and one kept value", got)
	}
	close(release)
	<-done
	mustOutcome(t, m, "running", 7, Stored)
}

// Callers that arrive while a computation runs are counted as joins
// before they block, and all of them get its value, whether or not it is
// kept. Only a kept value is stored for a later caller.
func TestMemoJoinersShareValue(t *testing.T) {
	for _, keep := range []bool{true, false} {
		t.Run(fmt.Sprintf("keep=%v", keep), func(t *testing.T) {
			var joins obs.Counter
			m := NewMemo[int](8, &joins, nil, nil)
			release, done := blocked(m, "k", 7, keep)
			const n = 8
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, out, err := m.Do(context.Background(), "k", func() (int, bool) {
						t.Error("a joiner ran the computation")
						return 0, true
					})
					if v != 7 || out != Joined || err != nil {
						t.Errorf("joiner got %d, outcome %d, err %v", v, out, err)
					}
				}()
			}
			waitFor(&joins, n) // every joiner counted while the leader still runs
			close(release)
			wg.Wait()
			<-done
			if keep {
				mustOutcome(t, m, "k", 7, Stored)
			} else {
				if got := m.Len(); got != 0 {
					t.Fatalf("Len = %d after an unkept value", got)
				}
				mustOutcome(t, m, "k", 8, Computed)
			}
		})
	}
}

// A waiter whose context ends gets ctx.Err() and leaves the computation
// running for everyone else.
func TestMemoWaiterHonoursContext(t *testing.T) {
	var joins obs.Counter
	m := NewMemo[int](8, &joins, nil, nil)
	release, done := blocked(m, "k", 7, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := m.Do(ctx, "k", value(0))
	if out != Joined || !errors.Is(err, context.Canceled) || joins.Value() != 1 {
		t.Fatalf("outcome %d, err %v, joins %d", out, err, joins.Value())
	}
	close(release)
	<-done
	mustOutcome(t, m, "k", 7, Stored)
}

// A computation that finishes after Reset keeps nothing and never removes
// the newer cell for its key, running or kept.
func TestMemoResetKeepsNewerCell(t *testing.T) {
	var joins obs.Counter
	m := NewMemo[int](8, &joins, nil, nil)
	releaseOld, doneOld := blocked(m, "k", 1, false)
	m.Reset()
	releaseNew, doneNew := blocked(m, "k", 2, true)
	close(releaseOld)
	<-doneOld
	if got := m.Len(); got != 1 {
		t.Fatalf("Len = %d: the old computation removed the running newer cell", got)
	}
	close(releaseNew)
	<-doneNew
	mustOutcome(t, m, "k", 2, Stored)

	releaseOld, doneOld = blocked(m, "j", 1, true)
	m.Reset()
	mustOutcome(t, m, "j", 3, Computed)
	close(releaseOld)
	<-doneOld
	mustOutcome(t, m, "j", 3, Stored)
	if got := joins.Value(); got != 0 {
		t.Fatalf("joins = %d: a caller after Reset joined the stale computation", got)
	}
}

// A computation that panics keeps nothing, and a caller waiting on it
// runs the computation itself.
func TestMemoPanicStartsOver(t *testing.T) {
	var joins obs.Counter
	m := NewMemo[int](8, &joins, nil, nil)
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		m.Do(context.Background(), "k", func() (int, bool) {
			close(started)
			<-release
			panic("poisoned")
		})
	}()
	<-started
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		if v, out, err := m.Do(context.Background(), "k", value(5)); v != 5 || out != Computed || err != nil {
			t.Errorf("waiter got %d, outcome %d, err %v", v, out, err)
		}
	}()
	waitFor(&joins, 1)
	close(release)
	<-done
	<-joined
	mustOutcome(t, m, "k", 5, Stored)
}
