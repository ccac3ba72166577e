package sweep

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64, 2000} {
		got := MapN(workers, items, func(i, v int) string {
			return fmt.Sprintf("%d:%d", i, v)
		})
		for i, s := range got {
			if want := fmt.Sprintf("%d:%d", i, i); s != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

func TestMapParallelEqualsSerial(t *testing.T) {
	items := []int{5, 3, 9, 1, 7, 2, 8}
	square := func(i, v int) int { return v * v }
	serial := MapN(1, items, square)
	parallel := MapN(4, items, square)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel %v != serial %v", parallel, serial)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got := Map(nil, func(i int, v int) int { return v }); len(got) != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := Map([]int{42}, func(i, v int) int { return v + 1 }); got[0] != 43 {
		t.Fatalf("single: %v", got)
	}
}

func TestMapCallsEachOnce(t *testing.T) {
	counts := make([]atomic.Int64, 100)
	items := make([]int, len(counts))
	Map(items, func(i int, _ int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("item %d called %d times", i, n)
		}
	}
}

func TestSetConcurrency(t *testing.T) {
	defer SetConcurrency(0)
	if got := SetConcurrency(3); got != 3 {
		t.Fatalf("SetConcurrency(3) = %d", got)
	}
	if got := Concurrency(); got != 3 {
		t.Fatalf("Concurrency() = %d", got)
	}
	if got := SetConcurrency(0); got < 1 {
		t.Fatalf("default concurrency %d", got)
	}
}

// TestMapNRepanicsLowestIndex: a panic in a worker comes out of MapN on
// the caller, after the workers stop, with the value of the lowest index
// whose fn panicked, as a serial loop would raise it. Every fifth item
// from k on panics, so with two workers several do.
func TestMapNRepanicsLowestIndex(t *testing.T) {
	const k = 5
	items := make([]int, 64)
	got := func() (r any) {
		defer func() { r = recover() }()
		MapN(2, items, func(i, _ int) int {
			if i >= k && i%k == 0 {
				panic(fmt.Sprintf("item %d", i))
			}
			return i
		})
		return nil
	}()
	if want := fmt.Sprintf("item %d", k); got != want {
		t.Fatalf("recovered %v, want %q", got, want)
	}
}
