package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verticadr/internal/faults"
)

func TestDegreeResolution(t *testing.T) {
	defer SetDefaultDegree(0)
	SetDefaultDegree(0)
	if d := DefaultDegree(); d < 1 {
		t.Fatalf("default degree %d", d)
	}
	SetDefaultDegree(3)
	if d := DefaultDegree(); d != 3 {
		t.Fatalf("override degree %d, want 3", d)
	}
	if d := NewPool(0).Degree(); d != 3 {
		t.Fatalf("pool default degree %d, want 3", d)
	}
	if d := NewPool(7).Degree(); d != 7 {
		t.Fatalf("pool explicit degree %d, want 7", d)
	}
	var nilPool *Pool
	if d := nilPool.Degree(); d != 1 {
		t.Fatalf("nil pool degree %d, want 1", d)
	}
}

func TestForEachRunsAll(t *testing.T) {
	for _, deg := range []int{1, 2, 4, 9} {
		var hits atomic.Int64
		seen := make([]atomic.Bool, 100)
		err := NewPool(deg).ForEach(100, func(i int) error {
			hits.Add(1)
			if seen[i].Swap(true) {
				return fmt.Errorf("index %d ran twice", i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		if hits.Load() != 100 {
			t.Fatalf("degree %d: %d tasks ran, want 100", deg, hits.Load())
		}
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// Index 3 fails fast, index 60 fails slow: the lowest-index failure that
	// ran must win regardless of completion order.
	err := NewPool(4).ForEach(100, func(i int) error {
		switch i {
		case 3:
			return errA
		case 2:
			time.Sleep(5 * time.Millisecond)
			return errB
		}
		return nil
	})
	if !errors.Is(err, errB) && !errors.Is(err, errA) {
		t.Fatalf("unexpected error %v", err)
	}
	// Index 2 was claimed before 3 (claims are sequential), so if it errored
	// it must shadow index 3's error.
	if !errors.Is(err, errB) {
		t.Fatalf("got %v, want lowest-index error %v", err, errB)
	}
}

// inOrder is the in-order consumption Window exists for: produce runs as a
// task per index, and each result waits for every earlier one to be
// consumed — consume runs under one lock, strictly in index order, by
// whichever task completes the prefix.
func inOrder(p *Pool, n int, produce func(i int) (int, error), consume func(i, v int) error) error {
	var mu sync.Mutex
	done := make([]bool, n)
	vals := make([]int, n)
	next := 0
	return p.Window(n, 2*p.Degree(), func(i int) error {
		v, err := produce(i)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		done[i], vals[i] = true, v
		for ; next < n && done[next]; next++ {
			if err := consume(next, vals[next]); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestOrderedDeliversInOrder(t *testing.T) {
	for _, deg := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 5, 257} {
			var got []int
			err := inOrder(NewPool(deg), n,
				func(i int) (int, error) {
					time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
					return i * i, nil
				},
				func(i, v int) error {
					if v != i*i {
						return fmt.Errorf("index %d delivered %d", i, v)
					}
					got = append(got, i)
					return nil
				})
			if err != nil {
				t.Fatalf("degree %d n %d: %v", deg, n, err)
			}
			if len(got) != n {
				t.Fatalf("degree %d n %d: consumed %d", deg, n, len(got))
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("degree %d: out-of-order delivery %v", deg, got)
				}
			}
		}
	}
}

func TestOrderedFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, deg := range []int{1, 4} {
		var consumed []int
		err := inOrder(NewPool(deg), 50,
			func(i int) (int, error) {
				if i == 7 {
					return 0, boom
				}
				return i, nil
			},
			func(i, v int) error {
				consumed = append(consumed, i)
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("degree %d: err %v, want boom", deg, err)
		}
		// Everything before the failing index must have been delivered, in
		// order, and nothing at or after it.
		if len(consumed) != 7 {
			t.Fatalf("degree %d: consumed %v, want 0..6", deg, consumed)
		}
		for i, v := range consumed {
			if v != i {
				t.Fatalf("degree %d: consumed %v", deg, consumed)
			}
		}
	}
}

func TestOrderedConsumeError(t *testing.T) {
	halt := errors.New("halt")
	err := inOrder(NewPool(4), 100,
		func(i int) (int, error) { return i, nil },
		func(i, v int) error {
			if i == 10 {
				return halt
			}
			return nil
		})
	if !errors.Is(err, halt) {
		t.Fatalf("err %v, want halt", err)
	}
}

func TestReduceDeterministicAcrossDegrees(t *testing.T) {
	// Sum adversarially-scaled floats: any reordering of the fold changes the
	// bits, so equal bits across degrees prove the merge tree is fixed.
	vals := make([]float64, 1000)
	rng := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = rng.NormFloat64() * float64(int(1)<<(i%60))
	}
	run := func(deg int) float64 {
		s, err := Reduce(NewPool(deg), 100,
			func(i int) (float64, error) {
				var part float64
				for _, v := range vals[i*10 : (i+1)*10] {
					part += v
				}
				return part, nil
			},
			func(a, b float64) (float64, error) { return a + b, nil })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := run(1)
	for _, deg := range []int{2, 3, 4, 8} {
		for rep := 0; rep < 3; rep++ {
			if got := run(deg); got != want {
				t.Fatalf("degree %d rep %d: %x != %x", deg, rep, got, want)
			}
		}
	}
}

// TestReduceTreeShape pins the merge tree itself — the thing every
// bit-identical fold (aggregation, IRLS, Lloyd) rests on — against the
// level-by-level construction: pair neighbours, carry an odd last partial up
// a level, repeat.
func TestReduceTreeShape(t *testing.T) {
	for n := 1; n <= 70; n++ {
		level := make([]string, n)
		for i := range level {
			level[i] = strconv.Itoa(i)
		}
		for len(level) > 1 {
			var next []string
			for i := 0; i < len(level); i += 2 {
				if i+1 == len(level) {
					next = append(next, level[i])
				} else {
					next = append(next, "("+level[i]+" "+level[i+1]+")")
				}
			}
			level = next
		}
		merge := func(a, b string) (string, error) { return "(" + a + " " + b + ")", nil }
		for _, deg := range []int{1, 3} {
			got, err := Reduce(NewPool(deg), n, func(i int) (string, error) { return strconv.Itoa(i), nil }, merge)
			if err != nil || got != level[0] {
				t.Fatalf("n=%d degree %d: tree %s (%v), want %s", n, deg, got, err, level[0])
			}
		}
		// The same tree from partials pushed one at a time.
		tree := Tree[string]{Merge: merge}
		for i := 0; i < n; i++ {
			if err := tree.Push(strconv.Itoa(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := tree.Result(); err != nil || got != level[0] {
			t.Fatalf("n=%d pushed: tree %s (%v), want %s", n, got, err, level[0])
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	v, err := Reduce(NewPool(4), 0,
		func(i int) (int, error) { return 1, nil },
		func(a, b int) (int, error) { return a + b, nil })
	if err != nil || v != 0 {
		t.Fatalf("got %d, %v", v, err)
	}
}

func TestTaskFaultInjection(t *testing.T) {
	in := faults.New(1)
	in.MustArm(faults.Rule{Site: SiteTask, Kind: faults.Error, EveryN: 5})
	faults.Install(in)
	defer faults.Install(nil)
	err := NewPool(4).ForEach(20, func(i int) error { return nil })
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err %v, want injected fault", err)
	}
}

// TestWindowBoundsRunAhead: a task starts only once every index more than
// ahead below it has finished, and every index runs exactly once.
func TestWindowBoundsRunAhead(t *testing.T) {
	for _, deg := range []int{1, 2, 4, 8} {
		for _, ahead := range []int{1, 3, 16} {
			var mu sync.Mutex
			finished := make([]bool, 200)
			err := NewPool(deg).Window(len(finished), ahead, func(i int) error {
				mu.Lock()
				for j := 0; j < i-ahead; j++ {
					if !finished[j] {
						mu.Unlock()
						return fmt.Errorf("index %d started before index %d finished", i, j)
					}
				}
				mu.Unlock()
				time.Sleep(time.Duration(rand.Intn(50)) * time.Microsecond)
				mu.Lock()
				defer mu.Unlock()
				if finished[i] {
					return fmt.Errorf("index %d ran twice", i)
				}
				finished[i] = true
				return nil
			})
			if err != nil {
				t.Fatalf("degree %d ahead %d: %v", deg, ahead, err)
			}
			for i, f := range finished {
				if !f {
					t.Fatalf("degree %d ahead %d: index %d never ran", deg, ahead, i)
				}
			}
		}
	}
}

// TestWindowFailureReleasesWaiters: a task failing at the fault site never
// runs, so nothing ahead of it could ever be claimed; the workers waiting
// for it must give up instead of waiting forever.
func TestWindowFailureReleasesWaiters(t *testing.T) {
	in := faults.New(3)
	in.MustArm(faults.Rule{Site: SiteTask, Kind: faults.Error, EveryN: 4})
	faults.Install(in)
	defer faults.Install(nil)
	err := NewPool(4).Window(100, 2, func(i int) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err %v, want injected fault", err)
	}
}

// TestChaosDelayInjectionKeepsResults arms delay-only rules at parallel.task
// and checks every combinator still produces exactly the serial result —
// stragglers must never reorder or corrupt output.
func TestChaosDelayInjectionKeepsResults(t *testing.T) {
	in := faults.New(42)
	in.MustArm(faults.Rule{Site: SiteTask, Kind: faults.Delay, Prob: 0.3, Delay: 500 * time.Microsecond})
	faults.Install(in)
	defer faults.Install(nil)

	var order []int
	err := inOrder(NewPool(8), 64,
		func(i int) (int, error) { return i * 3, nil },
		func(i, v int) error {
			if v != i*3 {
				return fmt.Errorf("index %d got %d", i, v)
			}
			order = append(order, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delayed tasks reordered delivery: %v", order)
		}
	}

	sum, err := Reduce(NewPool(8), 64,
		func(i int) (int, error) { return i, nil },
		func(a, b int) (int, error) { return a + b, nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 64*63/2 {
		t.Fatalf("sum %d", sum)
	}
}
