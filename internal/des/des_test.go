package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptySimulator(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("new simulator clock = %v, want 0", s.Now())
	}
	if s.Step() {
		t.Fatal("Step on empty simulator returned true")
	}
	if got := s.NextEventTime(); got != Inf {
		t.Fatalf("NextEventTime = %v, want Inf", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { order = append(order, at) })
	}
	s.Run()
	want := []Time{1, 2, 3, 4, 5}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		//corralvet:ok floateq exact identity intended: events fire at exactly the times they were scheduled for
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, order[i], want[i])
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	s.At(10, func() {
		if s.Now() != 10 {
			t.Errorf("clock inside event = %v, want 10", s.Now())
		}
	})
	s.Run()
	if s.Now() != 10 {
		t.Fatalf("clock after run = %v, want 10", s.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(5, func() {
		s.After(3, func() { at = s.Now() })
	})
	s.Run()
	if at != 8 {
		t.Fatalf("After(3) from t=5 fired at %v, want 8", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	// Canceling twice is a no-op.
	e.Cancel()
}

func TestCancelDuringRun(t *testing.T) {
	s := New()
	fired := false
	var later *Event
	s.At(1, func() { later.Cancel() })
	later = s.At(2, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event canceled by an earlier event still fired")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(2)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("RunUntil(2) fired %v, want [1 2]", fired)
	}
	if s.Now() != 2 {
		t.Fatalf("clock = %v, want 2", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 4 {
		t.Fatalf("RunUntil(10) total fired = %d, want 4", len(fired))
	}
	if s.Now() != 10 {
		t.Fatalf("clock advanced to %v, want deadline 10", s.Now())
	}
}

func TestNextEventTimeSkipsCanceled(t *testing.T) {
	s := New()
	e := s.At(1, func() {})
	s.At(2, func() {})
	e.Cancel()
	if got := s.NextEventTime(); got != 2 {
		t.Fatalf("NextEventTime = %v, want 2", got)
	}
}

func TestFiredCount(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", s.Fired())
	}
}

// Property: for any batch of event times, events fire in nondecreasing time
// order and all of them fire.
func TestQuickOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		count := int(n%64) + 1
		times := make([]Time, count)
		var fired []Time
		for i := range times {
			times[i] = Time(rng.Float64() * 1000)
			at := times[i]
			s.At(at, func() { fired = append(fired, at) })
		}
		s.Run()
		if len(fired) != count {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		sorted := append([]Time(nil), times...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			//corralvet:ok floateq exact identity intended: events fire at exactly the times they were scheduled for
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving scheduling during execution preserves causality —
// an event can only schedule at or after its own time, and the clock never
// moves backwards.
func TestQuickCausality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		last := Time(-1)
		ok := true
		var spawn func()
		remaining := 100
		spawn = func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if remaining <= 0 {
				return
			}
			remaining--
			s.After(Time(rng.Float64()), spawn)
		}
		s.At(0, spawn)
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
