package des

import (
	"testing"

	"hetlb/internal/rng"
)

func TestOrderingByTime(t *testing.T) {
	s := New()
	var got []int
	s.At(5, PhaseStart, func() { got = append(got, 5) })
	s.At(1, PhaseStart, func() { got = append(got, 1) })
	s.At(3, PhaseStart, func() { got = append(got, 3) })
	if !s.Run(100) {
		t.Fatal("queue did not drain")
	}
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %d, want 5", s.Now())
	}
}

func TestPhaseOrderingWithinInstant(t *testing.T) {
	s := New()
	var got []string
	s.At(2, PhaseStart, func() { got = append(got, "start") })
	s.At(2, PhaseComplete, func() { got = append(got, "complete") })
	s.At(2, PhaseTransfer, func() { got = append(got, "transfer") })
	s.Run(100)
	if got[0] != "complete" || got[1] != "transfer" || got[2] != "start" {
		t.Fatalf("phase order wrong: %v", got)
	}
}

func TestSeqBreaksTies(t *testing.T) {
	s := New()
	var got []int
	for k := 0; k < 10; k++ {
		k := k
		s.At(1, PhaseStart, func() { got = append(got, k) })
	}
	s.Run(100)
	for k := 0; k < 10; k++ {
		if got[k] != k {
			t.Fatalf("insertion order not preserved: %v", got)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := New()
	hits := 0
	var recur func()
	recur = func() {
		hits++
		if hits < 5 {
			s.After(2, PhaseStart, recur)
		}
	}
	s.At(0, PhaseStart, recur)
	if !s.Run(100) {
		t.Fatal("queue did not drain")
	}
	if hits != 5 || s.Now() != 8 {
		t.Fatalf("hits=%d now=%d", hits, s.Now())
	}
	if s.Processed() != 5 {
		t.Fatalf("Processed = %d", s.Processed())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(5, PhaseStart, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(2, PhaseStart, func() {})
	})
	s.Run(10)
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, PhaseStart, func() {})
}

func TestRunBudget(t *testing.T) {
	s := New()
	for k := 0; k < 10; k++ {
		s.At(int64(k), PhaseStart, func() {})
	}
	if s.Run(3) {
		t.Fatal("Run reported drained with events left")
	}
	if s.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", s.Pending())
	}
	if !s.Run(100) {
		t.Fatal("second Run did not drain")
	}
}

func TestStepOnEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestSameInstantSchedulingRunsBeforeLaterEvents(t *testing.T) {
	s := New()
	var got []string
	s.At(1, PhaseComplete, func() {
		got = append(got, "c")
		// Schedule at the same instant in a later phase: must run before
		// the event at time 2.
		s.At(1, PhaseStart, func() { got = append(got, "s") })
	})
	s.At(2, PhaseStart, func() { got = append(got, "later") })
	s.Run(100)
	if len(got) != 3 || got[0] != "c" || got[1] != "s" || got[2] != "later" {
		t.Fatalf("order: %v", got)
	}
}

// Cross-phase ordering at one timestamp must hold even when the events are
// scheduled from inside handlers at that same timestamp: a PhaseComplete
// handler scheduling PhaseTransfer and PhaseStart work for "now" sees it run
// in phase order, interleaved with events that were already queued.
func TestSameTimestampCrossPhaseOrdering(t *testing.T) {
	s := New()
	var got []string
	s.At(4, PhaseStart, func() { got = append(got, "start-pre") })
	s.At(4, PhaseComplete, func() {
		got = append(got, "complete")
		s.At(4, PhaseStart, func() { got = append(got, "start-post") })
		s.At(4, PhaseTransfer, func() { got = append(got, "transfer-post") })
	})
	s.At(4, PhaseTransfer, func() { got = append(got, "transfer-pre") })
	s.Run(100)
	want := []string{"complete", "transfer-pre", "transfer-post", "start-pre", "start-post"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// After(0, ...) is legal: it schedules at the current instant and still
// respects phase ordering and insertion order within the phase.
func TestAfterZeroDelay(t *testing.T) {
	s := New()
	var got []string
	s.At(3, PhaseTransfer, func() {
		got = append(got, "transfer")
		s.After(0, PhaseStart, func() { got = append(got, "start-b") })
		s.After(0, PhaseStart, func() { got = append(got, "start-c") })
	})
	s.At(3, PhaseStart, func() { got = append(got, "start-a") })
	s.Run(100)
	want := []string{"transfer", "start-a", "start-b", "start-c"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %d, want 3", s.Now())
	}
}

// refQueue is the heap's oracle: a plain list of pending events, each step
// scanning it for the first in before order.
type refQueue struct {
	now    int64
	seq    uint64
	events []event
}

func (r *refQueue) At(t int64, phase Phase, fn func()) {
	r.events = append(r.events, event{time: t, phase: phase, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refQueue) Step() bool {
	if len(r.events) == 0 {
		return false
	}
	first := 0
	for k := range r.events {
		if r.events[k].before(&r.events[first]) {
			first = k
		}
	}
	ev := r.events[first]
	r.events = append(r.events[:first], r.events[first+1:]...)
	r.now = ev.time
	ev.fn()
	return true
}

// TestHeapMatchesLinearScan runs one random program on the simulator and
// on refQueue: up to 60 events at random times and phases, whose handlers
// schedule up to two more at delays of 0 to 4, many at the same instant.
// Both must run the events in the same order. The simulator's backing
// array must then hold no closure.
func TestHeapMatchesLinearScan(t *testing.T) {
	type queue interface {
		At(int64, Phase, func())
		Step() bool
	}
	run := func(q queue, now func() int64, seed uint64) []int {
		var order []int
		gen := rng.New(seed) // the same draws on both sides
		id := 0
		var schedule func(t int64)
		schedule = func(t int64) {
			me := id
			id++
			q.At(t, Phase(gen.Intn(3)), func() {
				order = append(order, me)
				if id < 400 {
					for c := gen.Intn(3); c > 0; c-- {
						schedule(now() + int64(gen.Intn(5)))
					}
				}
			})
		}
		for k := gen.Intn(60); k > 0; k-- {
			schedule(int64(gen.Intn(10)))
		}
		for q.Step() {
		}
		return order
	}
	for seed := uint64(0); seed < 200; seed++ {
		s := New()
		got := run(s, s.Now, seed)
		r := &refQueue{}
		want := run(r, func() int64 { return r.now }, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events run, want %d", seed, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: event %d is %d, want %d", seed, k, got[k], want[k])
			}
		}
		for k, ev := range s.events[:cap(s.events)] {
			if ev.fn != nil {
				t.Fatalf("seed %d: slot %d of the drained heap still holds its closure", seed, k)
			}
		}
	}
}
