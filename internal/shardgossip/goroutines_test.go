package shardgossip

import (
	"runtime"
	"testing"
	"time"

	"hetlb/internal/core"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// settledGoroutines returns runtime.NumGoroutine once it has read the same
// count several times in a row, so goroutines that an earlier test's Close
// told to exit are gone before a test takes its baseline.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); same < 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if k := runtime.NumGoroutine(); k == n {
			same++
		} else {
			n, same = k, 0
		}
	}
	return n
}

// waitGoroutines polls runtime.NumGoroutine until it reads want, and fails
// the test with the last count if it has not within a deadline: workers
// exit asynchronously after Close.
func waitGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); got != want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got != want {
		t.Fatalf("%s: %d goroutines, want %d", what, got, want)
	}
}

// TestEngineGoroutines pins which goroutines an engine owns. At S=1 the
// coordinator steps on the caller's goroutine and the draw runs there too,
// so New, StepEpoch, Run and Close leave the count unchanged. At S=3, New
// starts exactly the two workers, and Close stops them. The package runs no
// test in parallel, so the count is this test's alone.
func TestEngineGoroutines(t *testing.T) {
	tc := workload.UniformTwoCluster(rng.New(17), 4, 4, 64, 1, 50)
	p := protocol.DLB2C{Model: tc}

	base := settledGoroutines()
	same := func(what string) {
		t.Helper()
		if got := runtime.NumGoroutine(); got != base {
			t.Fatalf("S=1 after %s: %d goroutines, want %d", what, got, base)
		}
	}
	e, err := New(p, core.RoundRobin(tc), Config{Seed: 3, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	same("New")
	e.StepEpoch()
	same("StepEpoch")
	e.Run(64, true)
	same("Run")
	e.Close()
	same("Close")

	e, err = New(p, core.RoundRobin(tc), Config{Seed: 3, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "S=3 after New", base+2)
	e.StepEpoch()
	e.Run(64, true)
	waitGoroutines(t, "S=3 after Run", base+2)
	e.Close()
	waitGoroutines(t, "S=3 after Close", base)
	e.Close()
	waitGoroutines(t, "S=3 after a second Close", base)
}
