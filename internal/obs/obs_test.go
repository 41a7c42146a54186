package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steps_total", "steps")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("makespan", "Cmax")
	g.Set(42)
	g.Add(-2)
	if g.Value() != 40 {
		t.Fatalf("gauge = %d, want 40", g.Value())
	}
	g.SetMax(10)
	if g.Value() != 40 {
		t.Fatalf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(50)
	if g.Value() != 50 {
		t.Fatalf("SetMax(50) = %d, want 50", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []int64{1, 2, 4, 8})
	for _, v := range []int64{0, 1, 2, 3, 5, 9, 100} {
		h.Observe(v)
	}
	// v <= bound buckets: le=1 gets {0,1}, le=2 gets {2}, le=4 gets {3},
	// le=8 gets {5}, +Inf gets {9,100}.
	want := []int64{2, 1, 1, 1, 2}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 120 {
		t.Fatalf("sum = %d, want 120", h.Sum())
	}
}

func TestBoundsHelpers(t *testing.T) {
	p := Pow2Bounds(3)
	if len(p) != 4 || p[0] != 1 || p[3] != 8 {
		t.Fatalf("Pow2Bounds(3) = %v", p)
	}
	l := LinearBounds(10, 5, 3)
	if len(l) != 3 || l[0] != 10 || l[2] != 20 {
		t.Fatalf("LinearBounds = %v", l)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("sessions_total", "per machine", "machine", IndexLabels(3))
	v.At(0).Inc()
	v.At(2).Add(5)
	if v.Total() != 6 {
		t.Fatalf("total = %d, want 6", v.Total())
	}
	if v.Len() != 3 {
		t.Fatalf("len = %d, want 3", v.Len())
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "help")
	b := r.Counter("c", "help")
	if a != b {
		t.Fatal("re-registering a counter returned a new instrument")
	}
	h1 := r.Histogram("h", "", []int64{1, 2})
	h2 := r.Histogram("h", "", []int64{1, 2})
	if h1 != h2 {
		t.Fatal("re-registering a histogram returned a new instrument")
	}
}

func TestRegistrationConflictsPanic(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"kind", func(r *Registry) { r.Counter("x", ""); r.Gauge("x", "") }},
		{"bounds", func(r *Registry) { r.Histogram("h", "", []int64{1}); r.Histogram("h", "", []int64{2}) }},
		{"vec-shape", func(r *Registry) {
			r.CounterVec("v", "", "m", IndexLabels(2))
			r.CounterVec("v", "", "m", IndexLabels(3))
		}},
		{"bad-name", func(r *Registry) { r.Counter("0bad name", "") }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		}()
	}
}

// TestRecordPathAllocFree asserts the tentpole constraint: recording through
// any instrument never allocates, so the instruments are safe on the
// gossip/shardgossip hot paths.
func TestRecordPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", Pow2Bounds(16))
	v := r.CounterVec("v", "", "machine", IndexLabels(8))
	checks := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Gauge.SetMax", func() { g.SetMax(9) }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"CounterVec.At.Inc", func() { v.At(5).Inc() }},
	}
	for _, ch := range checks {
		if allocs := testing.AllocsPerRun(100, ch.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", ch.name, allocs)
		}
	}
}

// TestConcurrentRecording hammers every instrument kind from many
// goroutines; totals must be exact. Run with -race in CI.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", []int64{10, 100})
	v := r.CounterVec("v", "", "machine", IndexLabels(4))
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 200))
				v.At(w % 4).Inc()
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	if v.Total() != total {
		t.Fatalf("vec total = %d, want %d", v.Total(), total)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps_total", "pairwise steps").Add(12)
	r.Gauge("makespan", "Cmax").Set(99)
	h := r.Histogram("moves", "jobs per step", []int64{1, 4})
	h.Observe(0)
	h.Observe(3)
	h.Observe(9)
	v := r.CounterVec("msgs_total", "by kind", "kind", []string{"request", "offer"})
	v.At(1).Add(7)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP steps_total pairwise steps",
		"# TYPE steps_total counter",
		"steps_total 12",
		"# TYPE makespan gauge",
		"makespan 99",
		"# TYPE moves histogram",
		"moves_bucket{le=\"1\"} 1",
		"moves_bucket{le=\"4\"} 2",
		"moves_bucket{le=\"+Inf\"} 3",
		"moves_sum 12",
		"moves_count 3",
		"msgs_total{kind=\"request\"} 0",
		"msgs_total{kind=\"offer\"} 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps_total", "steps").Add(3)
	h := r.Histogram("moves", "", []int64{2})
	h.Observe(1)
	h.Observe(5)
	r.CounterVec("msgs", "", "kind", []string{"a"}).At(0).Add(4)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]SnapshotValue
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded["steps_total"].Value != 3 {
		t.Fatalf("steps_total = %+v", decoded["steps_total"])
	}
	m := decoded["moves"]
	if m.Count != 2 || m.Sum != 6 || len(m.Buckets) != 2 || m.Buckets[0] != 1 || m.Buckets[1] != 1 {
		t.Fatalf("moves = %+v", m)
	}
	if decoded["msgs"].Cells["a"] != 4 {
		t.Fatalf("msgs = %+v", decoded["msgs"])
	}
}
