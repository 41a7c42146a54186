package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"hetlb"
	"hetlb/internal/rng"
	gen "hetlb/internal/workload"
)

// benchmarkMetrics reads the metric lists of the repository's BENCHMARK.json.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs every workload at toy size, untraced and traced,
// through the same code paths as the benchmark: setup, units, the
// correctness gate, the traced rerun with its replay, and the emitted metric
// set, which must be exactly the one BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			res := run(w, toyParams, 11, 0, traced, &log)
			if !res.Correct || res.Attempted < minUnits || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, log.String())
				continue
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for name, v := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != v.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] not declared as such in BENCHMARK.json", w.name, traced, name, v.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			if traced {
				if c := res.Metrics["trace.coverage"].Value; c < 0.9 {
					t.Errorf("%s: trace coverage %.3f", w.name, c)
				}
				if res.Metrics["trace.replay_sessions"].Value == 0 {
					t.Errorf("%s: no session was replayed", w.name)
				}
				if pairs := res.Metrics["shardgossip.check_pairs"].Value; (pairs > 0) != (w.name == workloads[0].name) {
					t.Errorf("%s: %v stability-check pairs", w.name, pairs)
				}
			}
		}
	}
}

// TestOutputLastLine checks the run contract: the last line of a run's
// output is one JSON object with exactly the keys correct, attempted, failed
// and metrics.
func TestOutputLastLine(t *testing.T) {
	var out bytes.Buffer
	res := run(workloads[0], toyParams, 5, 0, false, io.Discard)
	if err := writeResult(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Errorf("last line has keys %v", obj)
	}
}

// TestSameSeedSameWork: the deterministic end-to-end metrics depend on the
// seed alone, not on how many units a run's time budget allowed.
func TestSameSeedSameWork(t *testing.T) {
	for _, w := range workloads {
		a := run(w, toyParams, 3, 0, false, io.Discard)
		b := run(w, toyParams, 3, 0.05, false, io.Discard)
		for name := range deterministic {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s %s: %v then %v", w.name, name, a.Metrics[name], b.Metrics[name])
			}
		}
	}
}

func TestTypedLowerBoundMatchesLibrary(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		ty := gen.UniformTyped(rng.New(seed), 1+int(seed%7), 50+int(seed), 1+int(seed%5), 1, 100)
		if got, want := typedLowerBound(ty), hetlb.LowerBound(ty); got != want {
			t.Errorf("seed %d: typedLowerBound = %d, LowerBound = %d", seed, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if tl := tailOf(v); tl.pct != 99 || tl.value != 990 || tl.samples != 1000 {
		t.Errorf("tail of 1..1000 = %+v, want the 99th percentile 990", tl)
	}
	if tl := tailOf(v[:15]); tl.pct != 50 {
		t.Errorf("tail of 15 samples = %+v, want the median", tl)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(runS ...float64) []entry {
		var es []entry
		for i, v := range runS {
			es = append(es, entry{Seed: uint64(i), Result: result{Metrics: map[string]value{
				"run_s":      {Value: v, Unit: "s"},
				"cmax_ratio": {Value: 1.25, Unit: "ratio"},
			}}})
		}
		return es
	}
	cases := []struct {
		a, b []float64
		want string
	}{
		{[]float64{1, 1.01, 0.99, 1}, []float64{1.02, 1, 1.01, 1}, "within"},
		{[]float64{1, 1.01, 0.99, 1}, []float64{1.3, 1.31, 1.29, 1.3}, "worse"},
		{[]float64{1, 2, 0.5, 1.5}, []float64{1.1, 2, 0.6, 1.5}, "unresolved"},
		{[]float64{1, 2, 0.5, 1.5}, []float64{0.1, 0.2, 0.15, 0.12}, "within"},
	}
	for _, c := range cases {
		a, b := mk(c.a...), mk(c.b...)
		if got := judge("run_s", "lower", 0.1, a, b, c.a, c.b); got != c.want {
			t.Errorf("run_s %v vs %v: %s, want %s", c.a, c.b, got, c.want)
		}
	}
	a, b := mk(1, 1), mk(1, 1)
	b[1].Result.Metrics["cmax_ratio"] = value{Value: 1.26, Unit: "ratio"}
	if got := judge("cmax_ratio", "lower", 0.1, a, b, nil, nil); got != "differs" {
		t.Errorf("changed deterministic metric: %s, want differs", got)
	}
}
