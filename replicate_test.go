package hetlb_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"hetlb"
	"hetlb/internal/obs/span"
)

// TestReplicateDeterministicMonteCarlo drives the public harness facade the
// way a user would: a small Monte-Carlo study over random two-cluster
// instances, checked to be independent of the worker count.
func TestReplicateDeterministicMonteCarlo(t *testing.T) {
	study := func(parallelism int) []float64 {
		out, err := hetlb.Replicate(hetlb.ReplicationOptions{Parallelism: parallelism}, 11, 12,
			func(rep *hetlb.Replication) (float64, error) {
				p0 := make([]hetlb.Cost, 48)
				p1 := make([]hetlb.Cost, 48)
				for j := range p0 {
					p0[j] = hetlb.Cost(rep.RNG.IntRange(1, 100))
					p1[j] = hetlb.Cost(rep.RNG.IntRange(1, 100))
				}
				tc, err := hetlb.NewTwoCluster(4, 2, p0, p1)
				if err != nil {
					return 0, err
				}
				initial := hetlb.RandomInitial(tc, rep.RNG.Uint64())
				res, err := hetlb.DLB2C(tc, initial, hetlb.RunOptions{
					Seed:         rep.RNG.Uint64(),
					MaxExchanges: 6 * 20,
				})
				if err != nil {
					return 0, err
				}
				return float64(res.Makespan) / hetlb.TwoClusterLowerBound(tc), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := study(1)
	par := study(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel study changed the numbers:\nseq %v\npar %v", seq, par)
	}
	for _, ratio := range seq {
		if ratio < 1-1e-9 || ratio > 4 {
			t.Fatalf("implausible Cmax/LB ratio %v", ratio)
		}
	}
}

func TestReplicateSurfacesErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := hetlb.Replicate(hetlb.ReplicationOptions{Parallelism: 2}, 1, 8,
		func(rep *hetlb.Replication) (int, error) {
			if rep.Index%3 == 1 {
				return 0, boom
			}
			return rep.Index, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplicateTimeout(t *testing.T) {
	_, err := hetlb.Replicate(hetlb.ReplicationOptions{Parallelism: 1, Timeout: 10 * time.Millisecond}, 1, 1000,
		func(rep *hetlb.Replication) (int, error) {
			time.Sleep(time.Millisecond)
			return 0, nil
		})
	if err == nil {
		t.Fatal("timed-out study reported success")
	}
}

func TestDeriveSeedIsPure(t *testing.T) {
	if hetlb.DeriveSeed(1, 2, 3) != hetlb.DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed not pure")
	}
	if hetlb.DeriveSeed(1, 2) == hetlb.DeriveSeed(1, 3) {
		t.Fatal("DeriveSeed ignores keys")
	}
}

func TestReplicateMetrics(t *testing.T) {
	reg := hetlb.NewMetricsRegistry()
	rec := hetlb.NewSpanTrace(256)
	_, err := hetlb.Replicate(hetlb.ReplicationOptions{Metrics: reg, Spans: rec}, 5, 10,
		func(rep *hetlb.Replication) (int, error) { return rep.Index, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("harness_replications_completed_total", "").Value(); got != 10 {
		t.Fatalf("completed counter = %d", got)
	}
	reps := 0
	for _, s := range rec.Spans() {
		if s.Kind == span.KindReplication {
			reps++
			if s.Flags&span.FlagFailed != 0 {
				t.Fatalf("replication %d traced as failed", s.A)
			}
		}
	}
	if reps != 10 {
		t.Fatalf("trace has %d replication spans, want 10", reps)
	}
}
