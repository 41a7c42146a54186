package shardgossip

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hetlb/internal/core"
	"hetlb/internal/faults"
	"hetlb/internal/obs"
	"hetlb/internal/obs/span"
	"hetlb/internal/obs/timeline"
	"hetlb/internal/protocol"
	"hetlb/internal/rng"
	"hetlb/internal/workload"
)

// TestEngineMetrics checks the per-epoch instrument contract: counters
// reconcile with the engine's own counters, and the registry survives being
// wired into a second engine.
func TestEngineMetrics(t *testing.T) {
	gen := rng.New(400)
	id := workload.UniformIdentical(gen, 10, 80, 1, 30)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	e, err := New(protocol.SameCost{Model: id}, core.AllOnMachine(id, 0), Config{Seed: 6, Shards: 3, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const epochs = 40
	for k := 0; k < epochs; k++ {
		e.StepEpoch()
	}
	if got := met.Epochs.Value(); got != epochs {
		t.Fatalf("shardgossip_epochs_total = %d, want %d", got, epochs)
	}
	if got := met.Sessions.Value(); got != int64(e.Steps()) {
		t.Fatalf("shardgossip_sessions_total = %d, want %d", got, e.Steps())
	}
	if got := met.Moves.Value(); got != int64(e.Moves()) {
		t.Fatalf("shardgossip_moves_total = %d, want %d", got, e.Moves())
	}
	if got := met.Makespan.Value(); got != int64(e.Makespan()) {
		t.Fatalf("shardgossip_makespan = %d, want %d", got, e.Makespan())
	}
	if got := met.EpochMoves.Count(); got != epochs {
		t.Fatalf("shardgossip_epoch_moves count = %d, want %d", got, epochs)
	}
	if got := met.EpochMoves.Sum(); got != int64(e.Moves()) {
		t.Fatalf("shardgossip_epoch_moves sum = %d, want %d", got, e.Moves())
	}
	// Re-registration on the same registry must accumulate, not panic.
	if NewMetrics(reg).Epochs.Value() != epochs {
		t.Fatal("metrics registry not reusable")
	}
}

// traceRun is one sharded run recorded into a span ring.
type traceRun struct {
	jsonl          []byte
	spans          []span.Span
	total, dropped uint64
	steps          int
}

// recordTrace runs 40 epochs of MJTB on ty at the given shard count, through
// Run or through StepEpoch alone, into a span ring of the given capacity.
func recordTrace(t *testing.T, ty *core.Typed, shards int, plan *faults.Config, viaRun bool, capacity int) traceRun {
	t.Helper()
	rec := span.NewRecorder(capacity)
	e, err := New(protocol.MJTB{Model: ty}, core.RoundRobin(ty), Config{Seed: 8, Shards: shards, Faults: plan, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const epochs = 40
	if viaRun {
		e.Run(epochs*(ty.NumMachines()/2), false)
	} else {
		for k := 0; k < epochs; k++ {
			e.StepEpoch()
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return traceRun{buf.Bytes(), rec.Spans(), rec.Total(), rec.Dropped(), e.Steps()}
}

// checkSessionOrder checks that a complete trace holds one session record
// per session index, in index order, each on the epoch's scheduled pair and
// under the run span, with an epoch's fault records just before its first
// session, and that no two records share an ID. It returns the number of
// fault records.
func checkSessionOrder(t *testing.T, what string, tr traceRun, m int, viaRun bool) int {
	t.Helper()
	sel := NewMatchingSelection(8, m)
	ids := make(map[span.ID]bool)
	sessions, faultRecords := 0, 0
	var parent span.ID
	for _, s := range tr.spans {
		if ids[s.ID] {
			t.Fatalf("%s: ID %d recorded twice", what, s.ID)
		}
		ids[s.ID] = true
		switch s.Kind {
		case span.KindSession:
			i, j := sel.Pair(nil, m)
			if s.Start != int64(sessions) || s.End != s.Start || s.A != int32(i) || s.B != int32(j) {
				t.Fatalf("%s: record %+v where session %d on (%d,%d) was due", what, s, sessions, i, j)
			}
			if parent == 0 {
				parent = s.Parent
			}
			if s.Parent == 0 || s.Parent != parent {
				t.Fatalf("%s: session %d under span %d, want the run span %d", what, sessions, s.Parent, parent)
			}
			sessions++
		case span.KindFault:
			if s.Start != int64(sessions) || sessions%(m/2) != 0 {
				t.Fatalf("%s: fault record at %d after %d sessions, want it before an epoch's first session", what, s.Start, sessions)
			}
			faultRecords++
		case span.KindRun:
			if !viaRun || s.ID != parent || s.End != int64(tr.steps) {
				t.Fatalf("%s: run record %+v (run=%v, run span %d, %d steps)", what, s, viaRun, parent, tr.steps)
			}
		default:
			t.Fatalf("%s: unexpected record kind %v", what, s.Kind)
		}
	}
	if sessions != tr.steps {
		t.Fatalf("%s: trace holds %d session records, want %d", what, sessions, tr.steps)
	}
	if last := tr.spans[len(tr.spans)-1]; viaRun != (last.Kind == span.KindRun) {
		t.Fatalf("%s: trace ends with a %v record (run=%v)", what, last.Kind, viaRun)
	}
	return faultRecords
}

// TestSpanTraceIdenticalAtEveryShardCount checks the trace contract of the
// sharded engine, with and without a crash plan, through Run and through
// StepEpoch alone, on an even and an odd machine count whose largest shard
// count exceeds ⌊m/2⌋: the JSONL trace is byte-identical at S ∈ {1, 2, 3,
// 4, 8}; it holds one session record per session index of each epoch, in
// index order; and a ring smaller than the run keeps its newest records,
// reporting total as the records appended and dropped as total minus its
// capacity.
func TestSpanTraceIdenticalAtEveryShardCount(t *testing.T) {
	gen := rng.New(401)
	for _, m := range []int{12, 11} {
		ty := workload.UniformTyped(gen, m, 8*m, 3, 1, 25)
		plan := faults.Config{Crashes: faults.RandomCrashes(rng.DeriveSeed(401, uint64(m)), m, 30, 3, 6, 0.5)}
		for _, armed := range []*faults.Config{nil, &plan} {
			for _, viaRun := range []bool{false, true} {
				what := fmt.Sprintf("m=%d faults=%v run=%v", m, armed != nil, viaRun)
				base := recordTrace(t, ty, 1, armed, viaRun, 1<<12)
				if base.dropped != 0 || base.total != uint64(len(base.spans)) {
					t.Fatalf("%s: reference ring dropped %d of %d records", what, base.dropped, base.total)
				}
				if n := checkSessionOrder(t, what, base, m, viaRun); (n > 0) != (armed != nil) {
					t.Fatalf("%s: %d fault records", what, n)
				}
				for _, s := range []int{2, 3, 4, 8} {
					if got := recordTrace(t, ty, s, armed, viaRun, 1<<12); !bytes.Equal(got.jsonl, base.jsonl) {
						t.Fatalf("%s: trace at S=%d differs from S=1", what, s)
					}
				}
				const small = 64
				got := recordTrace(t, ty, 3, armed, viaRun, small)
				if got.total != base.total || got.dropped != got.total-small {
					t.Fatalf("%s: %d-record ring reports total %d, dropped %d; want %d, %d",
						what, small, got.total, got.dropped, base.total, base.total-small)
				}
				if !slices.Equal(got.spans, base.spans[len(base.spans)-small:]) {
					t.Fatalf("%s: %d-record ring does not hold the newest records", what, small)
				}
			}
		}
	}
}

// TestTimelinePerEpoch checks the convergence timeline: one point per epoch,
// Time = the epoch's last session index, monotone Moves, and an imbalance
// consistent with Cmax and the mean load.
func TestTimelinePerEpoch(t *testing.T) {
	gen := rng.New(402)
	id := workload.UniformIdentical(gen, 8, 64, 1, 20)
	tl := timeline.NewRecorder(256)
	e, err := New(protocol.SameCost{Model: id}, core.AllOnMachine(id, 0), Config{Seed: 11, Shards: 2, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const epochs = 25
	for k := 0; k < epochs; k++ {
		e.StepEpoch()
	}
	pts := tl.Points()
	if len(pts) != epochs {
		t.Fatalf("timeline holds %d points, want %d", len(pts), epochs)
	}
	np := int64(8 / 2)
	var prevMoves int64
	for k, p := range pts {
		if want := int64(k+1)*np - 1; p.Time != want {
			t.Fatalf("point %d at time %d, want %d", k, p.Time, want)
		}
		if p.Moves < prevMoves {
			t.Fatal("timeline moves decreased")
		}
		prevMoves = p.Moves
		if p.Imbalance != p.Cmax-int64(e.TotalLoad())/8 {
			t.Fatalf("point %d imbalance %d inconsistent", k, p.Imbalance)
		}
	}
}
