package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hetlb/internal/explain"
	"hetlb/internal/harness"
	"hetlb/internal/obs/span"
)

// The sharded chaos sweep must be bit-identical across worker counts AND
// across engine shard counts, and its faulty cells must exercise the
// degraded machinery.
func TestShardChaosDeterministic(t *testing.T) {
	cfg := PaperShardChaos().Reduced()
	cfg.Shards = 1
	ref := assertInvariant(t, "ShardChaos", func(opt harness.Options) ([]ShardChaosResult, error) {
		return ShardChaosWith(opt, cfg)
	})
	if len(ref) != len(cfg.CrashCounts) {
		t.Fatalf("got %d cells, want %d", len(ref), len(cfg.CrashCounts))
	}
	for _, shards := range []int{2, 4} {
		c := cfg
		c.Shards = shards
		got, err := ShardChaos(c)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("shards=%d: sweep differs from shards=1", shards)
		}
	}
	free := ref[0]
	if free.Crashes != 0 {
		t.Fatalf("first cell has %d crashes, want the fault-free reference", free.Crashes)
	}
	if free.MeanDegradation != 1 || free.MeanVoidedFrac != 0 || free.MeanJobsLost != 0 || free.MeanMoveOverhead != 0 {
		t.Fatalf("fault-free cell reports degradation: %+v", free)
	}
	faulty := ref[len(ref)-1]
	if faulty.MeanVoidedFrac == 0 {
		t.Error("crash cell voided no sessions — sweep not exercising the down-set")
	}
	if faulty.MeanJobsLost == 0 && faulty.MeanRehosted == 0 {
		t.Error("crash cell neither lost nor rehosted jobs")
	}
	tab := ShardChaosTable(ref)
	if !strings.Contains(tab, "Cmax vs fault-free") || !strings.Contains(tab, "voided") {
		t.Errorf("table missing headers:\n%s", tab)
	}
	if s := ShardChaosSeries(ref); len(s) != 1 {
		t.Errorf("ShardChaosSeries returned %d series, want 1", len(s))
	}
}

// The reduced sharded chaos sweep's span trace must give every record its
// own ID, even though each replication records into its own namespace of
// the trace: hetlb explain merges session records by ID, so it must count
// one session per session the faulted engines ran.
func TestShardChaosSpanTraceCountsEverySession(t *testing.T) {
	cfg := PaperShardChaos().Reduced()
	cfg.Shards = 2
	rec := span.NewRecorder(1 << 18)
	if _, err := ShardChaosWith(harness.Options{Spans: rec}, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans, hdr, err := explain.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[span.ID]bool, len(spans))
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("ID %d recorded twice in a %d-record trace", s.ID, len(spans))
		}
		ids[s.ID] = true
	}
	// Only the faulted run of each replication records spans.
	want := len(cfg.CrashCounts) * cfg.Runs * cfg.Epochs * (cfg.Machines / 2)
	if got := explain.Analyze(spans, hdr, nil, explain.Options{}).SessionCount; got != want {
		t.Fatalf("explain counts %d sessions, want %d", got, want)
	}
}

func TestShardChaosRejectsBadConfig(t *testing.T) {
	cfg := PaperShardChaos()
	cfg.Runs = 0
	if _, err := ShardChaos(cfg); err == nil {
		t.Error("Runs=0 accepted")
	}
	cfg = PaperShardChaos()
	cfg.Epochs = 0
	if _, err := ShardChaos(cfg); err == nil {
		t.Error("Epochs=0 accepted")
	}
	cfg = PaperShardChaos()
	cfg.Machines = 1
	if _, err := ShardChaos(cfg); err == nil {
		t.Error("Machines=1 accepted")
	}
}
