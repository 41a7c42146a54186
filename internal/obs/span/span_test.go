package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestKindTagWireNames(t *testing.T) {
	kinds := map[Kind]string{
		KindRun: "run", KindReplication: "replication", KindSweep: "sweep",
		KindSession: "session", KindStep: "step", KindFault: "fault",
		Kind(0): "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	tags := map[Tag]string{
		TagNone: "", TagInitiator: "initiator", TagTarget: "target",
		TagDrop: "drop", TagRetransmit: "retransmit", TagTimeout: "timeout",
		TagCrash: "crash", TagRecover: "recover", Tag(99): "unknown",
	}
	for tag, want := range tags {
		if got := tag.String(); got != want {
			t.Errorf("Tag(%d).String() = %q, want %q", tag, got, want)
		}
	}
}

func TestAppendAssignsSequentialIDs(t *testing.T) {
	r := NewRecorder(8)
	id1 := r.Append(Span{Kind: KindStep})
	id2 := r.Append(Span{Kind: KindStep})
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d, want 1, 2", id1, id2)
	}
	pre := r.NextID()
	if pre != 3 {
		t.Fatalf("NextID = %d, want 3", pre)
	}
	// Appending with a pre-allocated ID must not burn a fresh one.
	got := r.Append(Span{ID: pre, Kind: KindSession})
	if got != pre {
		t.Fatalf("Append(pre-allocated) returned %d, want %d", got, pre)
	}
	if next := r.NextID(); next != 4 {
		t.Fatalf("NextID after explicit-ID append = %d, want 4", next)
	}
}

func TestSubNamespaceDisjoint(t *testing.T) {
	a := NewSub(8, 1)
	b := NewSub(8, 2)
	ia := a.Append(Span{Kind: KindSession})
	ib := b.Append(Span{Kind: KindSession})
	if ia == ib {
		t.Fatalf("sub-recorders produced colliding ids %d", ia)
	}
	if ia != 1<<32|1 || ib != 2<<32|1 {
		t.Fatalf("ids = %#x, %#x, want namespaced", uint64(ia), uint64(ib))
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Append(Span{Kind: KindStep, Start: int64(i), End: int64(i)})
	}
	if r.Total() != 5 || r.Dropped() != 3 || r.Len() != 2 {
		t.Fatalf("total/dropped/len = %d/%d/%d, want 5/3/2", r.Total(), r.Dropped(), r.Len())
	}
	got := r.Spans()
	if len(got) != 2 || got[0].Start != 3 || got[1].Start != 4 {
		t.Fatalf("retained = %+v, want starts 3, 4", got)
	}
}

func TestMergePreservesIDsAndOrder(t *testing.T) {
	parent := NewRecorder(16)
	r1 := NewSub(8, 1)
	r2 := NewSub(8, 2)
	r1.Append(Span{Kind: KindReplication, A: 0})
	r1.Append(Span{Kind: KindSession, A: 0, B: 1})
	r2.Append(Span{Kind: KindReplication, A: 1})
	parent.Merge(r1)
	parent.Merge(r2)
	got := parent.Spans()
	if len(got) != 3 {
		t.Fatalf("merged %d spans, want 3", len(got))
	}
	if got[0].ID != 1<<32|1 || got[1].ID != 1<<32|2 || got[2].ID != 2<<32|1 {
		t.Fatalf("merged ids = %#x %#x %#x", uint64(got[0].ID), uint64(got[1].ID), uint64(got[2].ID))
	}
}

func TestRootRoundTrip(t *testing.T) {
	r := NewRecorder(4)
	if r.Root() != 0 {
		t.Fatalf("fresh recorder root = %d, want 0", r.Root())
	}
	r.SetRoot(7)
	if r.Root() != 7 {
		t.Fatalf("root = %d, want 7", r.Root())
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(4)
	sid := r.NextID()
	r.Append(Span{ID: sid, Parent: 0, Kind: KindSession, Tag: TagTarget, Flags: FlagCommitted, A: 3, B: 7, Start: 120, End: 190, Clock: 42, Value: 5})
	r.Append(Span{Parent: sid, Kind: KindFault, Tag: TagDrop, A: 3, B: 7, Start: 150, End: 150, Value: 1})
	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 records:\n%s", len(lines), sb.String())
	}
	if want := `{"meta":"hetlb-spans","version":1,"total":2,"dropped":0,"retained":2}`; lines[0] != want {
		t.Fatalf("header = %s, want %s", lines[0], want)
	}
	if want := `{"id":1,"parent":0,"kind":"session","tag":"target","flags":1,"a":3,"b":7,"start":120,"end":190,"clock":42,"v":5}`; lines[1] != want {
		t.Fatalf("line 1 = %s, want %s", lines[1], want)
	}
	if want := `{"id":2,"parent":1,"kind":"fault","tag":"drop","flags":0,"a":3,"b":7,"start":150,"end":150,"clock":0,"v":1}`; lines[2] != want {
		t.Fatalf("line 2 = %s, want %s", lines[2], want)
	}
}

// TestWriteChromeTrace decodes the Chrome rendering of a ring that has
// overflowed: intervals become complete events, fault points instants, tid
// is the actor clamped at 0, and otherData carries the ring accounting.
func TestWriteChromeTrace(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder(3)
		r.Append(Span{Kind: KindStep, A: 1, B: 2}) // overwritten below
		sid := r.Append(Span{Kind: KindSession, Tag: TagTarget, Flags: FlagCommitted, A: 3, B: 7, Start: 120, End: 190, Clock: 42, Value: 5})
		r.Append(Span{Parent: sid, Kind: KindFault, Tag: TagDrop, A: 3, B: 7, Start: 150, End: 150, Value: 1})
		r.Append(Span{Kind: KindRun, A: -1, B: -1, Start: 0, End: 200})
		return r
	}
	r := build()
	var first, again, rebuilt bytes.Buffer
	for _, out := range []struct {
		r *Recorder
		b *bytes.Buffer
	}{{r, &first}, {r, &again}, {build(), &rebuilt}} {
		if err := out.r.WriteChromeTrace(out.b); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) || !bytes.Equal(first.Bytes(), rebuilt.Bytes()) {
		t.Fatalf("the same ring wrote different bytes:\n%s\n%s\n%s", first.String(), again.String(), rebuilt.String())
	}
	var doc struct {
		OtherData struct{ Total, Dropped, Retained int }
		// Dur is a pointer so an instant, which has no dur, decodes as nil.
		Events []struct {
			Name, Cat, Ph, S string
			Pid, Tid         int32
			Ts               int64
			Dur              *int64
			Args             struct {
				ID, Parent uint64
				A, B       int32
				V          int64
			}
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, first.String())
	}
	if o := doc.OtherData; o.Total != 4 || o.Dropped != 1 || o.Retained != 3 {
		t.Fatalf("otherData = %+v, want total 4, dropped 1, retained 3", o)
	}
	ev := doc.Events
	if len(ev) != r.Len() {
		t.Fatalf("%d events for %d retained records", len(ev), r.Len())
	}
	if e := ev[0]; e.Name != "session" || e.Cat != "target" || e.Ph != "X" || e.Tid != 3 ||
		e.Ts != 120 || e.Dur == nil || *e.Dur != 70 || e.Args.ID != 2 || e.Args.B != 7 || e.Args.V != 5 {
		t.Fatalf("session event = %+v, want a complete event at ts 120 lasting 70 on tid 3", e)
	}
	if e := ev[1]; e.Name != "fault" || e.Cat != "drop" || e.Ph != "i" || e.S != "t" || e.Tid != 3 ||
		e.Ts != 150 || e.Dur != nil || e.Args.Parent != 2 {
		t.Fatalf("fault event = %+v, want a thread instant at ts 150 on tid 3", e)
	}
	if e := ev[2]; e.Name != "run" || e.Ph != "X" || e.Tid != 0 || e.Args.A != -1 || e.Dur == nil || *e.Dur != 200 {
		t.Fatalf("run event = %+v, want tid clamped to 0 and dur 200", e)
	}
}

func TestAppendAndNextIDDoNotAllocate(t *testing.T) {
	r := NewRecorder(64)
	s := Span{Kind: KindStep, A: 1, B: 2, Start: 10, End: 11, Value: 3}
	if n := testing.AllocsPerRun(200, func() { r.Append(s) }); n != 0 {
		t.Errorf("Append allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { r.NextID() }); n != 0 {
		t.Errorf("NextID allocates %.1f per call, want 0", n)
	}
}

func TestConcurrentAppendKeepsAccounting(t *testing.T) {
	r := NewRecorder(128)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				r.Append(Span{Kind: KindStep})
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if r.Total() != 4000 || r.Dropped() != 4000-128 {
		t.Fatalf("total/dropped = %d/%d, want 4000/%d", r.Total(), r.Dropped(), 4000-128)
	}
}
