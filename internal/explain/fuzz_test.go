package explain

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// The readers take files from outside the process, so arbitrary bytes must
// come back as an error or as data the analysis handles: never a panic.
// The seed corpora under testdata/fuzz hold real span and timeline exports
// (sequential steps, message-passing sessions with faults, a sharded run
// with a crash, CSV and JSON timelines) and truncated and mutated variants,
// a span record longer than the reader's initial 64 KiB buffer and a CSV row
// past the timeline reader's 64 KiB line limit; `make fuzz` mutates them
// further.

// analyzeAndRender runs the analysis and the text report over parsed input.
func analyzeAndRender(t *testing.T, r *Report) {
	t.Helper()
	if err := r.WriteText(io.Discard); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
}

// FuzzReadSpans feeds arbitrary bytes to ReadSpans. Input it accepts must
// analyze and render.
func FuzzReadSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, hdr, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		analyzeAndRender(t, Analyze(spans, hdr, nil, Options{}))
	})
}

// TestReadSpansRejectsOverLongLine covers the one input the span corpus
// leaves out: a record past the reader's 4 MiB line limit, which would slow
// every fuzzing exec that mutates it. It must come back as an error.
func TestReadSpansRejectsOverLongLine(t *testing.T) {
	data := `{"meta":"hetlb-spans","version":1,"total":1,"dropped":0,"retained":1}` + "\n" +
		`{"id":2,"kind":"step","tag":"` + strings.Repeat("x", 4<<20) + `"}` + "\n"
	if _, _, err := ReadSpans(strings.NewReader(data)); err == nil {
		t.Fatal("ReadSpans accepted a record past its line limit")
	}
}

// FuzzReadTimeline feeds arbitrary bytes to ReadTimeline, which sniffs JSON
// against CSV. Input it accepts must analyze and render, with the default
// options and with the tightest stall and top-k settings.
func FuzzReadTimeline(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := ReadTimeline(bytes.NewReader(data))
		if err != nil {
			return
		}
		analyzeAndRender(t, Analyze(nil, Header{}, pts, Options{}))
		analyzeAndRender(t, Analyze(nil, Header{}, pts, Options{StallPoints: 1, TopK: 1}))
	})
}
