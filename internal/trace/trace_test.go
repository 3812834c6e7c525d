package trace

import (
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

func TestAddAndSpans(t *testing.T) {
	tl := New()
	tl.Add("vpu1", Exec, 10*ms, 20*ms, "img3")
	tl.Add("vpu0", Load, 0, 5*ms, "")
	if tl.Len() != 2 {
		t.Fatalf("Len = %d", tl.Len())
	}
	spans := tl.Spans()
	if spans[0].Track != "vpu0" || spans[1].Track != "vpu1" {
		t.Error("Spans must be sorted by start time")
	}
	if spans[1].Duration() != 10*ms {
		t.Errorf("Duration = %v", spans[1].Duration())
	}
}

// TestDisabledDropsSpans: a nil *Timeline is the disabled timeline —
// Add on it records nothing and does not panic.
func TestDisabledDropsSpans(t *testing.T) {
	var tl *Timeline
	tl.Add("x", Exec, 0, ms, "")
	if tl.Len() != 0 || tl.Enabled() {
		t.Error("disabled timeline stored a span")
	}
	if !New().Enabled() || !(&Timeline{}).Enabled() {
		t.Error("New and the zero value must be enabled")
	}
}

func TestInvertedSpanPanics(t *testing.T) {
	tl := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tl.Add("x", Exec, 5*ms, 2*ms, "")
}

func TestInvertedSpanPanicsEvenWhenDisabled(t *testing.T) {
	var tl *Timeline
	defer func() {
		if recover() == nil {
			t.Error("disabled timeline must still catch inverted spans")
		}
	}()
	tl.Add("x", Exec, 5*ms, 2*ms, "")
}

func TestTracksFirstSeenOrder(t *testing.T) {
	tl := New()
	tl.Add("b", Exec, 10*ms, 20*ms, "")
	tl.Add("a", Exec, 0, 5*ms, "")
	tl.Add("b", Load, 30*ms, 40*ms, "")
	tracks := tl.Tracks()
	if len(tracks) != 2 || tracks[0] != "b" || tracks[1] != "a" {
		t.Errorf("Tracks = %v", tracks)
	}
}

func TestBusyTime(t *testing.T) {
	tl := New()
	tl.Add("v", Exec, 0, 10*ms, "")
	tl.Add("v", Exec, 20*ms, 25*ms, "")
	tl.Add("v", Load, 10*ms, 12*ms, "")
	tl.Add("w", Exec, 0, 100*ms, "")
	if got := tl.BusyTime("v", Exec); got != 15*ms {
		t.Errorf("BusyTime = %v, want 15ms", got)
	}
	if got := tl.BusyTime("v", Load); got != 2*ms {
		t.Errorf("BusyTime load = %v", got)
	}
	if got := tl.BusyTime("nope", Exec); got != 0 {
		t.Errorf("BusyTime missing track = %v", got)
	}
}

func TestOverlap(t *testing.T) {
	tl := New()
	// Two execs overlapping for 5ms, a third disjoint.
	tl.Add("a", Exec, 0, 10*ms, "")
	tl.Add("b", Exec, 5*ms, 15*ms, "")
	tl.Add("c", Exec, 20*ms, 30*ms, "")
	if got := tl.Overlap(Exec); got != 5*ms {
		t.Errorf("Overlap = %v, want 5ms", got)
	}
	// Load spans do not contribute to Exec overlap.
	tl.Add("d", Load, 0, 30*ms, "")
	if got := tl.Overlap(Exec); got != 5*ms {
		t.Errorf("Overlap after load = %v", got)
	}
}

func TestOverlapTriple(t *testing.T) {
	tl := New()
	tl.Add("a", Exec, 0, 10*ms, "")
	tl.Add("b", Exec, 0, 10*ms, "")
	tl.Add("c", Exec, 0, 10*ms, "")
	// Any >= 2 depth counts once: still 10ms.
	if got := tl.Overlap(Exec); got != 10*ms {
		t.Errorf("triple overlap = %v, want 10ms", got)
	}
}

func TestOverlapAdjacentSpansNoOverlap(t *testing.T) {
	tl := New()
	tl.Add("a", Exec, 0, 10*ms, "")
	tl.Add("b", Exec, 10*ms, 20*ms, "")
	if got := tl.Overlap(Exec); got != 0 {
		t.Errorf("adjacent spans overlap = %v, want 0", got)
	}
}

func TestCSV(t *testing.T) {
	tl := New()
	tl.Add("vpu0", Load, 0, 2*ms, "img0")
	csv := tl.CSV()
	if !strings.HasPrefix(csv, "track,kind,start_us,end_us,note\n") {
		t.Error("missing header")
	}
	if !strings.Contains(csv, "vpu0,load,0,2000,img0") {
		t.Errorf("row missing: %q", csv)
	}
}

func TestRender(t *testing.T) {
	tl := New()
	tl.Add("vpu0", Load, 0, 10*ms, "")
	tl.Add("vpu0", Exec, 10*ms, 90*ms, "")
	tl.Add("vpu1", Load, 10*ms, 20*ms, "")
	tl.Add("vpu1", Exec, 20*ms, 100*ms, "")
	out := tl.Render(40)
	if !strings.Contains(out, "vpu0") || !strings.Contains(out, "vpu1") {
		t.Error("tracks missing from render")
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "L") {
		t.Error("glyphs missing from render")
	}
	if !strings.Contains(out, "legend") {
		t.Error("legend missing")
	}
	// Each track row must be width+2 runes between the pipes.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "|") {
			inner := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
			if len(inner) != 40 {
				t.Errorf("row width = %d, want 40", len(inner))
			}
		}
	}
}

func TestRenderEmpty(t *testing.T) {
	if got := New().Render(40); !strings.Contains(got, "empty") {
		t.Errorf("empty render = %q", got)
	}
}

func TestAfter(t *testing.T) {
	tl := New()
	tl.Add("a", Exec, 0, 10*ms, "setup")
	tl.Add("a", Exec, 15*ms, 25*ms, "steady")
	tl.Add("b", Load, 18*ms, 30*ms, "crossing")
	cut := tl.After(20 * ms)
	if cut.Len() != 2 {
		t.Fatalf("After kept %d spans, want 2", cut.Len())
	}
	spans := cut.Spans()
	// "steady" is clamped to [0, 5ms]; "crossing" to [0, 10ms].
	for _, s := range spans {
		if s.Start != 0 {
			t.Errorf("span %q start = %v, want 0 (clamped)", s.Note, s.Start)
		}
	}
	if got := cut.BusyTime("a", Exec); got != 5*ms {
		t.Errorf("shifted busy = %v, want 5ms", got)
	}
	if got := cut.BusyTime("b", Load); got != 10*ms {
		t.Errorf("shifted load busy = %v, want 10ms", got)
	}
}

func TestRenderMinWidth(t *testing.T) {
	tl := New()
	tl.Add("a", Exec, 0, ms, "")
	out := tl.Render(1) // clamps to 10
	if !strings.Contains(out, "#") {
		t.Error("clamped render missing glyph")
	}
}
