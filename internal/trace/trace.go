// Package trace records execution timelines from the simulated
// multi-VPU pipeline — the events behind Fig. 4 of the paper (fork
// threads, load inputs, run VPU kernels, read output, join threads) —
// and renders them as text or CSV for inspection.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind labels a timeline span with the Fig. 4 vocabulary.
type Kind string

// Span kinds used by the NCSw scheduler and device models.
const (
	// Fork marks a worker being spawned.
	Fork Kind = "fork"
	// Load is the host -> device input transfer plus queueing.
	Load Kind = "load"
	// Exec is VPU kernels running.
	Exec Kind = "exec"
	// Read is result retrieval from the device.
	Read Kind = "read"
	// Join marks a worker being joined.
	Join Kind = "join"
	// Compute is host-side batch compute (CPU/GPU).
	Compute Kind = "compute"
	// Fault is a fault injection (instant, or a slowdown window).
	Fault Kind = "fault"
	// Down is a detected outage: detection to rejoin/abandonment.
	Down Kind = "down"
)

// Span is one labelled interval on one track (a device or thread).
type Span struct {
	Track string
	Kind  Kind
	Start time.Duration
	End   time.Duration
	Note  string
}

// Duration returns End - Start.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Timeline accumulates spans. The zero value is ready to use. A nil
// *Timeline is the disabled timeline for recording: Add, Enabled and
// Len accept a nil receiver (Add records nothing), so schedulers
// record unconditionally without paying for storage; the other
// methods need a timeline. It is not safe for concurrent use; the
// simulation kernel is single-threaded, so recording needs no locks.
type Timeline struct {
	spans []Span
}

// New returns an enabled timeline.
func New() *Timeline { return &Timeline{} }

// Enabled reports whether the timeline stores spans (false for nil).
func (t *Timeline) Enabled() bool { return t != nil }

// Add records a span; on a nil timeline it records nothing. Inverted
// spans (End < Start) panic either way: virtual time cannot run
// backwards, so they indicate a scheduler bug.
func (t *Timeline) Add(track string, kind Kind, start, end time.Duration, note string) {
	if end < start {
		panic(fmt.Sprintf("trace: inverted span on %s: %v > %v", track, start, end))
	}
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Track: track, Kind: kind, Start: start, End: end, Note: note})
}

// Len returns the number of stored spans (0 for nil).
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns a copy of the stored spans, ordered by start time
// (stable on insertion order for ties).
func (t *Timeline) Spans() []Span {
	out := append([]Span(nil), t.spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Tracks returns the distinct track names in first-seen order.
func (t *Timeline) Tracks() []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range t.spans {
		if !seen[s.Track] {
			seen[s.Track] = true
			names = append(names, s.Track)
		}
	}
	return names
}

// BusyTime sums span durations per track and kind.
func (t *Timeline) BusyTime(track string, kind Kind) time.Duration {
	var total time.Duration
	for _, s := range t.spans {
		if s.Track == track && s.Kind == kind {
			total += s.Duration()
		}
	}
	return total
}

// Overlap returns the total time during which at least two tracks had
// an Exec span running simultaneously — the quantity Fig. 4 is about:
// loads on one stick overlapping execution on the others.
func (t *Timeline) Overlap(kind Kind) time.Duration {
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, s := range t.spans {
		if s.Kind != kind {
			continue
		}
		edges = append(edges, edge{s.Start, +1}, edge{s.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // process ends before starts at ties
	})
	var overlap time.Duration
	depth := 0
	var since time.Duration
	for _, e := range edges {
		if depth >= 2 {
			overlap += e.at - since
		}
		depth += e.delta
		since = e.at
	}
	return overlap
}

// After returns a new timeline containing only the spans that end
// after cut, with every timestamp shifted so cut becomes zero (span
// starts clamp at zero). It isolates the steady-state window from
// setup work such as firmware boot.
func (t *Timeline) After(cut time.Duration) *Timeline {
	out := New()
	for _, s := range t.spans {
		if s.End <= cut {
			continue
		}
		start := s.Start - cut
		if start < 0 {
			start = 0
		}
		out.Add(s.Track, s.Kind, start, s.End-cut, s.Note)
	}
	return out
}

// CSV renders the timeline as "track,kind,start_us,end_us,note" rows.
func (t *Timeline) CSV() string {
	var b strings.Builder
	b.WriteString("track,kind,start_us,end_us,note\n")
	for _, s := range t.Spans() {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%s\n",
			s.Track, s.Kind, s.Start.Microseconds(), s.End.Microseconds(), s.Note)
	}
	return b.String()
}

// Render draws an ASCII timeline with one row per track, width columns
// wide — the textual Fig. 4. Each kind paints a different rune.
func (t *Timeline) Render(width int) string {
	if width < 10 {
		width = 10
	}
	spans := t.Spans()
	if len(spans) == 0 {
		return "(empty timeline)\n"
	}
	var maxEnd time.Duration
	for _, s := range spans {
		if s.End > maxEnd {
			maxEnd = s.End
		}
	}
	if maxEnd == 0 {
		maxEnd = 1
	}
	glyph := map[Kind]byte{
		Fork: 'F', Load: 'L', Exec: '#', Read: 'R', Join: 'J', Compute: 'C',
		Fault: '!', Down: 'X',
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline 0 .. %v (1 col = %v)\n", maxEnd, maxEnd/time.Duration(width))
	for _, track := range t.Tracks() {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		// Two passes: fault-injection marks paint last so an overlapping
		// exec/down span cannot hide the instant a fault fired.
		for _, faultPass := range []bool{false, true} {
			for _, s := range spans {
				if s.Track != track || (s.Kind == Fault) != faultPass {
					continue
				}
				g, ok := glyph[s.Kind]
				if !ok {
					g = '?'
				}
				i0 := int(int64(s.Start) * int64(width) / int64(maxEnd))
				if i0 >= width {
					i0 = width - 1 // a span starting exactly at maxEnd
				}
				i1 := int(int64(s.End) * int64(width) / int64(maxEnd))
				if i1 >= width {
					i1 = width - 1
				}
				if s.Kind == Fault && s.Start == s.End {
					i1 = i0 // point fault: a single mark
				}
				for i := i0; i <= i1; i++ {
					row[i] = g
				}
			}
		}
		fmt.Fprintf(&b, "%-12s |%s|\n", track, row)
	}
	b.WriteString("legend: F=fork L=load #=exec R=read J=join C=compute !=fault X=down\n")
	return b.String()
}
