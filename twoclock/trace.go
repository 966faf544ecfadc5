package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// reconcileTol is the stated tolerance of the span checks. Within every
// request, the layer self times must sum to the root span's duration to
// within this share of it. Self time is a span's duration minus the
// part of its interval that its children cover, so this sum only breaks
// for children that leak outside their parent or overlap each other.
// The root spans are therefore also held against a clock they do not
// define: together they must last as long as the requests they cover
// did by the benchmark's own time measurement, to within the same share.
const reconcileTol = 0.01

// maxSpansWritten caps the spans file; statistics use every span.
const maxSpansWritten = 100000

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started; parent is -1 for a request's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"request"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// chunkBits sets the size of the tracer's fixed blocks of spans. Spans
// are appended to blocks that never move, so recording one never copies
// the ones before it while other goroutines wait on the lock.
const chunkBits = 12

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no checks.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	chunks [][]span
	n      int32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// at returns span id; the caller holds mu.
func (t *tracer) at(id int32) *span { return &t.chunks[id>>chunkBits][id&(1<<chunkBits-1)] }

// all copies every span recorded so far, in id order.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name, layer string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := t.n
	if id&(1<<chunkBits-1) == 0 {
		t.chunks = append(t.chunks, make([]span, 0, 1<<chunkBits))
	}
	c := &t.chunks[len(t.chunks)-1]
	*c = append(*c, span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, Start: start})
	t.n++
	t.mu.Unlock()
	return id
}

// finish closes span id at the current time.
func (t *tracer) finish(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.at(id).End = end
	t.mu.Unlock()
}

// finishAt closes span id at an instant taken earlier with now().
func (t *tracer) finishAt(id int32, end int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.at(id).End = end
	t.mu.Unlock()
}

// traceSummary is the per-layer breakdown of all recorded requests.
type traceSummary struct {
	Requests  int              `json:"requests"`
	Spans     int              `json:"spans"`
	RootNs    int64            `json:"root_ns"`
	SelfNs    map[string]int64 `json:"self_ns"`
	MaxErr    float64          `json:"max_reconcile_err"`
	ClockNs   int64            `json:"clock_ns"`
	ClockErr  float64          `json:"clock_err"`
	Tolerance float64          `json:"tolerance"`
	Unclosed  int              `json:"unclosed"`
}

// summarize computes every layer's self time and checks, request by
// request, that the self times add up to the root's duration, and that
// the roots add up to clock, the measured time of the traced requests.
func (t *tracer) summarize(clock time.Duration) traceSummary {
	spans := t.all()
	sum := traceSummary{Spans: len(spans), SelfNs: map[string]int64{}, Tolerance: reconcileTol}
	kids := make(map[int32][]int32)
	for _, s := range spans {
		if s.End < s.Start {
			sum.Unclosed++
		}
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	var self func(id int32) int64
	self = func(id int32) int64 {
		s := spans[id]
		type iv struct{ a, b int64 }
		var ivs []iv
		var total int64
		for _, c := range kids[id] {
			cs := spans[c]
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
			total += self(c)
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, curA, curB int64
		for i, v := range ivs {
			switch {
			case i == 0:
				curA, curB = v.a, v.b
			case v.a > curB:
				covered += curB - curA
				curA, curB = v.a, v.b
			case v.b > curB:
				curB = v.b
			}
		}
		covered += curB - curA
		own := (s.End - s.Start) - covered
		sum.SelfNs[s.Layer] += own
		return total + own
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		sum.Requests++
		dur := s.End - s.Start
		sum.RootNs += dur
		got := self(s.ID)
		if dur > 0 {
			if e := float64(abs64(got-dur)) / float64(dur); e > sum.MaxErr {
				sum.MaxErr = e
			}
		}
	}
	sum.ClockNs = int64(clock)
	sum.ClockErr = ratio(float64(abs64(sum.RootNs-sum.ClockNs)), float64(sum.ClockNs))
	return sum
}

// reconciles reports whether both span checks hold.
func (s traceSummary) reconciles() bool {
	return s.MaxErr <= reconcileTol && s.ClockErr <= reconcileTol && s.Unclosed == 0
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// write stores the summary and (up to maxSpansWritten of) the spans as
// one JSON document.
func (t *tracer) write(path string, sum traceSummary, extra map[string]any) error {
	spans := t.all()
	doc := map[string]any{"summary": sum, "spans": spans[:min(len(spans), maxSpansWritten)], "spans_total": len(spans)}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

// traceLayers are the layers spans are filed under: the benchmark's own
// request loop, the R/3 reports, the engine (the power steps), the wire
// client and the server side of a connection.
var traceLayers = []string{"bench", "r3", "engine", "client", "server"}

// putTrace reports the trace's layer shares, its reconciliation and the
// tracing overhead: traced minus untraced pass time of the same run.
func putTrace(put func(string, float64, string), sum traceSummary, untracedPassMS, tracedPassMS, simErr float64) {
	for _, l := range traceLayers {
		put("self_frac."+l, ratio(float64(sum.SelfNs[l]), float64(sum.RootNs)), "ratio")
	}
	put("trace.reconcile_err", max(sum.MaxErr, sum.ClockErr), "ratio")
	put("trace.sim_reconcile_err", simErr, "ratio")
	put("trace.overhead_pass_ms", tracedPassMS-untracedPassMS, "ms")
	put("trace.overhead_frac", ratio(tracedPassMS-untracedPassMS, untracedPassMS), "ratio")
}
