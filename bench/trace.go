package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds since
// the tracer started. Lane separates goroutines whose spans must not nest
// into each other: -1 is the server / round loop, i >= 0 is TCP client i.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the trace, -1 for a root
	Round  int    `json:"round"`
	Lane   int    `json:"client"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer collects spans in memory; nothing is written until flush. A nil
// *tracer is the untraced run: every method is a no-op, so call sites need
// no branches.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the tracer clock; 0 when untraced.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// add records the span [start, now) and returns its end.
func (t *tracer) add(name string, start int64, round, lane int) int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	t.put(span{Name: name, Start: start, End: end, Parent: -1, Round: round, Lane: lane})
	return end
}

func (t *tracer) put(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// nest orders the spans by lane and start time and gives each span the
// smallest span of its lane that encloses it as parent.
func nest(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var stack []int
	for i := range spans {
		s := &spans[i]
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Lane == s.Lane && top.Start <= s.Start && s.End <= top.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent = -1
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover (overlapping children are counted once), in ms. spans must
// be nested.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		covered, reach := int64(0), s.Start
		// Children are in start order because nest sorted the trace.
		for _, k := range kids[i] {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// flush writes the trace as one JSON object per line.
func flushTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSet answers the questions the per-layer table asks of a nested trace,
// restricted to measured rounds (round > warmup).
type spanSet struct {
	spans  []span
	self   []float64
	warmup int
}

func newSpanSet(spans []span, warmup int) spanSet {
	nest(spans)
	return spanSet{spans: spans, self: selfTimes(spans), warmup: warmup}
}

// durs returns the durations (ms) of every measured span called name.
func (ss spanSet) durs(name string) []float64 {
	var out []float64
	for _, s := range ss.spans {
		if s.Name == name && s.Round > ss.warmup {
			out = append(out, s.ms())
		}
	}
	return out
}

// total is the summed duration (ms) of the measured spans called name.
func (ss spanSet) total(name string) float64 { return sum(ss.durs(name)) }

// selfTotal is the summed self time (ms) of the measured spans called name.
func (ss spanSet) selfTotal(name string) float64 {
	var t float64
	for i, s := range ss.spans {
		if s.Name == name && s.Round > ss.warmup {
			t += ss.self[i]
		}
	}
	return t
}
