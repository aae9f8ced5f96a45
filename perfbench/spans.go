package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"ladm/internal/simtel"
)

// span is one timed call of the traced run: a replayed layer call, an
// HTTP round trip, or a worker stage stitched in from its timeline.
type span struct {
	name       string
	start, end time.Time
	parent     int    // index of the enclosing span, -1 for a root
	reqID      string // the operation the span belongs to
	track      int    // client goroutine, one Chrome track each
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps the traced run's spans in memory until the run ends.
// A nil recorder records nothing, which is how untraced runs stay bare.
type recorder struct {
	mu    sync.Mutex
	spans []span
	sizes []float64 // replayed response encodings, bytes
}

// add stores a finished span and returns its index.
func (r *recorder) add(sp span) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, sp)
	return len(r.spans) - 1
}

// timed runs fn inside a span named name and returns its duration.
func (r *recorder) timed(name, reqID string, parent, track int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(span{name: name, start: start, end: end, parent: parent, reqID: reqID, track: track})
	return end.Sub(start)
}

// open starts a parent span; close it with finish.
func (r *recorder) open(name, reqID string, track int) int {
	now := time.Now()
	return r.add(span{name: name, start: now, end: now, parent: -1, reqID: reqID, track: track})
}

func (r *recorder) finish(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].end = time.Now()
	r.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover: where the time of each layer itself went.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return selfTimes(r.spans)
}

func selfTimes(spans []span) map[string]time.Duration {
	covered := make([]time.Duration, len(spans))
	for _, sp := range spans {
		if sp.parent < 0 {
			continue
		}
		p := spans[sp.parent]
		start, end := sp.start, sp.end
		if start.Before(p.start) {
			start = p.start
		}
		if end.After(p.end) {
			end = p.end
		}
		if end.After(start) {
			covered[sp.parent] += end.Sub(start)
		}
	}
	out := map[string]time.Duration{}
	for i, sp := range spans {
		self := sp.dur() - covered[i]
		if self < 0 {
			self = 0
		}
		out[sp.name] += self
	}
	return out
}

// writeSelfTimes prints the self-time table, largest first.
func (r *recorder) writeSelfTimes(w io.Writer) {
	st := r.selfTimes()
	names := make([]string, 0, len(st))
	var total time.Duration
	for n, d := range st {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	fmt.Fprintln(w, "self time per span name (traced run):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12.3f ms %6.2f%%\n", n, ms(st[n]), 100*float64(st[n])/float64(total))
	}
}

// writeChrome writes every span as one Chrome/Perfetto trace file.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].start
	for _, sp := range spans {
		if sp.start.Before(t0) {
			t0 = sp.start
		}
	}
	events := make([]simtel.Event, 0, len(spans))
	for i, sp := range spans {
		args := map[string]any{"span": i, "request_id": sp.reqID}
		if sp.parent >= 0 {
			args["parent"] = sp.parent
		}
		events = append(events, simtel.Event{
			Name: sp.name, Cat: "perfbench", Ph: "X",
			TS:  us(sp.start.Sub(t0)),
			Dur: us(sp.dur()),
			TID: sp.track, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := simtel.WriteTraceEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations (in unit) of every span named name.
func (r *recorder) durations(name string, unit time.Duration) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, sp := range r.spans {
		if sp.name == name {
			out = append(out, float64(sp.dur())/float64(unit))
		}
	}
	return out
}

// medianOf is the median duration of the spans named name, in unit, or
// 0 when the workload never entered that layer.
func (r *recorder) medianOf(name string, unit time.Duration) float64 {
	return median(r.durations(name, unit))
}

// noteSize records one replayed response encoding's length.
func (r *recorder) noteSize(n int) {
	r.mu.Lock()
	r.sizes = append(r.sizes, float64(n))
	r.mu.Unlock()
}

// parentGaps returns, for every span named child whose parent is named
// parent, how much longer the parent took (in unit): the time around
// the child that the child does not explain.
func (r *recorder) parentGaps(parent, child string, unit time.Duration) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, sp := range r.spans {
		if sp.name == child && sp.parent >= 0 && r.spans[sp.parent].name == parent {
			out = append(out, float64(r.spans[sp.parent].dur()-sp.dur())/float64(unit))
		}
	}
	return out
}
