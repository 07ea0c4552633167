package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, made from this package. Spans of
// one operation (a session, a trial, a churn event) share Op. An
// aggregate span (Calls > 0) stands for many calls of one hot leaf
// function under the same parent, with their summed time in Busy.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Calls  int64  `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

func (s *span) dur() int64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer keeps one goroutine's spans in memory. Spans nest through a
// stack of open spans; a goroutine that needs its own spans gets its
// own tracer.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	more  []*tracer // tracers of other goroutines, merged on output
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// fork returns a tracer for another goroutine, sharing this one's epoch
// so the written spans line up.
func (t *tracer) fork() *tracer {
	c := &tracer{epoch: t.epoch}
	t.more = append(t.more, c)
	return c
}

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string, op int64) int {
	t.spans = append(t.spans, span{Name: name, Start: t.at(time.Now()), Parent: t.parent(), Op: op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and
// returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.spans[id].End = t.at(time.Now())
	t.open = t.open[:len(t.open)-1]
	return time.Duration(t.spans[id].dur())
}

// add records an already-timed call under the innermost open span.
func (t *tracer) add(name string, start, end time.Time, op int64) {
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: t.parent(), Op: op})
}

// aggregate opens an aggregate span for a hot leaf under the innermost
// open span; count adds calls to it.
func (t *tracer) aggregate(name string) int {
	now := t.at(time.Now())
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: t.parent(), Op: -1})
	return len(t.spans) - 1
}

func (t *tracer) count(id int, d time.Duration) {
	s := &t.spans[id]
	s.Calls++
	s.Busy += int64(d)
	s.End = t.at(time.Now())
}

// layerOf maps a span name to its layer, the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time in milliseconds: a span's
// duration minus the time its child spans cover, over this tracer and
// every forked one.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for _, tt := range append([]*tracer{t}, t.more...) {
		child := make([]int64, len(tt.spans))
		for i := range tt.spans {
			if p := tt.spans[i].Parent; p >= 0 {
				child[p] += tt.spans[i].dur()
			}
		}
		for i := range tt.spans {
			out[layerOf(tt.spans[i].Name)] += float64(tt.spans[i].dur()-child[i]) / 1e6
		}
	}
	return out
}

// numSpans counts spans over this tracer and every forked one.
func (t *tracer) numSpans() int {
	n := len(t.spans)
	for _, c := range t.more {
		n += len(c.spans)
	}
	return n
}

// write stores every span as one JSON line, tagged with the index of the
// tracer (goroutine) that recorded it.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for g, tt := range append([]*tracer{t}, t.more...) {
		for _, s := range tt.spans {
			if err := enc.Encode(struct {
				G int `json:"g"`
				span
			}{g, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers are the repository's modules as the trace names them; bench is
// the benchmark's own code between calls.
var layers = []string{"mc", "dining", "machine", "canon", "adversary", "partition",
	"core", "sysdsl", "selection", "server", "http", "bench"}

// finishTrace reports the self time of every layer of the traced phase,
// whose root span is root, and the tracing overhead: the traced
// end-to-end time of the workload's headline operation against the
// untraced one.
func finishTrace(r *report, t *tracer, root int, tracedMs, untracedMs float64) {
	self := t.selfTimes()
	for _, l := range layers {
		r.layer(l+".self_ms", self[l])
	}
	r.layer("trace.wall_ms", float64(t.spans[root].dur())/1e6)
	r.layer("trace.spans", float64(t.numSpans()))
	r.layer("trace.traced_ms", tracedMs)
	r.layer("trace.untraced_ms", untracedMs)
	r.layer("trace.overhead_ms", tracedMs-untracedMs)
}
