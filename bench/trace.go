package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from the
// benchmark's own files, around calls into a layer's public functions or
// rebuilt from the stage durations a reply carries; nothing inside the
// program is instrumented.
type span struct {
	name string
	// op identifies the operation (one inference call, one query); all spans
	// of an operation share it.
	op int64
	// parent indexes the span that caused this one; -1 marks a root.
	parent     int32
	start, end int64 // ns since the tracer's base
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// at converts an instant to the tracer's clock.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.base)) }

// add records a span and returns its index for children to name as parent.
func (t *tracer) add(name string, op int64, parent int32, start, end int64) int32 {
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, op, parent, start, end})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// end closes a span that was added before its children ran.
func (t *tracer) end(i int32, end int64) {
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

// selfTimes returns each span name's self time — its duration minus the part
// its children cover — with the summed root duration and the summed self
// time, whose ratio shows whether the spans account for the enclosing time.
func (t *tracer) selfTimes() (self map[string]time.Duration, roots, total time.Duration) {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		covered[s.parent] += max(min(s.end, p.end)-max(s.start, p.start), 0)
	}
	self = make(map[string]time.Duration)
	for i, s := range t.spans {
		own := time.Duration(max(s.end-s.start-covered[i], 0))
		self[s.name] += own
		total += own
		if s.parent < 0 {
			roots += time.Duration(s.end - s.start)
		}
	}
	return self, roots, total
}

// write dumps the spans as a Chrome trace_event JSON array — the format the
// server's /debug/trace uses — with the operation as the thread, so one
// operation's spans stack on one row.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[\n")
	for i, s := range t.spans {
		sep := ",\n"
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			sep, s.name, s.op, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent)
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
