package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span stages. A query's life is stamped at five points — submission,
// window close, shard compute start, compute end, reply — which bound four
// stages:
//
//	queue    submission → window close   (waiting for the T/2 batch to form)
//	dispatch window close → compute start (shard-queue wait in the scheduler)
//	compute  compute start → compute end  (the query's shard on a worker)
//	settle   compute end → reply          (shard accounting and channel delivery)
const (
	StageQueue = iota
	StageDispatch
	StageCompute
	StageSettle
	NumStages
)

// StageNames are the stage label values, indexed by the Stage constants.
var StageNames = [NumStages]string{"queue", "dispatch", "compute", "settle"}

// TraceEntry is one sampled query span: all five stamps as nanosecond
// offsets from the tracer's base time, plus identity. Fixed-size so the
// sampling ring never allocates.
type TraceEntry struct {
	Seq     uint64  // query sequence number (all queries, sampled or not)
	Window  int64   // scheduling window the query was batched into
	Rate    float64 // slice rate the window was served at
	Enqueue int64   // stamps: ns offsets from the tracer base
	Close   int64
	Start   int64
	End     int64
	Settle  int64
}

// Tracer aggregates per-query spans into per-stage and per-rate latency
// histograms, and keeps a sampled ring of full spans for timeline dumps.
// Observe is the hot path: allocation-free, atomics only, except that every
// sampleEvery-th query takes a short mutex to copy its span into the ring.
type Tracer struct {
	base        time.Time
	rates       []float64
	stage       [NumStages]Histogram
	total       Histogram
	perRate     []Histogram
	sampleEvery uint64
	seq         atomic.Uint64

	mu     sync.Mutex
	ring   []TraceEntry
	next   int
	filled int
}

// NewTracer builds a tracer over the deployable rates. base anchors the
// trace timeline (pass the server's start instant so offsets line up with
// the policy time axis). sampleEvery ≤ 0 disables the trace ring; 1 records
// every query. ringSize ≤ 0 gets a default of 256 entries.
func NewTracer(rates []float64, base time.Time, sampleEvery, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = 256
	}
	t := &Tracer{
		base:    base,
		rates:   append([]float64(nil), rates...),
		perRate: make([]Histogram, len(rates)),
	}
	if sampleEvery > 0 {
		t.sampleEvery = uint64(sampleEvery)
		t.ring = make([]TraceEntry, ringSize)
	}
	return t
}

// rateIdx maps a rate to its histogram slot; the rate list is small, so a
// linear scan beats any allocation-bearing map on the hot path.
func (t *Tracer) rateIdx(r float64) int {
	for i, v := range t.rates {
		if v == r {
			return i
		}
	}
	return -1
}

// Observe folds one completed query span into the histograms and, on
// sampled queries, the trace ring. Safe for concurrent use; zero
// allocations.
func (t *Tracer) Observe(rate float64, window int64, enq, close, start, end, settle time.Time) {
	t.stage[StageQueue].Observe(close.Sub(enq))
	t.stage[StageDispatch].Observe(start.Sub(close))
	t.stage[StageCompute].Observe(end.Sub(start))
	t.stage[StageSettle].Observe(settle.Sub(end))
	t.total.Observe(settle.Sub(enq))
	if i := t.rateIdx(rate); i >= 0 {
		t.perRate[i].Observe(settle.Sub(enq))
	}
	seq := t.seq.Add(1) - 1
	if t.sampleEvery == 0 || seq%t.sampleEvery != 0 {
		return
	}
	t.mu.Lock()
	e := &t.ring[t.next]
	e.Seq = seq
	e.Window = window
	e.Rate = rate
	e.Enqueue = enq.Sub(t.base).Nanoseconds()
	e.Close = close.Sub(t.base).Nanoseconds()
	e.Start = start.Sub(t.base).Nanoseconds()
	e.End = end.Sub(t.base).Nanoseconds()
	e.Settle = settle.Sub(t.base).Nanoseconds()
	t.next = (t.next + 1) % len(t.ring)
	if t.filled < len(t.ring) {
		t.filled++
	}
	t.mu.Unlock()
}

// Queries returns the number of spans observed so far.
func (t *Tracer) Queries() int64 { return int64(t.seq.Load()) }

// Total snapshots the all-queries latency histogram.
func (t *Tracer) Total() HistSnapshot { return t.total.Snapshot() }

// Stage snapshots one stage histogram by Stage constant.
func (t *Tracer) Stage(i int) HistSnapshot { return t.stage[i].Snapshot() }

// Rates returns the tracer's rate list (ascending, as configured).
func (t *Tracer) Rates() []float64 { return t.rates }

// Rate snapshots the total-latency histogram of one rate; ok is false for a
// rate outside the configured list.
func (t *Tracer) Rate(r float64) (HistSnapshot, bool) {
	i := t.rateIdx(r)
	if i < 0 {
		return HistSnapshot{}, false
	}
	return t.perRate[i].Snapshot(), true
}

// SampledSpans copies the trace ring out, oldest first.
func (t *Tracer) SampledSpans() []TraceEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEntry, 0, t.filled)
	start := 0
	if t.filled == len(t.ring) {
		start = t.next
	}
	for i := 0; i < t.filled; i++ {
		out = append(out, t.ring[(start+i)%max(len(t.ring), 1)])
	}
	return out
}

// WriteTraceEvents dumps the sampled spans as a Chrome trace_event JSON
// array (load it in chrome://tracing or Perfetto): one complete ("X") event
// per stage per sampled query, with the query as the thread so its stages
// stack on one timeline row. Timestamps are microseconds from the tracer
// base.
func (t *Tracer) WriteTraceEvents(w io.Writer) error {
	spans := t.SampledSpans()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	first := true
	emit := func(name string, e TraceEntry, fromNs, toNs int64) error {
		if toNs < fromNs {
			toNs = fromNs
		}
		sep := ",\n"
		if first {
			sep, first = "", false
		}
		_, err := fmt.Fprintf(w,
			`%s{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"window":%d,"rate":%g}}`,
			sep, name, e.Seq, float64(fromNs)/1e3, float64(toNs-fromNs)/1e3, e.Window, e.Rate)
		return err
	}
	for _, e := range spans {
		stamps := [NumStages + 1]int64{e.Enqueue, e.Close, e.Start, e.End, e.Settle}
		for s := 0; s < NumStages; s++ {
			if err := emit(StageNames[s], e, stamps[s], stamps[s+1]); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
