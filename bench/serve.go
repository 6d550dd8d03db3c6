package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"modelslicing/internal/nn"
	"modelslicing/internal/server"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// phase is one step of an open-loop arrival staircase.
type phase struct {
	name string
	qps  float64
	// share of the stretch's duration, relative to the other phases.
	share float64
	// overload phases feed only per-layer metrics and run only when traced.
	overload bool
}

// serveKind fixes one open-loop workload.
type serveKind struct {
	name       string
	model      func(seed int64) *nn.Sequential
	shape      []int
	slo        time.Duration
	phases     []phase
	checkEvery int // one reply in this many is kept for the output check
	traceEvery int // one query in this many leaves spans in the traced run
}

// serve_vgg: compute dominates, so the Equation-3 policy and the backlog
// model decide everything. base → mid → peak is the paper's 10× swing; over
// is past what the lowest rate can serve, so the server must refuse.
var serveVGG = serveKind{
	name: "serve_vgg", model: newVGG, shape: vggShape, slo: 50 * time.Millisecond,
	phases: []phase{
		{"base", 400, 4, false}, {"mid", 1500, 4, false}, {"peak", 4000, 4, false},
		{"over", 12000, 3, true},
	},
	checkEvery: 64, traceEvery: 8,
}

// serve_mlp: compute is ~1 µs a sample, so the per-query machinery — a
// channel per query, window close, shard dispatch, settle — is the whole cost.
var serveMLP = serveKind{
	name: "serve_mlp", model: newMLP, shape: mlpShape, slo: 50 * time.Millisecond,
	phases:     []phase{{"steady", 50000, 1, false}},
	checkEvery: 4096, traceEvery: 128,
}

type serveInst struct {
	kind   serveKind
	srv    *server.Server
	ref    *slicing.Shared // the direct path, for checks and slice_eff
	arena  *tensor.Arena
	inputs []*tensor.Tensor
	rng    *rand.Rand
	kept   []reply
}

// reply is an answer kept for the output check.
type reply struct {
	input int
	rate  float64
	out   []float64
}

func bootServe(e env, k serveKind) (instance, error) {
	model := k.model(e.seed)
	srv, err := server.New(server.Config{Model: model, Rates: rates, InputShape: k.shape, SLO: k.slo})
	if err != nil {
		return nil, err
	}
	in := &serveInst{
		kind: k, srv: srv, ref: slicing.NewShared(model, rates), arena: tensor.NewArena(),
		rng:    rand.New(rand.NewSource(e.seed + 2)),
		inputs: randomTensors(rand.New(rand.NewSource(e.seed+1)), 256, k.shape...),
	}
	if _, err := srv.Predict(in.inputs[0]); err != nil {
		srv.Stop()
		return nil, fmt.Errorf("first query: %w", err)
	}
	return in, nil
}

func (in *serveInst) close() { in.srv.Stop() }

func (in *serveInst) sliceEff() float64 { return directSliceEff(in.ref, in.kind.shape, in.arena) }

// openRun is one open-loop stretch: the seeded schedule and, per query, what
// the generator and the collector recorded.
type openRun struct {
	phases []phase
	// due[i] is when query i is due, as an offset from the start; ends[p] is
	// the index one past phase p's last query and bounds[p] when p ends.
	due    []time.Duration
	ends   []int
	bounds []time.Duration

	lat    []float64 // ms from the due instant; -1 refused, -2 answered with an error
	late   []float32 // ms the generator submitted after the due instant
	rate   []float32
	submit []float32 // µs inside Submit; this and the stage columns exist only when traced
	// stage durations from the reply, µs
	queued, dispatch, compute, settle []float32
}

// schedule draws seeded Poisson arrivals for the phases over d.
func schedule(rng *rand.Rand, phases []phase, d time.Duration) *openRun {
	o := &openRun{phases: phases}
	total := 0.0
	for _, p := range phases {
		total += p.share
	}
	t0 := 0.0
	for _, p := range phases {
		t1 := t0 + d.Seconds()*p.share/total
		for t := t0 + rng.ExpFloat64()/p.qps; t < t1; t += rng.ExpFloat64() / p.qps {
			o.due = append(o.due, time.Duration(t*float64(time.Second)))
		}
		o.ends = append(o.ends, len(o.due))
		o.bounds = append(o.bounds, time.Duration(t1*float64(time.Second)))
		t0 = t1
	}
	return o
}

// phaseRange returns phase p's query indices [first, last) and its start time.
func (o *openRun) phaseRange(p int) (first, last int, from time.Duration) {
	if p > 0 {
		first, from = o.ends[p-1], o.bounds[p-1]
	}
	return first, o.ends[p], from
}

type pending struct {
	ch <-chan server.Result
	i  int
}

func (in *serveInst) run(d time.Duration, tr *tracer) *segment {
	phases := in.kind.phases
	if tr == nil {
		for len(phases) > 0 && phases[len(phases)-1].overload {
			phases = phases[:len(phases)-1]
		}
	}
	o := schedule(in.rng, phases, d)
	n := len(o.due)
	o.lat, o.late, o.rate = make([]float64, n), make([]float32, n), make([]float32, n)
	if tr != nil {
		o.submit, o.queued = make([]float32, n), make([]float32, n)
		o.dispatch, o.compute, o.settle = make([]float32, n), make([]float32, n), make([]float32, n)
	}
	// e2eEnd is the index one past the last query the end-to-end metrics
	// cover; CPU time and the heap counters are read as the generator
	// crosses it.
	e2eEnd, e2eWall := n, d
	for p, ph := range phases {
		if ph.overload {
			e2eEnd, _, e2eWall = o.phaseRange(p)
			break
		}
	}
	stats0 := in.srv.Stats()
	n0, b0 := mallocs()

	// The buffer holds every query in flight between generator and
	// collector — at most rate × (SLO + backlog), far below 1<<16 — so the
	// generator never waits on the collector.
	queue := make(chan pending, 1<<16)
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() { // collector: drains reply channels in submit order
		defer wg.Done()
		for p := range queue {
			if p.ch == nil {
				o.lat[p.i] = -1
				continue
			}
			res := <-p.ch
			done := time.Since(start)
			if res.Err != nil {
				o.lat[p.i] = -2
				continue
			}
			o.lat[p.i] = ms(done - o.due[p.i])
			o.rate[p.i] = float32(res.Rate)
			if p.i%in.kind.checkEvery == 0 {
				in.kept = append(in.kept, reply{p.i % len(in.inputs), res.Rate, append([]float64(nil), res.Output.Data...)})
			}
			if tr != nil {
				o.queued[p.i], o.dispatch[p.i] = float32(us(res.Queued)), float32(us(res.Dispatch))
				o.compute[p.i], o.settle[p.i] = float32(us(res.Compute)), float32(us(res.Settle))
				if p.i%in.kind.traceEvery == 0 {
					o.querySpans(tr, p.i, tr.at(start), done, res)
				}
			}
			// res goes out of scope here: the reply tensor is released as it
			// is collected and never inflates peak_rss_mb.
		}
	}()

	seg := newSegment(1)
	cpu0 := cpuTime()
	endOfE2E := func() {
		seg.cpu = cpuTime() - cpu0
		n1, b1 := mallocs()
		seg.mallocs, seg.allocBytes = n1-n0, b1-b0
	}
	for i := 0; i < n; i++ {
		if i == e2eEnd {
			endOfE2E()
		}
		now := time.Since(start)
		if wait := o.due[i] - now; wait > 0 {
			time.Sleep(wait)
			now = time.Since(start)
		}
		ch, err := in.srv.Submit(in.inputs[i%len(in.inputs)])
		o.late[i] = float32(ms(now - o.due[i]))
		if tr != nil {
			o.submit[i] = float32(us(time.Since(start) - now))
		}
		if err != nil {
			ch = nil
		}
		queue <- pending{ch, i}
	}
	close(queue)
	wg.Wait()
	if e2eEnd == n {
		endOfE2E()
	}
	seg.wall, seg.attempted = e2eWall, int64(e2eEnd)
	for i := 0; i < e2eEnd; i++ {
		if o.lat[i] < 0 {
			if o.lat[i] == -1 {
				seg.refused++
			}
			continue
		}
		seg.answered++
		seg.rateSum += float64(o.rate[i])
		seg.latMs = append(seg.latMs, o.lat[i])
		if o.lat[i] <= ms(in.kind.slo) {
			seg.ok++
		}
	}
	o.audit(seg)
	if tr != nil {
		seg.layer["server.allocs_per_query"] = ratio(float64(seg.mallocs), float64(e2eEnd))
		seg.layer["server.alloc_bytes_per_query"] = ratio(float64(seg.allocBytes), float64(e2eEnd))
		o.stageMetrics(seg.layer)
		o.windowMetrics(seg.layer, in.srv.Stats().SampleTimes)
		o.phaseMetrics(seg.layer, ms(in.kind.slo))
		statsMetrics(seg.layer, stats0, in.srv.Stats())
	}
	return seg
}

// audit is the generator's own account: how late it submitted, and the share
// of each phase's scheduled queries it offered before the phase ended. A
// generator more than 5 % behind did not apply the load it claims.
func (o *openRun) audit(seg *segment) {
	late := make([]float64, len(o.late))
	for i, l := range o.late {
		late[i] = float64(l)
	}
	seg.layer["gen.late_ms_p99"] = quantile(late, 0.99)
	worst := 1.0
	for p := range o.phases {
		first, last, _ := o.phaseRange(p)
		offered := 0
		for i := first; i < last; i++ {
			if o.due[i]+time.Duration(float64(o.late[i])*float64(time.Millisecond)) <= o.bounds[p] {
				offered++
			}
		}
		if last > first {
			worst = min(worst, float64(offered)/float64(last-first))
		}
	}
	seg.layer["gen.offered_over_scheduled"] = worst
	if worst < 0.95 {
		seg.invalid = fmt.Sprintf("generator offered only %.1f%% of a phase's scheduled queries in time", 100*worst)
	}
}

// querySpans rebuilds query i's spans: the root runs from the due instant to
// the collected reply; server.submit is the timed Submit call; the four
// server stages are laid end to end backwards from the reply, as the reply's
// own stage durations give them.
func (o *openRun) querySpans(tr *tracer, i int, base int64, done time.Duration, res server.Result) {
	op := int64(i)
	root := tr.add("query", op, -1, base+int64(o.due[i]), base+int64(done))
	submitAt := base + int64(o.due[i]) + int64(float64(o.late[i])*1e6)
	submitEnd := submitAt + int64(float64(o.submit[i])*1e3)
	tr.add("server.submit", op, root, submitAt, submitEnd)
	end := base + int64(done)
	for _, s := range []struct {
		name string
		d    time.Duration
	}{{"server.settle", res.Settle}, {"server.compute", res.Compute}, {"server.dispatch", res.Dispatch}, {"server.queue", res.Queued}} {
		from := max(end-int64(s.d), submitEnd)
		tr.add(s.name, op, root, from, end)
		end = from
	}
}

// stageMetrics summarises the per-query stage columns of a traced stretch.
func (o *openRun) stageMetrics(m map[string]float64) {
	col := func(src []float32, scale float64) []float64 {
		out := make([]float64, 0, len(src))
		for i, v := range src {
			if o.lat[i] >= 0 {
				out = append(out, float64(v)*scale)
			}
		}
		return out
	}
	m["server.submit_us_p50"] = quantile(col(o.submit, 1), 0.5)
	m["server.queue_ms_p50"] = quantile(col(o.queued, 1e-3), 0.5)
	disp, settle := col(o.dispatch, 1), col(o.settle, 1)
	over := make([]float64, len(disp))
	for i := range disp {
		over[i] = disp[i] + settle[i]
	}
	m["server.overhead_us_p50"] = quantile(over, 0.5)
	m["server.dispatch_us_p50"], m["server.dispatch_us_p99"] = quantile(disp, 0.5), quantile(disp, 0.99)
	m["server.settle_us_p50"], m["server.settle_us_p99"] = quantile(settle, 0.5), quantile(settle, 0.99)
}

// statsMetrics reads the server's own counters over the stretch.
func statsMetrics(m map[string]float64, s0, s1 server.Stats) {
	processed := float64(s1.Processed - s0.Processed)
	m["server.batch_size_mean"] = ratio(processed, float64(s1.Batches-s0.Batches))
	m["server.degraded_batches"] = float64(s1.DegradedBatches - s0.DegradedBatches)
	m["server.infeasible_batches"] = float64(s1.InfeasibleBatches - s0.InfeasibleBatches)
	m["server.rejected"] = float64(s1.Rejected - s0.Rejected)
	m["server.utilization"] = s1.Utilization
	m["server.peak_backlog_windows"] = float64(s1.PeakBacklogWindows)
	for _, r := range rates {
		m["server.rate_share_"+rateTag(r)] = ratio(float64(s1.RateHist[r]-s0.RateHist[r]), processed)
	}
}

// windowMetrics rebuilds the windows from outside — consecutive answered
// queries whose window closed at the same instant (submission + queue wait)
// at the same rate — and sets the server's self-model t(r) against them. A
// window's batch time runs from its first shard's compute start to its last
// shard's compute end; its worker time is the sum of its shards' compute
// times, a shard being the queries that report the same one.
func (o *openRun) windowMetrics(m map[string]float64, model map[float64]float64) {
	var (
		rate        float32
		n           int
		first, last float64 // µs after window close
		shards      = map[float32]bool{}
		prev        = math.Inf(-1)
		workerUs    float64
		answered    int
		measured    = map[float32][]float64{} // per-sample batch time by rate, µs
	)
	flush := func() {
		for c := range shards {
			workerUs += float64(c)
		}
		if n >= 32 { // the calibrator ignores smaller batches too
			measured[rate] = append(measured[rate], (last-first)/float64(n))
		}
		answered += n
		n, first, last = 0, math.Inf(1), 0
		clear(shards)
	}
	for i := range o.lat {
		if o.lat[i] < 0 {
			continue
		}
		closed := us(o.due[i]) + float64(o.late[i])*1e3 + float64(o.queued[i])
		if closed-prev > 2000 || rate != o.rate[i] { // windows are SLO/2 apart
			flush()
			rate = o.rate[i]
		}
		n++
		first = min(first, float64(o.dispatch[i]))
		last = max(last, float64(o.dispatch[i])+float64(o.compute[i]))
		shards[o.compute[i]] = true
		prev = closed
	}
	flush()
	m["server.compute_us_per_query"] = ratio(workerUs, float64(answered))
	for _, r := range []float64{rates.Min(), 1} {
		tag := rateTag(r)
		m["serving.t_model_us_"+tag] = model[r] * 1e6
		m["serving.t_model_over_measured_"+tag] = ratio(model[r]*1e6, quantile(measured[float32(r)], 0.5))
	}
}

// phaseMetrics reports each phase on its own: deadline share and mean rate,
// and for the overload phase what was shed and what still got through in time.
func (o *openRun) phaseMetrics(m map[string]float64, sloMs float64) {
	for p, ph := range o.phases {
		first, last, from := o.phaseRange(p)
		var ok, answered, refused int
		rateSum := 0.0
		for i := first; i < last; i++ {
			switch {
			case o.lat[i] == -1:
				refused++
			case o.lat[i] >= 0:
				answered++
				rateSum += float64(o.rate[i])
				if o.lat[i] <= sloMs {
					ok++
				}
			}
		}
		sent := float64(last - first)
		m["server."+ph.name+".slo_ok_frac"] = ratio(float64(ok), sent)
		if ph.overload {
			m["server."+ph.name+".goodput_qps"] = ratio(float64(ok), (o.bounds[p] - from).Seconds())
			m["server."+ph.name+".shed_frac"] = ratio(float64(refused), sent)
		} else {
			m["server."+ph.name+".mean_rate"] = ratio(rateSum, float64(answered))
		}
	}
}

// check compares the kept replies with a direct Shared.Infer of the same
// input at the rate the server reported: same values, same winning class.
func (in *serveInst) check() (checked, bad int) {
	for _, k := range in.kept {
		if !sameAnswer(in.ref, in.arena, in.inputs[k.input], k.rate, k.out, tensor.FromSlice(k.out, len(k.out)).ArgMax()) {
			bad++
		}
		checked++
	}
	in.kept = in.kept[:0]
	return checked, bad
}

// sameAnswer reports whether out (with its claimed argmax) is what the direct
// path computes for the single sample x at rate r.
func sameAnswer(ref *slicing.Shared, arena *tensor.Arena, x *tensor.Tensor, r float64, out []float64, argmax int) bool {
	if _, err := rates.Index(r); err != nil {
		return false
	}
	batch := tensor.FromSlice(x.Data, append([]int{1}, x.Shape...)...)
	want := ref.Infer(r, batch, arena)
	defer arena.Reset()
	return maxAbsDiff(out, want.Data) <= checkTol && want.ArgMax() == argmax
}
