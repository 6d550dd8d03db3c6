package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"modelslicing/internal/fleet"
	"modelslicing/internal/persist"
	"modelslicing/internal/server"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

// httpSLO is short so that a handful of closed-loop connections time the
// server and the wire, not the T/2 batching tick: at 50 ms the tick alone
// would be 25 ms of every round trip.
const httpSLO = 10 * time.Millisecond

// replica is one model server booted the way msserver boots: checkpoint
// mapped and bound, engine started, HTTP API on a loopback listener.
type replica struct {
	ckpt *persist.Checkpoint
	srv  *server.Server
	web  *http.Server
	url  string
}

func (r *replica) close() {
	// Close, not Shutdown: every request was ours and is answered, and a
	// graceful shutdown leaves a keep-alive connection the coordinator's
	// poller has just opened — and with it the whole server — alive.
	_ = r.web.Close()
	r.srv.Stop()
	_ = r.ckpt.Close() // read-only mapping
}

// listen serves h on a fresh loopback port with msserver's timeouts.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	web := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	go func() { _ = web.Serve(ln) }() // returns ErrServerClosed on Close
	return web, "http://" + ln.Addr().String(), nil
}

func bootReplica(path string, seed int64) (*replica, time.Duration, error) {
	t0 := time.Now()
	ckpt, err := persist.Open(path)
	if err != nil {
		return nil, 0, err
	}
	// The weights built here are replaced by the mapped ones, as in msserver.
	net := newVGG(seed + 100)
	if err := ckpt.Bind(net.Params()); err != nil {
		ckpt.Close()
		return nil, 0, err
	}
	openBind := time.Since(t0)
	srv, err := server.New(server.Config{
		Model: net, Rates: rates, InputShape: vggShape, SLO: httpSLO,
		ModelInfo: server.ModelInfo{Epoch: ckpt.Epoch, CRC: ckpt.CRC, Path: path},
	})
	if err != nil {
		ckpt.Close()
		return nil, 0, err
	}
	web, url, err := listen(srv.Handler())
	if err != nil {
		srv.Stop()
		ckpt.Close()
		return nil, 0, err
	}
	return &replica{ckpt, srv, web, url}, openBind, nil
}

// httpInst is http_vgg (one replica) and fleet_vgg (a coordinator fronting
// two): nproc closed-loop clients on keep-alive loopback connections POSTing
// pre-encoded JSON bodies to /predict.
type httpInst struct {
	replicas []*replica
	coord    *fleet.Coordinator
	front    *http.Server // the coordinator's listener, fleet_vgg only
	target   string       // base URL the clients POST to
	client   *http.Client
	clients  int
	ref      *slicing.Shared
	arena    *tensor.Arena
	inputs   []*tensor.Tensor
	bodies   [][]byte
	boot     map[string]float64 // persist.* numbers of the set-up
	mu       sync.Mutex
	kept     []httpReply
}

type httpReply struct {
	input int
	resp  server.PredictResponse
}

func bootHTTP(e env, fleetMode bool) (in instance, err error) {
	h := &httpInst{clients: e.nproc, arena: tensor.NewArena(), boot: map[string]float64{}}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	src := newVGG(e.seed)
	h.ref = slicing.NewShared(src, rates)
	path := filepath.Join(e.scratch, "vgg.ckpt")
	t0 := time.Now()
	if err := persist.Save(path, src.Params()); err != nil {
		return nil, err
	}
	h.boot["persist.save_ms"] = ms(time.Since(t0))
	if fi, err := os.Stat(path); err == nil {
		h.boot["persist.checkpoint_bytes"] = float64(fi.Size())
	}
	n := 1
	if fleetMode {
		n = 2
	}
	for i := 0; i < n; i++ {
		r, openBind, err := bootReplica(path, e.seed)
		if err != nil {
			return nil, err
		}
		h.replicas = append(h.replicas, r)
		h.boot["persist.open_bind_ms"] = ms(openBind)
	}
	h.target = h.replicas[0].url
	if fleetMode {
		if h.coord, err = fleet.New(fleet.Config{SLO: httpSLO}); err != nil {
			return nil, err
		}
		for _, r := range h.replicas {
			if err := h.coord.AddReplica(r.url); err != nil {
				return nil, err
			}
		}
		if h.front, h.target, err = listen(h.coord.Handler()); err != nil {
			return nil, err
		}
	}
	h.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: h.clients, MaxIdleConnsPerHost: h.clients, DisableCompression: true,
	}}
	h.inputs = randomTensors(rand.New(rand.NewSource(e.seed+1)), 64, vggShape...)
	for _, x := range h.inputs {
		body, err := json.Marshal(server.PredictRequest{Input: x.Data})
		if err != nil {
			return nil, err
		}
		h.bodies = append(h.bodies, body)
	}
	t0 = time.Now()
	if _, _, _, err := h.post(0, ""); err != nil {
		return nil, fmt.Errorf("first request: %w", err)
	}
	h.boot["persist.first_infer_ms"] = ms(time.Since(t0))
	return h, nil
}

func (h *httpInst) close() {
	if h.client != nil {
		h.client.CloseIdleConnections()
	}
	if h.front != nil {
		_ = h.front.Close()
	}
	if h.coord != nil {
		h.coord.Stop()
	}
	for _, r := range h.replicas {
		r.close()
	}
}

func (h *httpInst) sliceEff() float64 { return directSliceEff(h.ref, vggShape, h.arena) }

// errRefused is a 503: admission control (or a saturated fleet) shed the query.
var errRefused = errors.New("refused (HTTP 503)")

// post sends body i and returns the decoded reply, the round trip and the
// reply's size. A status other than 200 is an error, a 503 errRefused.
func (h *httpInst) post(i int, query string) (resp server.PredictResponse, rtt time.Duration, size int, err error) {
	t0 := time.Now()
	r, err := h.client.Post(h.target+"/predict"+query, "application/json", bytes.NewReader(h.bodies[i]))
	if err != nil {
		return resp, 0, 0, err
	}
	raw, err := io.ReadAll(r.Body)
	r.Body.Close()
	rtt = time.Since(t0)
	if err != nil {
		return resp, rtt, 0, err
	}
	if r.StatusCode == http.StatusServiceUnavailable {
		return resp, rtt, len(raw), errRefused
	}
	if r.StatusCode != http.StatusOK {
		return resp, rtt, len(raw), fmt.Errorf("HTTP %d: %.100s", r.StatusCode, raw)
	}
	err = json.Unmarshal(raw, &resp)
	return resp, rtt, len(raw), err
}

// clientRec is one client goroutine's record of its round trips.
type clientRec struct {
	attempted     int
	refused       int
	rttMs, wireMs []float64
	rateSum       float64
	respBytes     int
	queueMs       []float64 // from ?debug=1, traced only
}

func (h *httpInst) run(d time.Duration, tr *tracer) *segment {
	query := ""
	if tr != nil {
		query = "?debug=1"
	}
	httpDur := d
	if tr != nil && h.coord != nil {
		httpDur = d * 3 / 4 // the rest goes to direct Coordinator.Predict calls
	}
	var fleet0 fleet.Stats
	if h.coord != nil {
		fleet0 = h.coord.Stats()
	}
	n0, b0 := mallocs()
	recs := make([]clientRec, h.clients)
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	for c := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recs[c]
			for k := c; time.Since(start) < httpDur; k += h.clients {
				i := k % len(h.bodies)
				t0 := time.Now()
				resp, rtt, size, err := h.post(i, query)
				rec.attempted++
				if err != nil {
					if errors.Is(err, errRefused) {
						rec.refused++
					}
					continue
				}
				rec.rttMs = append(rec.rttMs, ms(rtt))
				rec.wireMs = append(rec.wireMs, ms(rtt)-resp.LatencyMs)
				rec.rateSum += resp.Rate
				rec.respBytes += size
				if rec.attempted%16 == 1 {
					h.mu.Lock()
					h.kept = append(h.kept, httpReply{i, resp})
					h.mu.Unlock()
				}
				if tr != nil {
					rec.queueMs = append(rec.queueMs, replySpans(tr, int64(k), h.coord != nil, tr.at(t0), rtt, resp))
				}
			}
		}()
	}
	wg.Wait()
	seg := newSegment(1)
	seg.wall, seg.cpu = time.Since(start), cpuTime()-cpu0
	n1, b1 := mallocs()
	seg.mallocs, seg.allocBytes = n1-n0, b1-b0
	var wire, queue []float64
	respBytes := 0
	for _, rec := range recs {
		seg.attempted += int64(rec.attempted)
		seg.refused += int64(rec.refused)
		seg.answered += int64(len(rec.rttMs))
		seg.rateSum += rec.rateSum
		seg.latMs = append(seg.latMs, rec.rttMs...)
		wire = append(wire, rec.wireMs...)
		queue = append(queue, rec.queueMs...)
		respBytes += rec.respBytes
	}
	for _, l := range seg.latMs {
		if l <= ms(httpSLO) {
			seg.ok++
		}
	}
	if tr == nil {
		seg.layer["http.wire_ms_p50"] = quantile(wire, 0.5)
		return seg
	}

	m := seg.layer
	answered := float64(seg.answered)
	prefix := "http."
	if h.coord != nil {
		prefix = "fleet."
	}
	m[prefix+"allocs_per_query"] = ratio(float64(seg.mallocs), answered)
	if h.coord == nil {
		m["http.alloc_bytes_per_query"] = ratio(float64(seg.allocBytes), answered)
	}
	m["http.wire_ms_p99"] = quantile(wire, 0.99)
	m["http.req_bytes"] = float64(len(h.bodies[0]))
	m["http.resp_bytes"] = ratio(float64(respBytes), answered)
	m["http.queue_ms_p50"] = quantile(queue, 0.5)
	maps.Copy(m, h.boot)
	if h.coord != nil {
		h.fleetMetrics(m, tr, d-httpDur, fleet0)
	}
	return seg
}

// replySpans records one round trip: client.rtt encloses everything; what
// the replica did not account for (rtt − latency_ms) is the wire, split
// evenly before and after the server's stages because a client cannot see
// where the server's clock sat inside its own. Through the coordinator the
// client leg and the hop cannot be told apart per request, so fleet.hop
// covers the whole round trip and its self time is both. It returns the
// reply's queue wait in ms (0 without stages).
func replySpans(tr *tracer, op int64, viaFleet bool, t0 int64, rtt time.Duration, resp server.PredictResponse) float64 {
	t1 := t0 + int64(rtt)
	root := tr.add("client.rtt", op, -1, t0, t1)
	served := int64(resp.LatencyMs * 1e6)
	from := t0 + max(int64(rtt)-served, 0)/2
	if viaFleet {
		hop := tr.add("fleet.hop", op, root, t0, t1)
		tr.add("server.total", op, hop, from, min(from+served, t1))
		return 0
	}
	tr.add("http.wire", op, root, t0, from)
	st := resp.Stages
	if st == nil {
		st = &server.PredictStages{ComputeMs: resp.LatencyMs}
	}
	for _, s := range []struct {
		name string
		ms   float64
	}{{"server.queue", st.QueuedMs}, {"server.dispatch", st.DispatchMs}, {"server.compute", st.ComputeMs}, {"server.settle", st.SettleMs}} {
		to := min(from+int64(s.ms*1e6), t1)
		tr.add(s.name, op, root, from, to)
		from = to
	}
	tr.add("http.wire", op, root, from, t1)
	return st.QueuedMs
}

// fleetMetrics reads the coordinator's counters and times direct
// Coordinator.Predict calls, which skip the client's leg: what remains over
// the replica's own latency is the hop.
func (h *httpInst) fleetMetrics(m map[string]float64, tr *tracer, d time.Duration, s0 fleet.Stats) {
	var mu sync.Mutex
	var predict []float64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < h.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; time.Since(start) < d; k += h.clients {
				t0 := time.Now()
				resp, err := h.coord.Predict(context.Background(), h.inputs[k%len(h.inputs)].Data)
				dt := time.Since(t0)
				if err != nil {
					continue
				}
				op := int64(1<<32 + k)
				root := tr.add("fleet.predict", op, -1, tr.at(t0), tr.at(t0)+int64(dt))
				served := int64(resp.LatencyMs * 1e6)
				from := tr.at(t0) + max(int64(dt)-served, 0)/2
				tr.add("server.total", op, root, from, from+min(served, int64(dt)))
				mu.Lock()
				predict = append(predict, ms(dt))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m["fleet.predict_ms_p50"] = quantile(predict, 0.5)
	s1 := h.coord.Stats()
	m["fleet.forwarded"] = float64(s1.Forwarded - s0.Forwarded)
	m["fleet.retries"] = float64(s1.Retries - s0.Retries)
	m["fleet.hedges"] = float64(s1.Hedges - s0.Hedges)
	m["fleet.hedge_wins"] = float64(s1.HedgeWins - s0.HedgeWins)
	m["fleet.shed"] = float64(s1.Shed - s0.Shed)
	var routed, most int64
	for i, r := range s1.Replicas {
		d := r.Routed
		if i < len(s0.Replicas) {
			d -= s0.Replicas[i].Routed
		}
		routed += d
		most = max(most, d)
	}
	m["fleet.routed_share_max"] = ratio(float64(most), float64(routed))
}

// check compares the kept replies with a direct Shared.Infer of the same
// input at the replied rate.
func (h *httpInst) check() (checked, bad int) {
	for _, k := range h.kept {
		if !sameAnswer(h.ref, h.arena, h.inputs[k.input], k.resp.Rate, k.resp.Output, k.resp.ArgMax) {
			bad++
		}
		checked++
	}
	h.kept = h.kept[:0]
	return checked, bad
}
