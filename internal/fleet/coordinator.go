package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"modelslicing/internal/server"
	"modelslicing/internal/serving"
	"modelslicing/internal/slicing"
)

// Errors returned by Predict.
var (
	// ErrNoReplicas means no replica is in rotation at all — the fleet is
	// empty, or every member is ejected.
	ErrNoReplicas = errors.New("fleet: no replica in rotation")
	// ErrSaturated means every reachable replica shed the query: the whole
	// fleet is saturated, the only condition under which the coordinator
	// itself sheds.
	ErrSaturated = errors.New("fleet: all replicas saturated")
)

// Config parameterizes a coordinator.
type Config struct {
	// SLO is the fleet latency bound T; it should match the replicas'. The
	// T/2 routing window and every default below derive from it.
	SLO time.Duration
	// Transport carries coordinator→replica requests; nil means a fresh
	// fleet.Transport over a clone of http.DefaultTransport (tests inject
	// their own to partition replicas).
	Transport http.RoundTripper
	// Clock supplies time; nil means the wall clock. The lockstep test
	// injects a server.FakeClock and advances it window by window.
	Clock server.Clock
	// HealthEvery is the health loop's base interval (GET /state per
	// replica). Default SLO/2 — one tick per routing window. A replica whose
	// polls bring no news is polled one tick later each time, down to once
	// every FailThreshold ticks; any news or failure puts it back on every
	// tick.
	HealthEvery time.Duration
	// FailThreshold ejects a replica after this many consecutive failures
	// (failed health polls or transport errors on forwarded queries). It also
	// caps a quiet replica's poll interval, so a dead replica that gets no
	// traffic is ejected within 2·FailThreshold−1 ticks. Default 3.
	FailThreshold int
	// RejoinAfter readmits an ejected replica after this many consecutive
	// successful health polls; its backlog model is reseeded from the
	// polled horizon. Default 2.
	RejoinAfter int
	// RetryMax is how many additional replicas a failed query is retried on
	// (each attempt goes to a replica the query has not touched yet).
	// Default 2.
	RetryMax int
	// RetryBase seeds the capped exponential backoff between retries
	// (base·2^attempt plus up to 50% jitter, capped at SLO/2). Default
	// SLO/16. Negative RetryBase disables the sleep (retries go
	// immediately — deterministic tests).
	RetryBase time.Duration
	// HedgeAfter controls straggler hedging: after this long without a
	// reply, a second copy of the query is sent to the next-best replica
	// and the first reply wins (the loser is canceled). 0 derives the
	// delay from the observed latency p95 (2·SLO until 16 samples exist);
	// negative disables hedging. Hedging watches wall time even under an
	// injected clock — a straggler is a wall-clock phenomenon.
	HedgeAfter time.Duration
}

// replica is one fleet member: its URL, the coordinator's Equation-3 model
// of it (index-aligned entry in the serving.Cluster), and its health-state
// machine counters. url and the two parsed endpoints are fixed at the first
// join and read without a lock; every other field is guarded by the
// coordinator's mu.
type replica struct {
	url                  string
	stateURL, predictURL *url.URL
	model                *serving.ReplicaModel
	// table is the t(r) table model.Policy.SampleTime was last built from;
	// polled is the health loop's scratch, touched by that goroutine alone.
	table  []server.RateTime
	polled statePoll

	consecFails int
	consecOK    int
	left        bool // administratively removed; skipped by health polls
	// stretch is how many health ticks are skipped after each poll (0: every
	// tick); skip counts down the ones left before the next poll.
	stretch, skip int

	routed   int64 // queries routed here (hedges included)
	ejected  int64 // times ejected
	rejoined int64 // times readmitted
}

// Coordinator fronts a fleet of replica msservers.
type Coordinator struct {
	cfg     Config
	clock   server.Clock
	client  *http.Client
	started time.Time

	mu        sync.Mutex
	cluster   *serving.Cluster
	replicas  []*replica // index-aligned with cluster.Replicas
	curWindow int64
	rng       *rand.Rand

	metrics coordMetrics
	// hedgeNs caches the adaptive hedge delay (read per query, moves slowly);
	// hedgeNext is the clock time, ns since started, of its next recompute.
	hedgeNs, hedgeNext atomic.Int64

	quit     chan struct{}
	loopDone chan struct{} // closed when healthLoop returns
	stopOnce sync.Once
	// pollCtx parents every health poll; Stop cancels it, so a stalled poll
	// does not hold Stop for its timeout.
	pollCtx    context.Context
	pollCancel context.CancelFunc
	due        []*replica // healthLoop's scratch: the members polled this tick
}

// predictTimeout bounds one forwarded attempt: 8·SLO, since a replica may
// legitimately hold a query for ~T plus backlog.
func (c *Coordinator) predictTimeout() time.Duration { return 8 * c.cfg.SLO }

// New starts a coordinator with an empty replica set; add members with
// AddReplica. Release it with Stop.
func New(cfg Config) (*Coordinator, error) {
	if cfg.SLO <= 0 {
		return nil, fmt.Errorf("fleet: non-positive SLO %v", cfg.SLO)
	}
	if cfg.Transport == nil {
		// A private connection pool: closing its idle connections (Stop,
		// RemoveReplica, ejection) touches no other client in the process.
		cfg.Transport = &Transport{Inner: http.DefaultTransport.(*http.Transport).Clone()}
	}
	if cfg.Clock == nil {
		cfg.Clock = server.RealClock()
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = cfg.SLO / 2
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RejoinAfter <= 0 {
		cfg.RejoinAfter = 2
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 2
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = cfg.SLO / 16
	}
	c := &Coordinator{
		cfg:      cfg,
		clock:    cfg.Clock,
		client:   &http.Client{Transport: cfg.Transport},
		started:  cfg.Clock.Now(),
		cluster:  &serving.Cluster{SLO: cfg.SLO.Seconds()},
		rng:      rand.New(rand.NewSource(1)),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	c.pollCtx, c.pollCancel = context.WithCancel(context.Background())
	c.hedgeNs.Store(int64(2 * cfg.SLO))
	go c.healthLoop()
	return c, nil
}

// Stop halts the health loop, cancels the poll it may be waiting on, waits
// for it to exit, and then closes the idle keep-alive connections to the
// replicas, so a stopped coordinator holds no sockets open on them.
// In-flight forwarded queries finish on their own contexts.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		close(c.quit)
		c.pollCancel()
	})
	<-c.loopDone
	c.client.CloseIdleConnections()
}

// windowS is the wall routing window T/2 on the policy axis.
func (c *Coordinator) windowS() float64 { return (c.cfg.SLO / 2).Seconds() }

func (c *Coordinator) sinceStart(t time.Time) float64 {
	return t.Sub(c.started).Seconds()
}

// AddReplica joins a replica (base URL, e.g. "http://host:port") to the
// fleet: its /state is fetched synchronously to build the coordinator's
// Equation-3 model — the calibrated t(r) table becomes a serving.Policy, the
// polled horizon seeds a serving.Backlog, and the replica's headroom derates
// the deadlines routed to it; a headroom outside (0, 1] refuses the join.
// Re-adding a URL that left (or is still a member) reseeds its model in
// place; indices stay stable for the queries in flight. A /state request lost in transit is retried like a
// forwarded query (retryLost), so one dropped packet does not fail a join.
func (c *Coordinator) AddReplica(baseURL string) error {
	stateURL, err := url.Parse(baseURL + "/state")
	if err != nil {
		return fmt.Errorf("fleet: join %s: %w", baseURL, err)
	}
	predictURL, err := url.Parse(baseURL + "/predict")
	if err != nil {
		return fmt.Errorf("fleet: join %s: %w", baseURL, err)
	}
	var poll statePoll
	err = c.retryLost(c.quit, func() error { return c.fetchState(context.Background(), stateURL, &poll) })
	if err != nil {
		return fmt.Errorf("fleet: join %s: %w", baseURL, err)
	}
	st := &poll.State
	if !(st.Headroom > 0 && st.Headroom <= 1) { // NaN included
		return fmt.Errorf("fleet: join %s: headroom %v outside (0, 1]", baseURL, st.Headroom)
	}
	now := c.clock.Now()
	nowF := c.sinceStart(now)
	model := &serving.ReplicaModel{
		Policy:    serving.Policy{Rates: slicing.RateList(st.Rates), Window: st.WindowS},
		Headroom:  st.Headroom,
		Penalized: st.CircuitOpen || st.Stopping,
	}
	model.Backlog.Extend(nowF, st.BacklogAheadS)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.replicas {
		if r.url == baseURL {
			r.left = false
			r.consecFails, r.consecOK = 0, 0
			r.stretch, r.skip = 0, 0
			*r.model = *model // clears the cost curve; setTable rebuilds it
			r.setTable(st.SampleTimes)
			return nil
		}
	}
	r := &replica{url: baseURL, stateURL: stateURL, predictURL: predictURL, model: model}
	r.setTable(st.SampleTimes)
	c.cluster.Replicas = append(c.cluster.Replicas, model)
	c.replicas = append(c.replicas, r)
	return nil
}

// setTable installs a polled t(r) table as the replica's cost curve, rebuilt
// only when it moved (an idle replica reports the same one); it reports
// whether it moved. Holds c.mu.
func (r *replica) setTable(ts []server.RateTime) (moved bool) {
	if r.model.Policy.SampleTime != nil && slices.Equal(r.table, ts) {
		return false
	}
	r.table = append(r.table[:0], ts...)
	r.model.Policy.SampleTime = server.SampleTimeTable(r.table)
	return true
}

// RemoveReplica takes a replica out of rotation administratively. The entry
// is tombstoned, not deleted, so replica indices held by in-flight queries
// stay valid; AddReplica with the same URL revives it. Idle keep-alive
// connections are closed, so the departed replica is not left holding one.
func (c *Coordinator) RemoveReplica(baseURL string) bool {
	removed := false
	c.mu.Lock()
	for _, r := range c.replicas {
		if r.url == baseURL && !r.left {
			r.left = true
			r.model.Ejected = true
			r.model.Pending = 0
			removed = true
			break
		}
	}
	c.mu.Unlock()
	if removed {
		c.client.CloseIdleConnections()
	}
	return removed
}

// advanceLocked performs the lazy window close: pending routing state
// belongs to curWindow only, so when the clock has crossed into a later
// window the one boundary that matters is curWindow's close — each booked
// replica takes its window decision there, extending its modeled horizon.
// Callers hold c.mu.
func (c *Coordinator) advanceLocked(nowF float64) {
	w := int64(nowF / c.windowS())
	if w > c.curWindow {
		c.cluster.Close(float64(c.curWindow+1) * c.windowS())
		c.curWindow = w
	}
}

// route books one query into the fleet model and returns the chosen
// replica. skip lists replica indices this query must avoid (already tried,
// or the hedge primary).
func (c *Coordinator) route(skip []int) (int, *replica, bool) {
	now := c.clock.Now()
	nowF := c.sinceStart(now)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(nowF)
	closeT := float64(c.curWindow+1) * c.windowS()
	rd, ok := c.cluster.Route(nowF, closeT, func(i int) bool { return slices.Contains(skip, i) })
	if !ok {
		return -1, nil, false
	}
	r := c.replicas[rd.Replica]
	r.routed++
	return rd.Replica, r, true
}

// recordNetFailure feeds a transport-level failure into the same
// consecutive-failure ejection machine the health poller drives — a replica
// that eats queries is ejected without waiting out health-poll intervals.
func (c *Coordinator) recordNetFailure(idx int) {
	c.mu.Lock()
	ejected := c.failLocked(c.replicas[idx])
	c.mu.Unlock()
	if ejected {
		c.client.CloseIdleConnections()
	}
}

func (c *Coordinator) recordNetOK(idx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.replicas[idx]
	r.consecFails = 0
}

// failLocked advances one replica's failure count, puts it back on every
// health tick, and ejects it at the threshold: out of rotation, pending
// bookings forgotten (those queries are being retried elsewhere). It reports
// an ejection, after which the caller
// closes the idle connections once it has released c.mu (the transport may
// be caller-supplied code). net/http closes idle connections per pool, not
// per host, so the other replicas' idle connections go too; they are
// re-dialled on next use. Callers hold c.mu.
func (c *Coordinator) failLocked(r *replica) (ejected bool) {
	r.consecOK = 0
	r.consecFails++
	r.stretch, r.skip = 0, 0
	if r.model.Ejected || r.consecFails < c.cfg.FailThreshold {
		return false
	}
	r.model.Ejected = true
	r.model.Pending = 0
	r.ejected++
	c.metrics.ejections.Add(1)
	return true
}

// healthLoop ticks every HealthEvery and polls the members due: successes
// refresh the model (t(r) drift, circuit penalty) and drive rejoin; failures
// drive ejection. Under a fake clock that is only advanced (never ticked) the
// loop stays dormant — the lockstep tests run the routing arithmetic pure.
func (c *Coordinator) healthLoop() {
	defer close(c.loopDone)
	ticks, stop := c.clock.Ticker(c.cfg.HealthEvery)
	defer stop()
	for {
		select {
		case <-c.quit:
			return
		case <-ticks:
			c.pollAll()
			server.AckTick(c.clock)
		}
	}
}

// pollAll is one health tick: it polls every member whose stretched interval
// has run out. A poll that brings no news — same table, same penalty, not
// ejected — stretches that member's interval by one tick, up to one poll
// every FailThreshold ticks; news or a failure (failLocked) resets it to
// every tick. Forwarded replies prove liveness between polls, and a dead
// member that gets no traffic is still ejected within 2·FailThreshold−1
// ticks: one stretched wait, then a poll every tick.
func (c *Coordinator) pollAll() {
	c.mu.Lock()
	c.due = c.due[:0]
	for _, r := range c.replicas {
		if r.left {
			continue
		}
		if r.skip > 0 {
			r.skip--
			continue
		}
		c.due = append(c.due, r)
	}
	c.mu.Unlock()
	for _, r := range c.due {
		if c.pollCtx.Err() != nil {
			return // Stopped: poll no further member
		}
		c.metrics.healthPolls.Add(1)
		st := &r.polled.State
		err := c.fetchState(c.pollCtx, r.stateURL, &r.polled)
		if c.pollCtx.Err() != nil {
			return // Stop canceled the poll; that says nothing about the replica
		}
		now := c.clock.Now()
		c.mu.Lock()
		if r.left { // removed while we polled
			c.mu.Unlock()
			continue
		}
		if err != nil {
			ejected := c.failLocked(r)
			c.mu.Unlock()
			if ejected {
				c.client.CloseIdleConnections()
			}
			continue
		}
		r.consecFails = 0
		r.consecOK++
		penalized := st.CircuitOpen || st.Stopping
		news := r.setTable(st.SampleTimes) || penalized != r.model.Penalized || r.model.Ejected
		r.model.Penalized = penalized
		if news {
			r.stretch = 0
		} else {
			r.stretch = min(r.stretch+1, c.cfg.FailThreshold-1)
		}
		r.skip = r.stretch
		if r.model.Ejected && r.consecOK >= c.cfg.RejoinAfter {
			// Rejoin: back into rotation with a fresh horizon seeded from
			// the replica's own report — whatever happened while it was
			// away, its backlog model restarts from observed truth.
			r.model.Ejected = false
			r.model.Pending = 0
			r.model.Backlog = serving.Backlog{}
			r.model.Backlog.Extend(c.sinceStart(now), st.BacklogAheadS)
			r.rejoined++
			c.metrics.rejoins.Add(1)
		}
		c.mu.Unlock()
	}
}

// statePoll is the reusable storage of one /state poll: the reply's bytes and
// the State decoded from them (encoding/json reuses its slices' capacity).
type statePoll struct {
	server.State
	raw bytes.Buffer
}

// fetchState polls one replica's /state (u) into p, bounded by one SLO and
// by ctx.
func (c *Coordinator) fetchState(ctx context.Context, u *url.URL, p *statePoll) error {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.SLO)
	defer cancel()
	resp, err := c.client.Do(newRequest(ctx, http.MethodGet, u, nil))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("state: HTTP %d", resp.StatusCode)
	}
	p.raw.Reset()
	if _, err := p.raw.ReadFrom(io.LimitReader(resp.Body, 1<<20)); err != nil {
		return err
	}
	// A field the reply omits must read as zero, not as the last poll's.
	p.State = server.State{Rates: p.Rates[:0], SampleTimes: p.SampleTimes[:0]}
	return json.Unmarshal(p.raw.Bytes(), &p.State)
}

// retryLost gives a control-plane call — join's /state GET, the swap POST —
// the predict path's bounded retry: up to RetryMax further attempts, backoff
// between them, stopping when done closes. Only a request or reply lost in
// transit (the client's *url.Error) is retried; a replica that answered, with
// whatever status, is not asked again. Health polls stay single-shot: their
// failures are what ejection counts.
func (c *Coordinator) retryLost(done <-chan struct{}, call func() error) error {
	for attempt := 0; ; attempt++ {
		err := call()
		var lost *url.Error
		if !errors.As(err, &lost) || attempt >= c.cfg.RetryMax {
			return err
		}
		select {
		case <-time.After(c.backoff(attempt)):
		case <-done:
			return err
		}
	}
}

// backoff returns the capped exponential retry delay with jitter for the
// given attempt number (0-based), or 0 when RetryBase is negative.
func (c *Coordinator) backoff(attempt int) time.Duration {
	if c.cfg.RetryBase < 0 {
		return 0
	}
	d := c.cfg.RetryBase << attempt
	if retryCap := c.cfg.SLO / 2; d > retryCap || d <= 0 {
		d = retryCap
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d + jitter
}
