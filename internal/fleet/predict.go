package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"modelslicing/internal/server"
)

// maxBodyBytes caps a /predict body in either direction.
const maxBodyBytes = 8 << 20

var jsonContentType = []string{"application/json"}

// attemptErr is one failed forwarding attempt, classified for the retry
// policy: transport errors and replica-side 5xx are retryable on a different
// replica; a 4xx is the caller's fault and is not. saturated marks a 503 —
// when every attempt ends saturated, the fleet-level answer is ErrSaturated,
// the only condition under which the coordinator sheds — and retryAfter is
// the smallest Retry-After (whole seconds, 0 if none) the shedding replicas
// derived from their horizons.
type attemptErr struct {
	err        error
	retryable  bool
	saturated  bool
	retryAfter int
}

func (e *attemptErr) Error() string { return e.err.Error() }
func (e *attemptErr) Unwrap() error { return e.err }

// sooner merges two Retry-After values, 0 meaning none.
func sooner(a, b int) int {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// Predict routes one query through the fleet and returns the replica's
// answer. The fleet-level contract mirrors the single-node one: every call
// returns exactly one (response, error) pair, no matter which replicas died,
// stalled, or shed along the way. Transient failures are retried on a
// replica the query has not touched (capped exponential backoff + jitter);
// a straggling attempt is hedged to the next-best replica after HedgeAfter
// and the first reply wins. It is predictBytes with the encoding done here;
// the HTTP handler passes the client's bytes through instead.
func (c *Coordinator) Predict(ctx context.Context, input []float64) (server.PredictResponse, error) {
	var out server.PredictResponse
	body, err := json.Marshal(server.PredictRequest{Input: input})
	if err != nil {
		return out, err
	}
	reply, err := c.predictBytes(ctx, body, "")
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(reply, &out); err != nil {
		return out, fmt.Errorf("fleet: bad reply: %w", err)
	}
	return out, nil
}

// predictBytes is Predict on the wire format: body is a /predict request
// body, posted as is on every attempt (it is not pooled: net/http may still
// be reading a request body after Do has returned, so only the collector
// knows when the last copy is done with it); rawQuery is the client's query
// string; the result is a replica's 200 reply, verbatim.
func (c *Coordinator) predictBytes(ctx context.Context, body []byte, rawQuery string) ([]byte, error) {
	start := time.Now()
	tried := make([]int, 0, 4)
	var last *attemptErr
	sawSaturated, retryAfter := false, 0
	for attempt := 0; ; attempt++ {
		idx, r, ok := c.route(tried)
		if !ok {
			break // every replica in rotation has been tried (or none exists)
		}
		tried = append(tried, idx)
		reply, hedged, aerr := c.sendHedged(ctx, idx, r, body, rawQuery, tried)
		if hedged >= 0 {
			tried = append(tried, hedged)
		}
		if aerr == nil {
			c.metrics.latency.Observe(time.Since(start))
			c.metrics.forwarded.Add(1)
			return reply, nil
		}
		last = aerr
		sawSaturated = sawSaturated || aerr.saturated
		retryAfter = sooner(retryAfter, aerr.retryAfter)
		if !aerr.retryable || attempt >= c.cfg.RetryMax {
			break
		}
		c.metrics.retries.Add(1)
		if d := c.backoff(attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	c.metrics.shed.Add(1)
	switch {
	case sawSaturated:
		last.retryAfter = retryAfter
		return nil, fmt.Errorf("%w: %w", ErrSaturated, last)
	case last != nil:
		return nil, last
	default:
		return nil, ErrNoReplicas
	}
}

// errAttemptTimeout is the cause an attempt's context carries when its own
// predictTimeout ran out — the one cancellation that is the replica's fault.
var errAttemptTimeout = errors.New("fleet: attempt timed out")

// attemptCtx bounds one forwarded copy: ctx plus predictTimeout, which
// expires with errAttemptTimeout as its cause.
func (c *Coordinator) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeoutCause(ctx, c.predictTimeout(), errAttemptTimeout)
}

// sendHedged forwards one attempt with straggler hedging: if the primary has
// not answered within the hedge delay, the query is also routed to the
// next-best replica (booked into the fleet model like any other traffic) and
// whichever reply lands first wins — the loser's request is canceled through
// its own attempt context when this returns. The channel is buffered to the
// number of launched copies, so a losing goroutine never blocks on a caller
// that has left. hedged is the replica the hedge copy went to, -1 if none was
// launched.
func (c *Coordinator) sendHedged(ctx context.Context, idx int, r *replica, body []byte, rawQuery string, tried []int) (reply []byte, hedged int, err *attemptErr) {
	hedged = -1
	delay := c.hedgeDelay()
	if delay < 0 {
		actx, cancel := c.attemptCtx(ctx)
		defer cancel()
		reply, err = c.forward(actx, idx, r, body, rawQuery)
		return reply, hedged, err
	}
	type outcome struct {
		reply []byte
		err   *attemptErr
		hedge bool // produced by the hedge copy, not the primary
	}
	results := make(chan outcome, 2)
	var cancels [2]context.CancelFunc
	launch := func(n, i int, to *replica) {
		actx, cancel := c.attemptCtx(ctx)
		cancels[n] = cancel
		go func() {
			reply, err := c.forward(actx, i, to, body, rawQuery)
			results <- outcome{reply, err, n == 1}
		}()
	}
	defer func() {
		for _, cancel := range cancels {
			if cancel != nil {
				cancel()
			}
		}
	}()
	launch(0, idx, r)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched, outstanding, retryAfter := 1, 1, 0
	var firstErr *attemptErr
	for {
		select {
		case o := <-results:
			outstanding--
			if o.err == nil {
				if o.hedge {
					c.metrics.hedgeWins.Add(1)
				}
				return o.reply, hedged, nil
			}
			retryAfter = sooner(retryAfter, o.err.retryAfter)
			if firstErr == nil || !o.err.saturated {
				firstErr = o.err
			}
			if outstanding == 0 {
				firstErr.retryAfter = retryAfter
				return nil, hedged, firstErr
			}
		case <-timer.C:
			if launched > 1 {
				continue
			}
			bidx, br, ok := c.route(tried)
			if !ok {
				continue // nowhere to hedge to; keep waiting on the primary
			}
			hedged = bidx
			c.metrics.hedges.Add(1)
			launch(1, bidx, br)
			launched, outstanding = 2, outstanding+1
		case <-ctx.Done():
			return nil, hedged, &attemptErr{err: ctx.Err()}
		}
	}
}

// hedgeDelay resolves the straggler threshold: the configured fixed value,
// -1 when hedging is disabled, or the adaptive p95 of observed fleet
// latency (2·SLO until 16 samples exist — early traffic should not hedge on
// a noisy estimate), recomputed at most once per HealthEvery of clock time.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter != 0 {
		if c.cfg.HedgeAfter < 0 {
			return -1
		}
		return c.cfg.HedgeAfter
	}
	now := int64(c.clock.Now().Sub(c.started))
	if next := c.hedgeNext.Load(); now >= next && c.hedgeNext.CompareAndSwap(next, now+int64(c.cfg.HealthEvery)) {
		d := 2 * c.cfg.SLO
		if snap := c.metrics.latency.Snapshot(); snap.Count >= 16 {
			d = snap.Quantile(0.95)
		}
		c.hedgeNs.Store(int64(d))
	}
	return time.Duration(c.hedgeNs.Load())
}

// forward performs one HTTP attempt against one replica on the attempt's own
// context actx (attemptCtx) and classifies the outcome. Transport-level
// failures, and the attempt's own timeout, also feed the ejection state
// machine — a replica that eats queries should leave rotation before the
// health poller notices. Any other cancellation (the caller left, or the
// winning hedge copy canceled this one) says nothing about the replica. A
// 200's body is handed back unparsed.
func (c *Coordinator) forward(actx context.Context, idx int, r *replica, body []byte, rawQuery string) ([]byte, *attemptErr) {
	u := r.predictURL
	if rawQuery != "" {
		withQuery := *u
		withQuery.RawQuery = rawQuery
		u = &withQuery
	}
	resp, err := c.client.Do(newRequest(actx, http.MethodPost, u, body))
	if err != nil {
		if actx.Err() != nil && context.Cause(actx) != errAttemptTimeout {
			return nil, &attemptErr{err: context.Cause(actx)}
		}
		c.recordNetFailure(idx)
		return nil, &attemptErr{err: fmt.Errorf("fleet: %s: %w", r.url, err), retryable: true}
	}
	defer resp.Body.Close()
	c.recordNetOK(idx)
	switch {
	case resp.StatusCode == http.StatusOK:
		reply, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if err == nil && len(reply) == 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, &attemptErr{err: fmt.Errorf("fleet: %s: bad reply: %w", r.url, err), retryable: true}
		}
		return reply, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")) // 0 (none) if absent or malformed
		return nil, &attemptErr{
			err:       fmt.Errorf("fleet: %s shed the query: %s", r.url, readErr(resp.Body)),
			retryable: true, saturated: true, retryAfter: max(secs, 0),
		}
	case resp.StatusCode >= 500:
		// Shard failure on the replica (panic, stuck, expired): the replica
		// has already repaired itself; the query deserves a different one.
		return nil, &attemptErr{
			err:       fmt.Errorf("fleet: %s failed the query: %s", r.url, readErr(resp.Body)),
			retryable: true,
		}
	default:
		return nil, &attemptErr{err: fmt.Errorf("fleet: %s: HTTP %d: %s", r.url, resp.StatusCode, readErr(resp.Body))}
	}
}

// predictHeader and stateHeader are the attempts' and polls' request headers.
// They are shared: neither the client (no cookie jar, no client timeout, no
// userinfo in the URL) nor a RoundTripper writes to a request's header.
var (
	predictHeader = http.Header{"Content-Type": jsonContentType}
	stateHeader   = http.Header{}
)

// attemptBody is a request body over a shared byte slice: one allocation
// where io.NopCloser(bytes.NewReader(b)) takes two.
type attemptBody struct{ bytes.Reader }

func (*attemptBody) Close() error { return nil }

func newAttemptBody(b []byte) *attemptBody {
	ab := new(attemptBody)
	ab.Reset(b)
	return ab
}

// newRequest builds a request to an already parsed URL, as
// http.NewRequestWithContext would but without parsing it again per call. A
// non-nil body is posted as JSON and can be replayed (GetBody), so the
// transport may resend it on a stale keep-alive connection.
func newRequest(ctx context.Context, method string, u *url.URL, body []byte) *http.Request {
	req := http.Request{Method: method, URL: u, Host: u.Host, Header: stateHeader}
	if body != nil {
		req.Header = predictHeader
		req.Body = newAttemptBody(body)
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) { return newAttemptBody(body), nil }
	}
	return req.WithContext(ctx)
}

// readErr extracts a short error string from a replica's failure body.
func readErr(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	return strings.TrimSpace(string(b))
}
