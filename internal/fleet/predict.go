package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"modelslicing/internal/server"
)

// attemptErr is one failed forwarding attempt, classified for the retry
// policy: transport errors and replica-side 5xx are retryable on a different
// replica; a 4xx is the caller's fault and is not. saturated marks a 503 —
// when every attempt ends saturated, the fleet-level answer is ErrSaturated,
// the only condition under which the coordinator sheds.
type attemptErr struct {
	err       error
	retryable bool
	saturated bool
}

func (e *attemptErr) Error() string { return e.err.Error() }
func (e *attemptErr) Unwrap() error { return e.err }

// Predict routes one query through the fleet and returns the replica's
// answer. The fleet-level contract mirrors the single-node one: every call
// returns exactly one (response, error) pair, no matter which replicas died,
// stalled, or shed along the way. Transient failures are retried on a
// replica the query has not touched (capped exponential backoff + jitter);
// a straggling attempt is hedged to the next-best replica after HedgeAfter
// and the first reply wins.
func (c *Coordinator) Predict(ctx context.Context, input []float64) (server.PredictResponse, error) {
	start := time.Now()
	tried := make(map[int]bool)
	var last *attemptErr
	sawSaturated := false
	for attempt := 0; ; attempt++ {
		idx, url, ok := c.route(tried)
		if !ok {
			break // every replica in rotation has been tried (or none exists)
		}
		tried[idx] = true
		resp, aerr := c.sendHedged(ctx, idx, url, input, tried)
		if aerr == nil {
			c.metrics.latency.Observe(time.Since(start))
			c.metrics.forwarded.Add(1)
			return resp, nil
		}
		last = aerr
		sawSaturated = sawSaturated || aerr.saturated
		if !aerr.retryable || attempt >= c.cfg.RetryMax {
			break
		}
		c.metrics.retries.Add(1)
		if d := c.backoff(attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return server.PredictResponse{}, ctx.Err()
			}
		}
	}
	c.metrics.shed.Add(1)
	switch {
	case sawSaturated:
		return server.PredictResponse{}, fmt.Errorf("%w: %w", ErrSaturated, last)
	case last != nil:
		return server.PredictResponse{}, last
	default:
		return server.PredictResponse{}, ErrNoReplicas
	}
}

// sendHedged forwards one attempt with straggler hedging: if the primary has
// not answered within the hedge delay, the query is also routed to the
// next-best replica (booked into the fleet model like any other traffic) and
// whichever reply lands first wins — the loser's request is canceled through
// the shared context. The channel is buffered to the number of launched
// copies, so a losing goroutine never blocks on a caller that has left.
func (c *Coordinator) sendHedged(ctx context.Context, idx int, url string, input []float64, tried map[int]bool) (server.PredictResponse, *attemptErr) {
	delay := c.hedgeDelay()
	if delay < 0 {
		return c.forward(ctx, idx, url, input)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		resp  server.PredictResponse
		err   *attemptErr
		hedge bool // produced by the hedge copy, not the primary
	}
	results := make(chan outcome, 2)
	launch := func(i int, u string, hedge bool) {
		go func() {
			r, e := c.forward(hctx, i, u, input)
			results <- outcome{r, e, hedge}
		}()
	}
	launch(idx, url, false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched, outstanding := 1, 1
	var firstErr *attemptErr
	for {
		select {
		case o := <-results:
			outstanding--
			if o.err == nil {
				if o.hedge {
					c.metrics.hedgeWins.Add(1)
				}
				return o.resp, nil
			}
			if firstErr == nil || !o.err.saturated {
				firstErr = o.err
			}
			if outstanding == 0 {
				return server.PredictResponse{}, firstErr
			}
		case <-timer.C:
			if launched > 1 {
				continue
			}
			bidx, burl, ok := c.route(tried)
			if !ok {
				continue // nowhere to hedge to; keep waiting on the primary
			}
			tried[bidx] = true
			c.metrics.hedges.Add(1)
			launch(bidx, burl, true)
			launched, outstanding = 2, outstanding+1
		case <-ctx.Done():
			return server.PredictResponse{}, &attemptErr{err: ctx.Err()}
		}
	}
}

// hedgeDelay resolves the straggler threshold: the configured fixed value,
// -1 when hedging is disabled, or the adaptive p95 of observed fleet
// latency (2·SLO until 16 samples exist — early traffic should not hedge on
// a noisy estimate).
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter != 0 {
		if c.cfg.HedgeAfter < 0 {
			return -1
		}
		return c.cfg.HedgeAfter
	}
	snap := c.metrics.latency.Snapshot()
	if snap.Count < 16 {
		return 2 * c.cfg.SLO
	}
	return snap.Quantile(0.95)
}

// forward performs one HTTP attempt against one replica and classifies the
// outcome. Transport-level failures also feed the ejection state machine —
// a replica that eats queries should leave rotation before the health
// poller notices.
func (c *Coordinator) forward(ctx context.Context, idx int, baseURL string, input []float64) (server.PredictResponse, *attemptErr) {
	var out server.PredictResponse
	body, err := json.Marshal(server.PredictRequest{Input: input})
	if err != nil {
		return out, &attemptErr{err: err}
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.PredictTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, baseURL+"/predict", bytes.NewReader(body))
	if err != nil {
		return out, &attemptErr{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller (or the winning hedge copy) canceled us; that says
			// nothing about the replica's health.
			return out, &attemptErr{err: ctx.Err()}
		}
		c.recordNetFailure(idx)
		return out, &attemptErr{err: fmt.Errorf("fleet: %s: %w", baseURL, err), retryable: true}
	}
	defer resp.Body.Close()
	c.recordNetOK(idx)
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&out); err != nil {
			return out, &attemptErr{err: fmt.Errorf("fleet: %s: bad reply: %w", baseURL, err), retryable: true}
		}
		return out, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		return out, &attemptErr{
			err:       fmt.Errorf("fleet: %s shed the query: %s", baseURL, readErr(resp.Body)),
			retryable: true, saturated: true,
		}
	case resp.StatusCode >= 500:
		// Shard failure on the replica (panic, stuck, expired): the replica
		// has already repaired itself; the query deserves a different one.
		return out, &attemptErr{
			err:       fmt.Errorf("fleet: %s failed the query: %s", baseURL, readErr(resp.Body)),
			retryable: true,
		}
	default:
		return out, &attemptErr{err: fmt.Errorf("fleet: %s: HTTP %d: %s", baseURL, resp.StatusCode, readErr(resp.Body))}
	}
}

// readErr extracts a short error string from a replica's failure body.
func readErr(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	return strings.TrimSpace(string(b))
}
