package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// SwapResult records one replica's promotion during a rolling fleet swap.
type SwapResult struct {
	URL   string `json:"url"`
	Epoch uint64 `json:"model_epoch"`
	CRC   string `json:"checkpoint_crc32"`
}

// SwapAll rolls a model swap across the fleet one replica at a time: POST
// /admin/swap on the member (the replica rebuilds its model through its
// SwapSource, recalibrates, and hot-swaps it), then health-gate the
// promotion — poll the replica's /state until it reports the new model
// identity with its brownout circuit closed — before touching the next
// member. Rolling one-at-a-time means the fleet never loses more than one
// replica's worth of recalibration ramp at once.
//
// A failed swap or a failed gate aborts the roll immediately: the remaining
// members keep serving the old model (the fleet is mixed but every member is
// live), and the returned results list exactly the replicas that were
// promoted. Members administratively removed or health-ejected are skipped —
// an ejected replica rejoining later re-fetches its state, and its operator
// can re-roll.
func (c *Coordinator) SwapAll(ctx context.Context) ([]SwapResult, error) {
	c.mu.Lock()
	members := make([]*replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		if !r.left && !r.model.Ejected {
			members = append(members, r)
		}
	}
	c.mu.Unlock()
	done := []SwapResult{}
	for _, r := range members {
		var res SwapResult
		err := c.retryLost(ctx.Done(), func() (err error) {
			res, err = c.swapOne(ctx, r.url)
			return err
		})
		if err == nil {
			err = c.gatePromotion(ctx, r, res)
		}
		if err != nil {
			return done, fmt.Errorf("fleet: rolling swap aborted at %s (%d/%d promoted): %w",
				r.url, len(done), len(members), err)
		}
		c.metrics.swaps.Add(1)
		done = append(done, res)
	}
	return done, nil
}

// swapOne triggers one replica's hot swap and returns the identity it
// reports having promoted to. The POST is idempotent — the replica re-opens
// the same checkpoint path however often it is asked — which is what lets
// SwapAll send it again when a request or reply is lost in transit.
func (c *Coordinator) swapOne(ctx context.Context, baseURL string) (SwapResult, error) {
	res := SwapResult{URL: baseURL}
	ctx, cancel := context.WithTimeout(ctx, c.predictTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/admin/swap", nil)
	if err != nil {
		return res, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("swap: HTTP %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Epoch uint64 `json:"model_epoch"`
		CRC   string `json:"checkpoint_crc32"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return res, fmt.Errorf("swap: %w", err)
	}
	res.Epoch, res.CRC = rep.Epoch, rep.CRC
	return res, nil
}

// gatePromotion holds the roll until the replica's own /state confirms the
// new identity and a closed circuit, then refreshes the coordinator's model
// of it — the swap recalibrated t(r), so routing must see the new curve
// before the next member is touched. Promotion is a wall-clock phenomenon
// (like hedging), so the gate polls on wall time even under an injected
// clock; the swap POST is synchronous, so the first poll normally settles it.
func (c *Coordinator) gatePromotion(ctx context.Context, r *replica, want SwapResult) error {
	deadline := time.Now().Add(c.predictTimeout())
	for {
		var st statePoll
		err := c.fetchState(ctx, r.stateURL, &st)
		if err == nil && st.ModelEpoch == want.Epoch && st.ModelCRC == want.CRC &&
			!st.Stopping && !st.CircuitOpen {
			c.mu.Lock()
			if !r.left {
				r.setTable(st.SampleTimes)
				r.model.Penalized = false
			}
			c.mu.Unlock()
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("replica still reports epoch %d crc %s", st.ModelEpoch, st.ModelCRC)
			}
			return fmt.Errorf("promotion gate: %w", err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("promotion gate: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// handleSwapAll is POST /admin/swap on the coordinator: one call rolls the
// swap across every live member, health-gating each promotion. On abort the
// 502 body still lists the replicas already promoted — the operator knows
// exactly how mixed the fleet is.
func (c *Coordinator) handleSwapAll(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	results, err := c.SwapAll(r.Context())
	if err != nil {
		writeJSONStatus(w, http.StatusBadGateway, map[string]any{
			"error":    err.Error(),
			"promoted": results,
		})
		return
	}
	writeJSON(w, map[string]any{
		"swapped":  len(results),
		"replicas": results,
	})
}
