// Package fleet is the scale-out layer over internal/server: a coordinator
// that fronts N replica msservers over plain HTTP/JSON and makes the
// cluster-level Equation-3 decision — route each query to the replica whose
// backlog horizon admits it at the highest rate (serving.Cluster), health-check
// replicas and eject the dead, retry transient failures on a different
// replica with capped backoff, hedge stragglers after a p95-derived delay,
// and shed only when the whole fleet is saturated. A replica is just a pool
// whose horizon the coordinator reads (GET /state); the replica keeps its
// entire single-node stack and needs to know nothing about the fleet.
//
// The coordinator's model of every replica is deliberately estimate-based,
// exactly like the single-node Backlog: horizons drain with the clock and
// extend with each window's routing decision, refreshed — not corrected —
// by health polls. Under a fake clock the whole fleet is deterministic,
// which is what the cluster lockstep test pins against serving.SimulateFleet.
package fleet

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"modelslicing/internal/faults"
)

// Transport is the coordinator's chaos-injectable http.RoundTripper: every
// coordinator→replica request flows through it, so tests partition, stall,
// or kill a replica without touching the replica's process. Two layers
// compose:
//
//   - per-host taps (SetDown, SetDelay) target one replica deterministically
//     — the eject/rejoin and hedging tests use these;
//   - the process-wide fault registry (net-drop, net-delay, replica-down
//     points, armable via MS_FAULTS) injects probabilistic network chaos
//     under the whole fleet — the soak configuration.
//
// The zero value is ready to use and delegates to http.DefaultTransport.
type Transport struct {
	// Inner performs the real round trip; nil means http.DefaultTransport.
	Inner http.RoundTripper

	mu    sync.Mutex
	down  map[string]bool
	delay map[string]time.Duration
}

// inner returns the round tripper requests are delegated to.
func (t *Transport) inner() http.RoundTripper {
	if t.Inner != nil {
		return t.Inner
	}
	return http.DefaultTransport
}

// CloseIdleConnections closes the inner round tripper's idle keep-alive
// connections, when it keeps any; http.Client.CloseIdleConnections reaches
// it through here.
func (t *Transport) CloseIdleConnections() {
	if ci, ok := t.inner().(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

// SetDown marks a replica host (URL host:port) unreachable: requests to it
// fail with a connection error before any bytes move, exactly what a dead
// process or a partition looks like to the coordinator.
func (t *Transport) SetDown(host string, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down == nil {
		t.down = make(map[string]bool)
	}
	t.down[host] = down
}

// SetDelay stalls every request to a replica host by d before it is sent —
// a straggling replica for the hedging path. Zero removes the stall.
func (t *Transport) SetDelay(host string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.delay == nil {
		t.delay = make(map[string]time.Duration)
	}
	t.delay[host] = d
}

func (t *Transport) hostState(host string) (bool, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down[host], t.delay[host]
}

// RoundTrip applies the injected faults, then delegates. A dropped or
// down-host request returns an error without consuming the request body; a
// delayed one sleeps first, honoring the request context so a canceled hedge
// loser does not linger.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	down, delay := t.hostState(host)
	if down || faults.Should(faults.ReplicaDown) {
		return nil, fmt.Errorf("fleet: connection to %s refused (injected)", host)
	}
	if faults.Should(faults.NetDrop) {
		return nil, fmt.Errorf("fleet: request to %s dropped (injected)", host)
	}
	if d := faults.Delay(faults.NetDelay); d > delay {
		delay = d
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return t.inner().RoundTrip(req)
}
