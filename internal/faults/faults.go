// Package faults is a process-wide fault-injection registry: named fault
// points threaded through the serving path (scheduler, workers, calibrator,
// persist) that tests — and operators reproducing an incident — can arm
// without touching the code under test. A disarmed registry costs one atomic
// load per injection site, so the points stay compiled into production
// binaries.
//
// Points are armed programmatically (Enable, Set) or via the MS_FAULTS
// environment variable, parsed at process start:
//
//	MS_FAULTS="worker-panic=p0.1,shard-stall=first2,disk-error"
//
// The spelling is a comma-separated list of point[=mode] pairs, where mode is
// one of:
//
//	(empty) or on — fire on every call
//	pX            — fire with probability X in [0,1] (deterministic: each
//	                armed point rolls its own rng, seeded from its name)
//	everyN        — fire on every Nth call
//	firstN        — fire on the first N calls, then never again
//
// Fired counts are kept per point (Counts) so the server can export them as
// metrics, and a stalled injection site can be released by Disable/Reset or
// by the caller's own cancellation channel (Stall) — the two paths a watchdog
// and a test need to reclaim a deliberately wedged goroutine.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one fault-injection site.
type Point string

// The registered fault points. Each is consulted at exactly one layer of the
// serving path; DESIGN.md §13 maps them to their blast radius.
const (
	// WorkerPanic panics inside a worker shard's compute, exercising the
	// scheduler's recover/isolation path.
	WorkerPanic Point = "worker-panic"
	// ShardStall blocks a worker shard indefinitely (until released),
	// exercising the watchdog and worker replacement.
	ShardStall Point = "shard-stall"
	// SlowCompute delays a worker shard by Delay's duration, exercising
	// backlog degradation and SLO-miss accounting without killing anything.
	SlowCompute Point = "slow-compute"
	// CalibrationSkew inflates the calibrator's observed batch times,
	// exercising policy behavior under a t(r) estimate that drifts from
	// reality.
	CalibrationSkew Point = "calibration-skew"
	// DiskError fails checkpoint saves and loads in internal/persist.
	DiskError Point = "disk-error"
	// NetDrop drops one coordinator→replica HTTP request on the floor (the
	// RoundTripper returns a connection error before any bytes move),
	// exercising the fleet's retry-on-a-different-replica path.
	NetDrop Point = "net-drop"
	// NetDelay stalls one coordinator→replica HTTP request by
	// NetDelayDuration before it is sent, exercising the hedging path and
	// tail-latency accounting.
	NetDelay Point = "net-delay"
	// ReplicaDown fails coordinator→replica requests as if the replica's
	// host were unreachable, exercising health-check ejection and rejoin.
	// Fleet tests usually target one replica through
	// fleet.Transport.SetDown instead of arming this process-wide.
	ReplicaDown Point = "replica-down"
)

// Points lists every registered fault point, in a stable order.
func Points() []Point {
	return []Point{WorkerPanic, ShardStall, SlowCompute, CalibrationSkew, DiskError,
		NetDrop, NetDelay, ReplicaDown}
}

// SlowComputeDelay is how long an injected slow-compute fault delays a shard.
// Set it before arming the point; it is read without synchronization.
var SlowComputeDelay = 10 * time.Millisecond

// NetDelayDuration is how long an injected net-delay fault stalls a request.
// Set it before arming the point; it is read without synchronization.
var NetDelayDuration = 5 * time.Millisecond

// mode is one point's firing rule.
type mode struct {
	kind byte // 0 disarmed, 'a' always, 'p' probability, 'e' every-N, 'f' first-N
	p    float64
	n    int64
}

// state is one point's armed mode plus its lifetime counters. Counters
// survive Disable so /metrics can report what fired even after a test or an
// operator turned the point off; Reset clears everything.
type state struct {
	mode    mode
	calls   int64 // calls since the point was last armed
	fired   int64
	release chan struct{} // closed on Disable/Reset, freeing stalled sites
	// rng rolls this point's pX decisions. One stream per point, reseeded
	// from the point's name at every arming, keeps a point's firing sequence
	// independent of how often any other point is consulted.
	rng *rand.Rand
}

var (
	mu    sync.Mutex
	armed atomic.Int32 // armed points; the zero fast path keeps sites free
	table = map[Point]*state{}
)

func init() {
	if v := os.Getenv("MS_FAULTS"); v != "" {
		if err := Set(v); err != nil {
			fmt.Fprintf(os.Stderr, "faults: ignoring MS_FAULTS: %v\n", err)
		}
	}
}

// valid reports whether p names a registered point.
func valid(p Point) bool {
	for _, q := range Points() {
		if p == q {
			return true
		}
	}
	return false
}

// parseMode parses the mode half of a point=mode pair.
func parseMode(s string) (mode, error) {
	switch {
	case s == "" || s == "on":
		return mode{kind: 'a'}, nil
	case strings.HasPrefix(s, "p"):
		p, err := strconv.ParseFloat(s[1:], 64)
		// Written so NaN, which fails every comparison, is rejected too.
		if err != nil || !(p >= 0 && p <= 1) {
			return mode{}, fmt.Errorf("bad probability %q", s)
		}
		return mode{kind: 'p', p: p}, nil
	case strings.HasPrefix(s, "every"):
		n, err := strconv.ParseInt(s[len("every"):], 10, 64)
		if err != nil || n <= 0 {
			return mode{}, fmt.Errorf("bad period %q", s)
		}
		return mode{kind: 'e', n: n}, nil
	case strings.HasPrefix(s, "first"):
		n, err := strconv.ParseInt(s[len("first"):], 10, 64)
		if err != nil || n <= 0 {
			return mode{}, fmt.Errorf("bad count %q", s)
		}
		return mode{kind: 'f', n: n}, nil
	default:
		return mode{}, fmt.Errorf("unknown mode %q (want on, pX, everyN or firstN)", s)
	}
}

// Enable arms one point with the given mode spelling ("" means always).
func Enable(p Point, modeSpec string) error {
	m, err := parsePoint(p, modeSpec)
	if err != nil {
		return err
	}
	arm(p, m)
	return nil
}

// parsePoint validates one point=mode pair without touching the registry.
func parsePoint(p Point, modeSpec string) (mode, error) {
	if !valid(p) {
		return mode{}, fmt.Errorf("faults: unknown point %q", p)
	}
	m, err := parseMode(modeSpec)
	if err != nil {
		return mode{}, fmt.Errorf("faults: %s: %w", p, err)
	}
	return m, nil
}

// arm installs a parsed mode on one point.
func arm(p Point, m mode) {
	mu.Lock()
	defer mu.Unlock()
	st := table[p]
	if st == nil {
		st = &state{}
		table[p] = st
	}
	if st.mode.kind == 0 {
		armed.Add(1)
	} else if st.release != nil {
		close(st.release) // re-arming releases anyone stalled on the old arming
	}
	st.mode = m
	st.calls = 0
	st.release = make(chan struct{})
	h := fnv.New64a()
	h.Write([]byte(p))
	st.rng = rand.New(rand.NewSource(int64(h.Sum64())))
}

// Disable disarms one point and releases any goroutine stalled on it. Fired
// counts are preserved.
func Disable(p Point) {
	mu.Lock()
	defer mu.Unlock()
	st := table[p]
	if st == nil || st.mode.kind == 0 {
		return
	}
	st.mode = mode{}
	armed.Add(-1)
	if st.release != nil {
		close(st.release)
		st.release = nil
	}
}

// Reset disarms every point, releases all stalled goroutines, and clears the
// fired counters — the clean slate a test starts from.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for _, st := range table {
		if st.mode.kind != 0 {
			armed.Add(-1)
		}
		if st.release != nil {
			close(st.release)
		}
	}
	table = map[Point]*state{}
}

// Set replaces the whole registry configuration with one MS_FAULTS spelling.
// Counters are cleared; an empty spec disarms everything. Set is all or
// nothing: every pair is parsed before any point is armed, so a spec with one
// bad pair returns its error and leaves every point disarmed.
func Set(spec string) error {
	Reset()
	type pointMode struct {
		p Point
		m mode
	}
	var plan []pointMode
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, modeSpec, _ := strings.Cut(pair, "=")
		p := Point(strings.TrimSpace(name))
		m, err := parsePoint(p, strings.TrimSpace(modeSpec))
		if err != nil {
			return err
		}
		plan = append(plan, pointMode{p, m})
	}
	for _, pm := range plan {
		arm(pm.p, pm.m)
	}
	return nil
}

// Active reports whether a point is armed, without consuming a firing.
func Active(p Point) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	st := table[p]
	return st != nil && st.mode.kind != 0
}

// Should rolls one firing decision for the point and counts it when it fires.
// The disarmed fast path is a single atomic load.
func Should(p Point) bool {
	fire, _ := roll(p)
	return fire
}

// roll is Should, also returning the release channel of the arming that
// fired. Both come from one critical section, so a Disable or Reset racing
// with a firing Stall closes the channel the site waits on instead of
// leaving it nothing (or a nil state) to wait on.
func roll(p Point) (bool, chan struct{}) {
	if armed.Load() == 0 {
		return false, nil
	}
	mu.Lock()
	defer mu.Unlock()
	st := table[p]
	if st == nil || st.mode.kind == 0 {
		return false, nil
	}
	st.calls++
	fire := false
	switch st.mode.kind {
	case 'a':
		fire = true
	case 'p':
		fire = st.rng.Float64() < st.mode.p
	case 'e':
		fire = st.calls%st.mode.n == 0
	case 'f':
		fire = st.calls <= st.mode.n
	}
	if !fire {
		return false, nil
	}
	st.fired++
	return true, st.release
}

// ErrOn returns an injected error when the point fires, nil otherwise — the
// one-liner for sites that fail with an error rather than a panic or a stall.
func ErrOn(p Point) error {
	if Should(p) {
		return fmt.Errorf("faults: injected %s", p)
	}
	return nil
}

// Delay returns how long the site should sleep when the point fires
// (NetDelayDuration for net-delay, SlowComputeDelay otherwise), zero when it
// does not. The site owns the actual sleep so it can use its own clock.
func Delay(p Point) time.Duration {
	if !Should(p) {
		return 0
	}
	if p == NetDelay {
		return NetDelayDuration
	}
	return SlowComputeDelay
}

// Stall blocks when the point fires, until the point is disarmed
// (Disable/Reset) or the caller's cancel channel closes — whichever comes
// first — and reports whether it stalled at all. A nil cancel means only
// disarming releases the site.
func Stall(p Point, cancel <-chan struct{}) bool {
	fire, rel := roll(p)
	if !fire {
		return false
	}
	select {
	case <-rel:
	case <-cancel:
	}
	return true
}

// Fired returns how many times the point has fired since the last Reset.
func Fired(p Point) int64 {
	mu.Lock()
	defer mu.Unlock()
	if st := table[p]; st != nil {
		return st.fired
	}
	return 0
}

// Counts snapshots the fired counters of every point that has ever been
// armed since the last Reset.
func Counts() map[Point]int64 {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[Point]int64, len(table))
	for p, st := range table {
		out[p] = st.fired
	}
	return out
}

// Summary renders the armed points for a startup banner; empty when the
// registry is disarmed.
func Summary() string {
	mu.Lock()
	defer mu.Unlock()
	var parts []string
	for p, st := range table {
		if st.mode.kind == 0 {
			continue
		}
		switch st.mode.kind {
		case 'a':
			parts = append(parts, string(p))
		case 'p':
			parts = append(parts, fmt.Sprintf("%s=p%g", p, st.mode.p))
		case 'e':
			parts = append(parts, fmt.Sprintf("%s=every%d", p, st.mode.n))
		case 'f':
			parts = append(parts, fmt.Sprintf("%s=first%d", p, st.mode.n))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
