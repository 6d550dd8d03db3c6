package nn

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// maxBatchWorkers caps intra-layer batch parallelism; per-part scratch
// arrays (Conv2D.Forward/Backward) are sized from it.
const maxBatchWorkers = 4

// maxWorkers bounds intra-layer batch parallelism. A caller reads it once
// per region and sizes both its scratch and its partition from that value,
// so a GOMAXPROCS change between two reads cannot split them.
func maxWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > maxBatchWorkers {
		w = maxBatchWorkers
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// A part is the work of a parallelFor region, run once per part index.
// Callers hand parallelFor a long-lived value whose per-region arguments
// live in its fields (a Conv2D and its convRegion), not a closure: a
// closure the helpers can reach escapes to the heap, once per region.
type part interface{ runPart(i int) }

// parallelFor runs p.runPart(i) for each part i in [0, nw), nw ≤
// maxBatchWorkers, one part per worker. The caller cuts its work into the nw
// parts and keys everything a part touches (its span, its partial sums, its
// scratch) by i, so no bit depends on which goroutine ran a part.
//
// The caller runs part 0 itself; parts 1.. run on persistent helpers
// (helper), claimed for the region and released when it ends. While another
// caller holds them, the region runs its parts in order on the caller. A
// panic in a helper's part ends the process, as in any goroutine; one in the
// caller's part unwinds only after every helper has finished and been
// released.
func parallelFor(nw int, p part) {
	var claimed [maxBatchWorkers - 1]*helper
	hs := claimed[:max(nw-1, 0)]
	if len(hs) == 0 || !claimHelpers(hs) {
		for i := 0; i < nw; i++ {
			p.runPart(i)
		}
		return
	}
	defer releaseHelpers(hs)
	for k, h := range hs {
		h.p, h.i = p, k+1
		h.seq++
		h.job.advance(h.seq)
	}
	p.runPart(0)
}

// releaseHelpers waits for each claimed helper's part and releases it.
func releaseHelpers(hs []*helper) {
	for _, h := range hs {
		h.done.await(h.seq)
		h.busy.Store(false)
	}
}

// spinWindow is how long a goroutine waiting on a signal polls, yielding
// its P between polls, before it parks: a helper between regions, and a
// caller waiting for its helpers. A training step opens two regions per
// conv layer; the serial work between them (the max-pool forward, the
// head, SGD.Step) takes up to a few hundred microseconds at r = 0.25, and
// a helper that parked in such a gap wakes tens of microseconds late for
// the next region, because its P's thread has gone to sleep. The window
// covers those gaps and is short next to anything that is not a step, so
// an idle process parks all its helpers within a millisecond. Measured on
// train_vgg's slice_eff_r025 (2-vCPU Xeon, four runs per window): 0.121
// at 100 µs, 0.116 at 250 µs, 0.111 at 500 µs, 0.112 at 1 and 2 ms.
const spinWindow = 500 * time.Microsecond

// A signal is a counter that one goroutine advances and one other awaits.
// The waiter polls for spinWindow and then parks on wake; the waker sends
// on wake only when the waiter has parked, so a wake costs a channel
// operation only after a long gap.
type signal struct {
	n      atomic.Uint64
	parked atomic.Bool
	// One slot: each token answers one store of parked, and the waiter
	// takes it before it stores parked again, so advance never blocks.
	wake chan struct{}
}

// await returns once the counter has reached want.
func (s *signal) await(want uint64) {
	start := time.Now()
	for s.n.Load() < want {
		if time.Since(start) < spinWindow {
			runtime.Gosched()
			continue
		}
		s.parked.Store(true)
		// Either this load sees advance's store, or advance's CAS sees
		// parked; if both, the CAS that wins decides who clears parked,
		// and a waker that cleared it has sent or will send.
		if s.n.Load() >= want && s.parked.CompareAndSwap(true, false) {
			return
		}
		if c := parkHook.Load(); c != nil {
			select {
			case *c <- s:
			default:
			}
		}
		// The token may come from the advance before the one awaited: its
		// waker, delayed between its store and its CAS, saw this park.
		// The loop then parks again.
		<-s.wake
	}
}

// parkHook, when set, is sent each signal whose waiter parks, just before
// it blocks, if the channel has room: a test waits on it to see the helpers
// park instead of sleeping out the spin window.
var parkHook atomic.Pointer[chan *signal]

// advance sets the counter to n and wakes the waiter if it has parked.
func (s *signal) advance(n uint64) {
	s.n.Store(n)
	if s.parked.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
	}
}

// A helper is one of parallelFor's persistent workers. A caller owns it
// from claimHelpers until releaseHelpers stores busy false; in that time
// it writes the region's part and index and advances job, and the helper
// runs the part and advances done. Its goroutine starts at its first claim
// and lives as long as the process, parked when no region is running.
type helper struct {
	busy      atomic.Bool
	seq       uint64 // regions handed over; owner only
	job, done signal
	// The region's part and index, written by the owner before job
	// advances.
	p part
	i int
}

// helpers are the maxBatchWorkers−1 workers a region needs besides its
// caller.
var helpers [maxBatchWorkers - 1]helper

// claimHelpers claims len(hs) idle helpers into hs, starting any whose
// goroutine has not run yet, or claims none and reports false.
func claimHelpers(hs []*helper) bool {
	k := 0
	for i := range helpers {
		if k == len(hs) {
			break
		}
		if h := &helpers[i]; h.busy.CompareAndSwap(false, true) {
			hs[k] = h
			k++
		}
	}
	if k < len(hs) {
		for _, h := range hs[:k] {
			h.busy.Store(false)
		}
		return false
	}
	for _, h := range hs {
		if h.job.wake == nil {
			h.job.wake, h.done.wake = make(chan struct{}, 1), make(chan struct{}, 1)
			go h.run()
		}
	}
	return true
}

// run is a helper's goroutine: one part per region. It drops the region's
// part before it signals done, so a parked helper never keeps what the part
// references (a layer, and through its region a training step's arena)
// alive.
func (h *helper) run() {
	for seq := uint64(1); ; seq++ {
		h.job.await(seq)
		h.p.runPart(h.i)
		h.p = nil
		h.done.advance(seq)
	}
}

func sigmoid(x float64) float64 {
	// Numerically stable logistic function.
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
