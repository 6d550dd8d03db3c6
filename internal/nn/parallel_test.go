package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"modelslicing/internal/tensor"
)

// TestParallelForPartition pins the partition Conv2D's regions run: at each
// GOMAXPROCS, a batch of n units cut into maxWorkers(n) parts runs every
// part once and every unit once, unit b in part ⌊b/⌈n/nw⌉⌋.
func TestParallelForPartition(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for n := 1; n <= 37; n++ {
			nw := maxWorkers(n)
			chunk := (n + nw - 1) / nw
			parts, runs, partOf := make([]int, nw), make([]int, n), make([]int, n)
			parallelFor(nw, partFunc(func(i int) {
				parts[i]++
				for b, end := span(n, nw, i); b < end; b++ {
					runs[b]++
					partOf[b] = i
				}
			}))
			for i, r := range parts {
				if r != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: part %d of %d ran %d times", procs, n, i, nw, r)
				}
			}
			for b := range runs {
				if runs[b] != 1 || partOf[b] != b/chunk {
					t.Fatalf("GOMAXPROCS=%d n=%d: unit %d ran %d times, last in part %d, want once in part %d",
						procs, n, b, runs[b], partOf[b], b/chunk)
				}
			}
		}
	}
}

// TestParallelForConcurrentCallers runs 2–4 regions at once, each on the
// full maxBatchWorkers. Every part of every region waits until each region
// has started one, so the regions overlap: one of them at most holds the
// helpers, and the others run their parts in order on their callers.
func TestParallelForConcurrentCallers(t *testing.T) {
	for callers := 2; callers <= 4; callers++ {
		started := make([]chan struct{}, callers)
		for k := range started {
			started[k] = make(chan struct{})
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n := 4 * (k + 2)
				runs := make([]int, n)
				var once sync.Once
				parallelFor(maxBatchWorkers, partFunc(func(i int) {
					once.Do(func() { close(started[k]) })
					for _, ch := range started {
						<-ch
					}
					for b, end := span(n, maxBatchWorkers, i); b < end; b++ {
						runs[b]++
					}
				}))
				for b, r := range runs {
					if r != 1 {
						t.Errorf("%d callers: caller %d ran its unit %d of %d %d times", callers, k, b, n, r)
					}
				}
			}()
		}
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%d concurrent callers did not finish", callers)
		}
		for i := range helpers {
			if helpers[i].busy.Load() {
				t.Fatalf("%d callers: helper %d is still claimed after every region returned", callers, i)
			}
		}
	}
}

// TestParallelForPanicReleasesHelpers panics in the caller's part and
// recovers: the region must still wait for its helpers' parts and release
// them, so the next region runs on the helpers again.
func TestParallelForPanicReleasesHelpers(t *testing.T) {
	var ran [maxBatchWorkers]bool
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the caller's part did not panic")
			}
		}()
		parallelFor(maxBatchWorkers, partFunc(func(i int) {
			if i == 0 {
				panic("part 0")
			}
			ran[i] = true
		}))
	}()
	var seqs [maxBatchWorkers - 1]uint64
	for i := range helpers {
		if helpers[i].busy.Load() {
			t.Fatalf("helper %d is still claimed after a region panicked", i)
		}
		if !ran[i+1] {
			t.Fatalf("part %d had not run when the panicking region unwound", i+1)
		}
		seqs[i] = helpers[i].seq
	}
	parallelFor(maxBatchWorkers, partFunc(func(int) {}))
	for i := range helpers {
		if helpers[i].seq != seqs[i]+1 {
			t.Fatalf("the region after the panic did not run on helper %d", i)
		}
	}
}

// TestParallelForReleasesClosure holds the release rule: once a region
// returns, nothing parallelFor keeps (a helper's part) references its
// closure, so a helper parked between training steps cannot keep a step's
// arena alive.
func TestParallelForReleasesClosure(t *testing.T) {
	freed := make(chan struct{})
	func() {
		big := new([1 << 12]float64)
		runtime.SetFinalizer(big, func(*[1 << 12]float64) { close(freed) })
		parallelFor(maxBatchWorkers, partFunc(func(i int) { big[i]++ }))
	}()
	for tries := 0; ; tries++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if tries == 200 {
			t.Fatal("a region's closure is still reachable after parallelFor returned")
		}
	}
}

// TestParallelForHelpersPark checks that an idle process burns no CPU:
// once a region has ended and spinWindow has passed, every helper is
// parked on its channel. parkHook reports each park as it happens.
func TestParallelForHelpersPark(t *testing.T) {
	// Room for each helper's and the caller's parks, several times over:
	// parkHook drops a park the channel has no room for.
	parks := make(chan *signal, 4*maxBatchWorkers)
	parkHook.Store(&parks)
	defer parkHook.Store(nil)
	parallelFor(maxBatchWorkers, partFunc(func(int) {}))
	var seen [maxBatchWorkers - 1]bool
	timeout := time.After(time.Minute)
	for pending := len(helpers); pending > 0; {
		select {
		case s := <-parks:
			for i := range helpers {
				if s == &helpers[i].job && !seen[i] {
					seen[i] = true
					pending--
				}
			}
		case <-timeout:
			t.Fatalf("helpers %v have not parked a minute after their region (true = parked)", seen)
		}
	}
	for i := range helpers {
		if !helpers[i].job.parked.Load() {
			t.Fatalf("helper %d reported parking but is not parked", i)
		}
	}
}

// countParts is a part that counts its runs, so a region on it allocates
// nothing of its own.
type countParts [maxBatchWorkers]int

func (c *countParts) runPart(i int) { c[i]++ }

// TestParallelForAllocFree holds a region on claimed helpers to zero
// allocations at GOMAXPROCS=2: the part is handed over as an interface
// value, not a closure, and the signals poll or park without allocating.
// testing.AllocsPerRun pins GOMAXPROCS to 1, where parallelFor runs inline,
// so this counts the process's mallocs over whole runs of regions and takes
// the least of three counts.
func TestParallelForAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const regions = 200
	nw := maxWorkers(regions)
	if nw != 2 {
		t.Fatalf("maxWorkers at GOMAXPROCS=2 is %d, want 2", nw)
	}
	var p countParts
	parallelFor(nw, &p) // starts the helper
	handed := func() (n uint64) {
		for i := range helpers {
			n += helpers[i].seq
		}
		return n
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		seq := handed()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range regions {
			parallelFor(nw, &p)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
		if n := handed() - seq; n != regions {
			t.Fatalf("%d of %d regions ran on a helper", n, regions)
		}
	}
	if p[0] != 3*regions+1 || p[1] != p[0] {
		t.Fatalf("parts ran %v times, want %d each", p[:nw], 3*regions+1)
	}
	if least != 0 {
		t.Errorf("%d regions on the helpers allocated %d times (least of three runs), want 0", regions, least)
	}
}

// partFunc adapts a closure to a part, for tests whose regions capture
// their state.
type partFunc func(i int)

func (f partFunc) runPart(i int) { f(i) }

// TestConv2DCopyRunsItsOwnRegions holds a Conv2D copied by value to its own
// regions at GOMAXPROCS=2: the copy's forward and backward run on the
// copy's cache and region, and the original's pending backward still
// returns its own input gradient.
func TestConv2DCopyRunsItsOwnRegions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(66))
	input := func() *tensor.Tensor {
		x := tensor.New(8, 3, 8, 8)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		return x
	}
	for _, stride := range []int{1, 2} {
		c := NewConv2D(3, 4, 3, 3, stride, 1, Fixed(), Fixed(), true, rng)
		x1, x2 := input(), input()
		ctx := &Context{Training: true}
		want := func(x *tensor.Tensor) (y, dx []float64) {
			ref := *c
			out := ref.Forward(ctx, x)
			return out.Data, ref.Backward(ctx, out).Data
		}
		y1, dx1 := want(x1)
		y2, dx2 := want(x2)
		got1 := c.Forward(ctx, x1)
		cp := *c
		got2 := cp.Forward(ctx, x2)
		gdx2 := cp.Backward(ctx, got2)
		gdx1 := c.Backward(ctx, got1)
		for _, pair := range []struct {
			name      string
			got, want []float64
		}{{"copy y", got2.Data, y2}, {"copy dx", gdx2.Data, dx2}, {"original y", got1.Data, y1}, {"original dx", gdx1.Data, dx1}} {
			for i, v := range pair.want {
				if math.Float64bits(pair.got[i]) != math.Float64bits(v) {
					t.Fatalf("stride %d: %s[%d] = %v, want %v", stride, pair.name, i, pair.got[i], v)
				}
			}
		}
	}
}
