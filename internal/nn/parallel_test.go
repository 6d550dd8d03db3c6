package nn

import (
	"runtime"
	"sync"
	"testing"
	"time"
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
			parallelFor(nw, func(i int) {
				parts[i]++
				for b, end := span(n, nw, i); b < end; b++ {
					runs[b]++
					partOf[b] = i
				}
			})
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
				parallelFor(maxBatchWorkers, func(i int) {
					once.Do(func() { close(started[k]) })
					for _, ch := range started {
						<-ch
					}
					for b, end := span(n, maxBatchWorkers, i); b < end; b++ {
						runs[b]++
					}
				})
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
		parallelFor(maxBatchWorkers, func(i int) {
			if i == 0 {
				panic("part 0")
			}
			ran[i] = true
		})
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
	parallelFor(maxBatchWorkers, func(int) {})
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
		parallelFor(maxBatchWorkers, func(i int) { big[i]++ })
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
// parked on its channel.
func TestParallelForHelpersPark(t *testing.T) {
	parallelFor(maxBatchWorkers, func(int) {})
	deadline := time.Now().Add(10 * time.Second)
	for i := range helpers {
		for !helpers[i].job.parked.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("helper %d has not parked %v after its region", i, 10*time.Second)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
