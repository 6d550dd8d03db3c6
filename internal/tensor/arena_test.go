package tensor

import (
	"runtime"
	"testing"
	"time"
)

func TestArenaGetZeroed(t *testing.T) {
	a := NewArena()
	x := a.Get(3, 4)
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	a.Reset()
	y := a.Get(4, 3)
	if y.Size() != 12 {
		t.Fatalf("size %d", y.Size())
	}
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %g", i, v)
		}
	}
	if y.Dim(0) != 4 || y.Dim(1) != 3 {
		t.Fatalf("shape %v", y.Shape)
	}
}

func TestArenaGrowsToHighWater(t *testing.T) {
	a := NewArena()
	a.Get(100)
	a.Get(50)
	a.Reset()
	if got := a.Footprint(); got != 150 {
		t.Fatalf("footprint %d after first cycle, want 150", got)
	}
	// Second cycle fits entirely; footprint stable.
	a.Get(100)
	a.Get(50)
	a.Reset()
	if got := a.Footprint(); got != 150 {
		t.Fatalf("footprint %d after repeat cycle, want 150", got)
	}
	// A bigger cycle grows it again.
	a.Get(200)
	a.Reset()
	if got := a.Footprint(); got < 200 {
		t.Fatalf("footprint %d after larger cycle, want ≥ 200", got)
	}
}

func TestArenaSteadyStateAllocs(t *testing.T) {
	a := NewArena()
	warm := func() {
		x := a.Get(8, 16)
		y := a.Get(16)
		_ = a.Wrap(x.Data, 16, 8)
		_ = y
		a.Reset()
	}
	warm()
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %v times, want 0", allocs)
	}
}

func TestArenaNilFallback(t *testing.T) {
	var a *Arena
	x := a.Get(2, 2)
	if x.Size() != 4 {
		t.Fatalf("nil-arena Get size %d", x.Size())
	}
	w := a.Wrap(x.Data, 4)
	if w.Dim(0) != 4 {
		t.Fatalf("nil-arena Wrap shape %v", w.Shape)
	}
	a.Reset() // must not panic
	if a.Footprint() != 0 {
		t.Fatal("nil-arena footprint")
	}
}

func TestArenaWrapSharesData(t *testing.T) {
	a := NewArena()
	x := a.Get(2, 6)
	v := a.Wrap(x.Data, 3, 4)
	v.Data[5] = 7
	if x.Data[5] != 7 {
		t.Fatal("Wrap does not alias the underlying data")
	}
}

// pingPong runs one layer loop the way nn.Sequential.Infer does: layer i
// takes sizes[i] elements (filled with i+1) from the half it flips to, and
// the half is released to the entry mark first. It returns every layer's
// output.
func pingPong(a *Arena, sizes ...int) []*Tensor {
	m := a.Mark()
	outs := make([]*Tensor, len(sizes))
	for i, n := range sizes {
		if i > 0 {
			a.Flip(m, true)
		}
		outs[i] = a.Get(n)
		for j := range outs[i].Data {
			outs[i].Data[j] = float64(i + 1)
		}
	}
	return outs
}

func TestArenaReleaseReusesHalfAndRezeroes(t *testing.T) {
	a := NewArena()
	pingPong(a, 8, 8, 8)
	a.Reset()
	outs := pingPong(a, 8, 8, 8)
	// Layers 0 and 2 ran on half 0 with layer 1 in between: the release
	// handed layer 2 layer 0's storage.
	if &outs[0].Data[0] != &outs[2].Data[0] {
		t.Fatal("a released half was not reused")
	}
	if &outs[1].Data[0] == &outs[0].Data[0] {
		t.Fatal("adjacent layers share storage")
	}
	// Layer 2 filled its storage with 3s; release it again and Get must
	// hand back zeros.
	m := ArenaMark{}
	a.Flip(m, true)
	a.Flip(m, true)
	y := a.Get(8)
	if &y.Data[0] != &outs[2].Data[0] {
		t.Fatal("release to the cycle start did not reuse the slab")
	}
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("reused memory not zeroed at %d: %g", i, v)
		}
	}
}

func TestArenaMarkProtectsEarlierAllocations(t *testing.T) {
	a := NewArena()
	for cycle := 0; cycle < 3; cycle++ {
		batch := a.Get(16)
		for i := range batch.Data {
			batch.Data[i] = -1
		}
		// A second half-1 allocation before the mark must survive too.
		a.Flip(a.Mark(), false)
		held := a.Get(4)
		held.Data[0] = -2
		a.Flip(a.Mark(), false)
		pingPong(a, 10, 12, 14, 16, 18, 20, 22)
		for i, v := range batch.Data {
			if v != -1 {
				t.Fatalf("cycle %d: batch element %d overwritten with %g", cycle, i, v)
			}
		}
		if held.Data[0] != -2 {
			t.Fatalf("cycle %d: half-1 allocation below the mark overwritten", cycle)
		}
		a.Reset()
	}
}

func TestArenaSpillSizesHalvesToPeak(t *testing.T) {
	a := NewArena()
	// Half 0 holds layers 0, 2, 4: its peak is one layer (50), its
	// cumulative allocation 150; half 1 holds layers 1 and 3 (peak 30).
	pingPong(a, 50, 30, 50, 30, 50)
	a.Reset()
	if got := a.Footprint(); got != 80 {
		t.Fatalf("footprint %d after a spilling ping-pong cycle, want 50+30", got)
	}
	if got := a.HighWaterBytes(); got != 8*80 {
		t.Fatalf("high water %d bytes, want %d", got, 8*80)
	}
	pingPong(a, 50, 30, 50, 30, 50)
	a.Reset()
	if got := a.Footprint(); got != 80 {
		t.Fatalf("footprint %d after a repeat cycle, want 80", got)
	}
}

func TestArenaFlippingCycleAllocFree(t *testing.T) {
	a := NewArena()
	cycle := func() {
		x := a.Get(8, 4)
		m := a.Mark()
		for i := 0; i < 6; i++ {
			a.Flip(m, true)
			y := a.GetUninit(8, 16)
			_ = a.Get(16)
			_ = a.Wrap(y.Data, 128)
		}
		a.Flip(m, false)
		_ = x
		a.Reset()
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state flipping cycle allocates %v times, want 0", allocs)
	}
}

// TestArenaReleaseChunkLoop runs the chunk loop of nn.Sequential.Infer: a
// ping-pong per chunk, each released to a mark taken after the pass's
// output. Release must roll back both halves, the current half and the
// headers, so the arena holds one chunk's storage and headers whatever the
// number of chunks, everything below the mark survives, and the steady
// state allocates nothing.
func TestArenaReleaseChunkLoop(t *testing.T) {
	a := NewArena()
	chunks := func(n int) {
		out := a.Get(n)
		m := a.Mark()
		for c := 0; c < n; c++ {
			// pingPong without its slices, which would allocate.
			y := a.Get(10)
			for i, size := range [...]int{30, 20} {
				a.Flip(m, true)
				y = a.Get(size)
				y.Data[0] = float64(i + 2)
			}
			out.Data[c] = y.Data[0]
			a.Release(m)
			if a.Mark() != m {
				t.Fatalf("chunk %d: Release left the arena at %+v, want the mark %+v", c, a.Mark(), m)
			}
		}
		for c, v := range out.Data {
			if v != 3 {
				t.Fatalf("output below the mark overwritten at %d: %g", c, v)
			}
		}
		a.Reset()
	}
	chunks(2)
	chunks(2)
	fp, hdrs := a.Footprint(), len(a.hdrs)
	chunks(40)
	if got := a.Footprint(); got != fp+38 {
		t.Fatalf("footprint %d after 40 chunks, want %d: one chunk's storage plus the output's extra rows", got, fp+38)
	}
	if len(a.hdrs) != hdrs {
		t.Fatalf("40 chunks handed out %d headers, 2 chunks %d: Release did not recycle them", len(a.hdrs), hdrs)
	}
	if allocs := testing.AllocsPerRun(100, func() { chunks(40) }); allocs != 0 {
		t.Fatalf("steady-state chunk loop allocates %v times, want 0", allocs)
	}
	var nilArena *Arena
	nilArena.Release(nilArena.Mark()) // must not panic
}

func TestArenaGetUninitReusesSlabWithoutClearing(t *testing.T) {
	a := NewArena()
	a.Get(16) // first cycle spills to the heap and grows the slab on Reset
	a.Reset()
	x := a.Get(16) // second cycle writes through the slab
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	a.Reset()
	y := a.GetUninit(16)
	if &y.Data[0] != &x.Data[0] {
		t.Fatal("GetUninit did not reuse the slab")
	}
	dirty := false
	for _, v := range y.Data {
		if v != 0 {
			dirty = true
		}
	}
	if !dirty {
		t.Fatal("GetUninit cleared the slab; expected the previous cycle's contents")
	}
	// Nil arenas and shape handling mirror Get.
	var nilArena *Arena
	z := nilArena.GetUninit(2, 3)
	if z.Size() != 6 || z.Dim(0) != 2 {
		t.Fatalf("nil-arena GetUninit shape %v", z.Shape)
	}
	a.Reset()
	if w := a.Get(16); true {
		for i, v := range w.Data {
			if v != 0 {
				t.Fatalf("Get after GetUninit not zeroed at %d: %g", i, v)
			}
		}
	}
}

// TestArenaResetDropsOutgrownMemory: once Reset has grown a half, neither
// the slab it outgrew nor the finished cycle's spilled buffers may stay
// reachable through the arena's recycled headers.
func TestArenaResetDropsOutgrownMemory(t *testing.T) {
	a := NewArena()
	spilled, outgrown := make(chan struct{}), make(chan struct{})
	func() {
		a.Get(100) // spills: the slab is empty
		a.Reset()
		// The next cycle fills the 100-element slab and spills past it, so
		// Reset replaces the slab.
		runtime.SetFinalizer(&a.halves[0].slab[0], func(*float64) { close(outgrown) })
		a.Get(100)
		x := a.Get(300)
		runtime.SetFinalizer(&x.Data[0], func(*float64) { close(spilled) })
		a.Reset()
	}()
	for name, freed := range map[string]chan struct{}{"spilled buffer": spilled, "outgrown slab": outgrown} {
		for tries := 0; ; tries++ {
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(10 * time.Millisecond):
				if tries < 200 {
					continue
				}
				t.Fatalf("the %s is still reachable after Reset", name)
			}
			break
		}
	}
	if got := a.Footprint(); got != 400 {
		t.Fatalf("footprint %d after the growing cycle, want 400", got)
	}
	if x := a.Get(400); len(x.Data) != 400 {
		t.Fatalf("Get after Reset returned %d elements", len(x.Data))
	}
	runtime.KeepAlive(a)
}
