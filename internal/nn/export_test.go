package nn

import "runtime"

// HoldHelpers claims every parallelFor helper, waiting for any a region
// holds, so that every region another caller opens runs its parts in order
// on its caller until release is called.
func HoldHelpers() (release func()) {
	for i := range helpers {
		for !helpers[i].busy.CompareAndSwap(false, true) {
			runtime.Gosched()
		}
	}
	return func() {
		for i := range helpers {
			helpers[i].busy.Store(false)
		}
	}
}

// HasGrad reports whether p's gradient has been allocated, without
// allocating it.
func HasGrad(p *Param) bool { return p.grad != nil }

// Unchunked returns a copy of the fused Sequential s that serves its trunk
// on the whole batch, as a pass did before the trunk was chunked.
func Unchunked(s *Sequential) *Sequential {
	u := *s
	u.trunk = 0
	return &u
}
