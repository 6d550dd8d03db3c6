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
