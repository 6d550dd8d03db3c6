package nn

import (
	"modelslicing/internal/tensor"
)

// Every Layer has two passes over the same weights. Forward trains: it
// caches backward state in layer fields and drops a Dense's weight packs,
// so a layer in Forward is a single-goroutine object. Infer serves and
// evaluates: it touches layer weights purely as inputs, writes no layer
// fields, and draws every activation from the Context's arena, so
//
//   - one weight set can serve any number of goroutines concurrently, and
//   - a steady-state inference pass performs zero heap allocations.
//
// Both passes compute the same function bit for bit on the exact tier; the
// eval-mode Forward survives only as the oracle tests compare Infer against.
// Slicing still comes from Context.Rate: because the GEMM kernels take
// leading dimensions, a sliced Infer reads the leading prefix of each weight
// buffer in place — the zero-copy view of the parent network that replaces
// materialized Extract copies on the serving path (Extract remains the
// deployment-export story).

// Infer runs one layer on the inference path.
func Infer(l Layer, ctx *Context, x *tensor.Tensor) *tensor.Tensor { return l.Infer(ctx, x) }

// arenaOf extracts the context's arena; both a nil context and a nil arena
// degrade to heap allocation, so layer code calls this unconditionally.
func arenaOf(ctx *Context) *tensor.Arena {
	if ctx == nil {
		return nil
	}
	return ctx.Arena
}
