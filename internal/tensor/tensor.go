// Package tensor provides dense float64 tensors and the numerical kernels
// (GEMM, im2col, elementwise operations, reductions) that the neural-network
// layers in internal/nn are built on.
//
// Tensors are row-major and always contiguous. The package is deliberately
// small: it implements exactly the operations the model-slicing engine needs,
// with deterministic behaviour (all randomness is injected via *rand.Rand).
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float64 tensor. The zero value is not usable;
// construct tensors with New or FromSlice.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the contiguous row-major backing storage of length Size().
	Data []float64
}

// New allocates a zero-filled tensor of the given shape.
// It panics if any dimension is non-positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape without copying.
// It panics if len(data) does not match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (size %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Size returns the number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the extent of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index (rank must match).
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set assigns v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Row returns a view of row i of a rank-2 tensor as a slice (no copy).
func (t *Tensor) Row(i int) []float64 {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Row requires rank 2, have shape %v", t.Shape))
	}
	w := t.Shape[1]
	return t.Data[i*w : (i+1)*w]
}

// String renders a compact description, eliding large tensors.
func (t *Tensor) String() string {
	if t.Size() <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elems]", t.Shape, t.Size())
}

// Add computes t += o element-wise.
func (t *Tensor) Add(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Add size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Sub computes t -= o element-wise.
func (t *Tensor) Sub(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: Sub size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// Scale multiplies every element by a.
func (t *Tensor) Scale(a float64) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// AddScaled computes t += a*o element-wise.
func (t *Tensor) AddScaled(a float64, o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgMax returns the index of the largest element in row-major order.
func (t *Tensor) ArgMax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ArgMaxRow returns, for a rank-2 tensor, the argmax of row i.
func (t *Tensor) ArgMaxRow(i int) int {
	row := t.Row(i)
	best, bi := math.Inf(-1), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

// AllFinite reports whether every element is finite (no NaN/Inf).
func (t *Tensor) AllFinite() bool {
	for _, v := range t.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
