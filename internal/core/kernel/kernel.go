// Package kernel provides the lane-block primitives of the multi-lane
// dynamic program: tight loops over contiguous []float64 blocks (one weight
// lane per probability assignment), written so the Go compiler eliminates
// bounds checks and keeps the loop bodies branch-free. Every DP row operation
// — accumulate, weighted accumulate, complement-weighted accumulate,
// pairwise multiply-accumulate — reduces to one of these, so the entire
// per-row cost of a batched evaluation is a handful of sequential float
// operations over adjacent memory.
//
// The loops are plain stride-1 Go: on amd64 the compiler emits unrolled
// scalar SSE2 by default and contracts the multiply-adds to FMA under
// GOAMD64=v3 (see BenchmarkKernels for the measured effect). Hand-written
// assembly would vectorize further but is deliberately avoided: the blocks
// are short (one per table row) and the portable form keeps every build —
// including -race and fuzzing — on the same code path.
//
// An Arena recycles the blocks between evaluations so the steady-state
// allocation-free property of the evaluation path survives the kernel layer.
package kernel

// AddTo accumulates src into dst: dst[i] += src[i]. The blocks must have
// equal length.
//
//pdblint:hotpath boundshint
func AddTo(dst, src []float64) {
	_ = src[len(dst)-1] // one bounds check for both blocks
	for i := range dst {
		dst[i] += src[i]
	}
}

// MulAdd accumulates v weighted by w into dst: dst[i] += v[i] * w[i]. It is
// both the forget-event kernel (w = the event's Bernoulli lane weights, for
// rows that recorded the event true) and the join kernel (w = the right
// child's row block). The blocks must have equal length.
//
//pdblint:hotpath boundshint
func MulAdd(dst, v, w []float64) {
	n := len(dst)
	_ = v[n-1]
	_ = w[n-1]
	for i := 0; i < n; i++ {
		dst[i] += v[i] * w[i]
	}
}

// FMAdd1m accumulates v weighted by the complement of w into dst:
// dst[i] += v[i] * (1 - w[i]) — the forget-event kernel for rows that
// recorded the event false. The blocks must have equal length.
//
//pdblint:hotpath boundshint
func FMAdd1m(dst, v, w []float64) {
	n := len(dst)
	_ = v[n-1]
	_ = w[n-1]
	for i := 0; i < n; i++ {
		dst[i] += v[i] * (1 - w[i])
	}
}

// ScaleAdd accumulates v scaled by the single weight c into dst:
// dst[i] += v[i] * c — the scalar-weight form used by the cross-shard fold
// and single-lane spine recomputation. The blocks must have equal length.
//
//pdblint:hotpath boundshint
func ScaleAdd(dst, v []float64, c float64) {
	_ = v[len(dst)-1]
	for i := range dst {
		dst[i] += v[i] * c
	}
}

// Fill sets every element of dst to v.
//
//pdblint:hotpath
func Fill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// Arena recycles lane blocks by power-of-two size class. Get returns a
// zeroed block; Put recycles one. A single evaluation acquires one block per
// DP node and releases it as soon as its parent has consumed it, so the
// arena's working set stays proportional to the live frontier of the
// bottom-up sweep, and repeated evaluations through a pooled evaluation
// state allocate nothing at steady state.
//
// An Arena is single-writer, like the evaluation state embedding it.
type Arena struct {
	free [33][][]float64
}

// class returns the smallest power-of-two class index holding n elements.
func class(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// Get returns a zeroed block of length n, recycling a previously Put block
// of the same size class when one is free.
//
//pdblint:hotpath
func (a *Arena) Get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := class(n)
	if l := len(a.free[c]); l > 0 {
		b := a.free[c][l-1]
		a.free[c] = a.free[c][:l-1]
		b = b[:n]
		clear(b)
		return b
	}
	return make([]float64, n, 1<<c)
}

// Put recycles a block obtained from Get. The caller must not use the block
// afterwards.
//
//pdblint:hotpath
func (a *Arena) Put(b []float64) {
	if cap(b) == 0 {
		return
	}
	c := class(cap(b))
	if 1<<c != cap(b) {
		c-- // capacity between classes: file under the class it can serve
	}
	a.free[c] = append(a.free[c], b[:cap(b)])
}
