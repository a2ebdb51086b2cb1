package kernel

import (
	"fmt"
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPrimitives(t *testing.T) {
	for _, n := range []int{1, 3, 8, 64, 257} {
		dst := make([]float64, n)
		v := make([]float64, n)
		w := make([]float64, n)
		for i := range v {
			dst[i] = float64(i)
			v[i] = 0.5 + float64(i%7)/10
			w[i] = float64(i%11) / 10
		}
		ref := append([]float64(nil), dst...)

		AddTo(dst, v)
		for i := range dst {
			if !almost(dst[i], ref[i]+v[i]) {
				t.Fatalf("AddTo n=%d i=%d: %v", n, i, dst[i])
			}
		}
		copy(ref, dst)
		MulAdd(dst, v, w)
		for i := range dst {
			if !almost(dst[i], ref[i]+v[i]*w[i]) {
				t.Fatalf("MulAdd n=%d i=%d: %v", n, i, dst[i])
			}
		}
		copy(ref, dst)
		FMAdd1m(dst, v, w)
		for i := range dst {
			if !almost(dst[i], ref[i]+v[i]*(1-w[i])) {
				t.Fatalf("FMAdd1m n=%d i=%d: %v", n, i, dst[i])
			}
		}
		copy(ref, dst)
		ScaleAdd(dst, v, 0.25)
		for i := range dst {
			if !almost(dst[i], ref[i]+0.25*v[i]) {
				t.Fatalf("ScaleAdd n=%d i=%d: %v", n, i, dst[i])
			}
		}
		Fill(dst, 0.75)
		for i := range dst {
			if dst[i] != 0.75 {
				t.Fatalf("Fill n=%d i=%d: %v", n, i, dst[i])
			}
		}
	}
}

func TestArenaRecyclesAndZeroes(t *testing.T) {
	var a Arena
	b := a.Get(48)
	if len(b) != 48 || cap(b) != 64 {
		t.Fatalf("Get(48): len=%d cap=%d, want 48/64", len(b), cap(b))
	}
	for i := range b {
		b[i] = 1
	}
	a.Put(b)
	c := a.Get(50) // same class: must reuse and come back zeroed
	if cap(c) != 64 {
		t.Fatalf("Get(50) after Put: cap=%d, want recycled 64", cap(c))
	}
	for i, x := range c {
		if x != 0 {
			t.Fatalf("recycled block not zeroed at %d: %v", i, x)
		}
	}
	if got := a.Get(0); got != nil {
		t.Fatalf("Get(0) = %v, want nil", got)
	}
	a.Put(nil) // must not panic
}

// BenchmarkKernels measures the primitives at the block sizes the DP uses
// (the lane counts of a batch). Run with GOAMD64=v3 to see the FMA effect.
func BenchmarkKernels(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		dst := make([]float64, n)
		v := make([]float64, n)
		w := make([]float64, n)
		for i := range v {
			v[i] = 0.5
			w[i] = 0.25
		}
		b.Run(fmt.Sprintf("MulAdd/lanes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulAdd(dst, v, w)
			}
		})
		b.Run(fmt.Sprintf("AddTo/lanes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AddTo(dst, v)
			}
		})
	}
}
