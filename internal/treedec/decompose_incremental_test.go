package treedec

import (
	"math/rand"
	"testing"
)

// naiveMinFillOrder is the pre-optimization reference: full greedy rescan of
// every live vertex at every step, ties to the lowest vertex index.
func naiveMinFillOrder(g *Graph) []int {
	n := g.N()
	work := g.Clone()
	eliminated := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestScore := -1, 0
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			score := fillIn(work, v)
			if best < 0 || score < bestScore {
				best, bestScore = v, score
			}
		}
		order = append(order, best)
		eliminateVertex(work, best)
		eliminated[best] = true
	}
	return order
}

// eliminateVertex connects the neighbourhood of v into a clique and removes
// v from the working graph.
func eliminateVertex(g *Graph, v int) {
	g.eliminate(v, nil)
}

// minFillOrder returns the min-fill elimination order of g.
func minFillOrder(g *Graph) []int {
	return EliminationOrder(g, MinFill)
}

func TestMinFillIncrementalMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(24)
		g := randomGraph(r, n, 0.08+0.4*r.Float64())
		want := naiveMinFillOrder(g)
		got := minFillOrder(g)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d): incremental order %v differs from naive %v at %d",
					trial, n, got, want, i)
			}
		}
	}
}

func TestBagContainingIndexed(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 2+r.Intn(20), 0.3)
		d := Decompose(g, MinFill)
		// Every edge must be locatable through the index.
		for _, e := range g.Edges() {
			if d.BagContaining([]int{e[0], e[1]}) < 0 {
				t.Fatalf("trial %d: edge %v not found in any bag", trial, e)
			}
		}
		// A vertex beyond the domain is never found and must not panic.
		if d.BagContaining([]int{g.N() + 5}) != -1 {
			t.Fatalf("trial %d: found bag for out-of-range vertex", trial)
		}
	}
}
