package treedec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/treedec"
)

// TestDecomposeEqualsTwoPass checks that the single elimination pass of
// Decompose builds exactly the decomposition of the two-pass construction,
// FromEliminationOrder over EliminationOrder, bag for bag and parent for
// parent, for both heuristics.
func TestDecomposeEqualsTwoPass(t *testing.T) {
	graphs := map[string]*treedec.Graph{
		"grid3x8":   treedec.Grid(3, 8),
		"grid5x5":   treedec.Grid(5, 5),
		"complete1": treedec.Complete(1),
		"complete7": treedec.Complete(7),
		"empty":     treedec.NewGraph(0),
		"isolated":  treedec.NewGraph(6),
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 12; i++ {
		k := 1 + i%4
		g, _ := gen.PartialKTree(10+7*i, k, 0.5+0.04*float64(i), r)
		graphs[fmt.Sprintf("ktree%d/k=%d", i, k)] = g
	}
	for i := 0; i < 6; i++ {
		// A sparse random graph padded with isolated vertices.
		n := 5 + 4*i
		g := treedec.NewGraph(n + 3)
		for e := 0; e < 2*n; e++ {
			g.AddEdge(r.Intn(n), r.Intn(n))
		}
		graphs[fmt.Sprintf("sparse%d+isolated", i)] = g
	}
	for name, g := range graphs {
		for _, h := range []treedec.Heuristic{treedec.MinDegree, treedec.MinFill} {
			got := treedec.Decompose(g, h)
			want := treedec.FromEliminationOrder(g, treedec.EliminationOrder(g, h))
			if len(got.Bags) != len(want.Bags) {
				t.Fatalf("%s/h=%d: %d bags, want %d", name, h, len(got.Bags), len(want.Bags))
			}
			for i := range want.Bags {
				if !slices.Equal(got.Bags[i], want.Bags[i]) || got.Parent[i] != want.Parent[i] {
					t.Fatalf("%s/h=%d: node %d is bag %v parent %d, want bag %v parent %d",
						name, h, i, got.Bags[i], got.Parent[i], want.Bags[i], want.Parent[i])
				}
			}
			if err := got.Validate(g); err != nil {
				t.Fatalf("%s/h=%d: %v", name, h, err)
			}
		}
	}
}

// TestGraphAdjacency covers the sorted-list adjacency: parallel edges
// collapse, self-loops are ignored, Neighbors is sorted and owned by the
// caller, and a clone is independent of its source.
func TestGraphAdjacency(t *testing.T) {
	g := treedec.NewGraph(6)
	for _, e := range [][2]int{{3, 1}, {1, 5}, {1, 0}, {5, 1}, {1, 3}, {2, 2}, {4, 1}} {
		g.AddEdge(e[0], e[1])
	}
	if got, want := g.NumEdges(), 4; got != want {
		t.Errorf("NumEdges = %d, want %d (parallel edges collapse)", got, want)
	}
	if g.HasEdge(2, 2) || g.Degree(2) != 0 {
		t.Error("a self-loop was recorded")
	}
	ns := g.Neighbors(1)
	if want := []int{0, 3, 4, 5}; !slices.Equal(ns, want) {
		t.Fatalf("Neighbors(1) = %v, want %v", ns, want)
	}
	ns[0], ns[1] = 5, 5
	if again := g.Neighbors(1); !slices.Equal(again, []int{0, 3, 4, 5}) || !g.HasEdge(1, 0) || g.Degree(1) != 4 {
		t.Errorf("mutating the Neighbors result changed the graph: Neighbors(1) = %v", again)
	}
	if want := [][2]int{{0, 1}, {1, 3}, {1, 4}, {1, 5}}; !slices.Equal(g.Edges(), want) {
		t.Errorf("Edges = %v, want %v", g.Edges(), want)
	}

	h := g.Clone()
	h.AddEdge(0, 2)
	h.AddEdge(3, 4)
	g.AddEdge(2, 5)
	if g.HasEdge(0, 2) || g.HasEdge(3, 4) || g.NumEdges() != 5 {
		t.Errorf("an edge added to the clone reached the source: %v", g.Edges())
	}
	if h.HasEdge(2, 5) || h.NumEdges() != 6 {
		t.Errorf("an edge added to the source reached the clone: %v", h.Edges())
	}
	for v := 0; v < h.N(); v++ {
		if ns := h.Neighbors(v); !slices.IsSorted(ns) {
			t.Errorf("clone Neighbors(%d) = %v, not sorted", v, ns)
		}
	}

	// The clique builder yields the graph AddClique does.
	cliques := [][]int{{0, 1, 2}, {2, 3}, {3, 3}, {1, 2}, {4}}
	want := treedec.NewGraph(6)
	for _, c := range cliques {
		want.AddClique(c)
	}
	if got := treedec.NewGraphFromCliques(6, cliques); !slices.Equal(got.Edges(), want.Edges()) {
		t.Errorf("NewGraphFromCliques edges %v, want %v", got.Edges(), want.Edges())
	}
}
