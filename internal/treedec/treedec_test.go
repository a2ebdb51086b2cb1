package treedec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // parallel edge collapsed
	g.AddEdge(3, 3) // self-loop ignored
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Error("HasEdge misbehaves")
	}
	if got := g.Degree(1); got != 2 {
		t.Errorf("Degree(1) = %d, want 2", got)
	}
	ns := g.Neighbors(1)
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 2 {
		t.Errorf("Neighbors(1) = %v", ns)
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Errorf("Components = %v, want 2 components", comps)
	}
}

func TestFamilies(t *testing.T) {
	if w := Treewidth(Path(10)); w != 1 {
		t.Errorf("treewidth(path) = %d, want 1", w)
	}
	if w := Treewidth(Cycle(10)); w != 2 {
		t.Errorf("treewidth(cycle) = %d, want 2", w)
	}
	if w := Treewidth(Complete(5)); w != 4 {
		t.Errorf("treewidth(K5) = %d, want 4", w)
	}
	// Grid treewidth min(r,c); heuristics may overshoot slightly but must be
	// >= the true value and small.
	w := Treewidth(Grid(3, 8))
	if w < 3 || w > 5 {
		t.Errorf("treewidth(3x8 grid) = %d, want in [3,5]", w)
	}
}

func TestDecomposeValidOnFamilies(t *testing.T) {
	graphs := map[string]*Graph{
		"path":     Path(12),
		"cycle":    Cycle(9),
		"complete": Complete(6),
		"grid":     Grid(4, 4),
		"single":   NewGraph(1),
		"empty":    NewGraph(0),
		"isolated": NewGraph(5),
	}
	for name, g := range graphs {
		for _, h := range []Heuristic{MinDegree, MinFill} {
			d := Decompose(g, h)
			if err := d.Validate(g); err != nil {
				t.Errorf("%s/%v: invalid decomposition: %v", name, h, err)
			}
		}
	}
}

func randomGraph(r *rand.Rand, n int, p float64) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestPropertyDecomposeAlwaysValid(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(14), r.Float64())
		d := Decompose(g, MinFill)
		if d.Validate(g) != nil {
			return false
		}
		d2 := Decompose(g, MinDegree)
		return d2.Validate(g) == nil
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyNicePreservesValidityAndWidth(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(12), r.Float64())
		d := Decompose(g, MinFill)
		nice := MakeNice(d)
		if nice.Validate(g) != nil {
			return false
		}
		return nice.Width() == d.Width()
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyColourProperPerBag: Colour gives the coloured members of every
// bag distinct colours, uses no more colours than the widest bag holds, and
// leaves the uncoloured vertices (ids at or above the bound) alone.
func TestPropertyColourProperPerBag(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(14), r.Float64())
		nice := MakeNice(Decompose(g, MinFill))
		nv := r.Intn(g.N() + 1)
		colour := nice.Colour(nv)
		if len(colour) != nv {
			return false
		}
		for _, nd := range nice.Nodes {
			seen := map[int]bool{}
			for _, v := range nd.Bag {
				if v >= nv {
					continue
				}
				c := colour[v]
				if c < 0 || c > nice.Width() || seen[c] {
					t.Logf("seed %d: bag %v colours %v", seed, nd.Bag, colour)
					return false
				}
				seen[c] = true
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestNiceStructure(t *testing.T) {
	g := Cycle(6)
	nice := MakeNice(Decompose(g, MinFill))
	if err := nice.Validate(g); err != nil {
		t.Fatalf("invalid nice decomposition: %v", err)
	}
	if len(nice.Nodes[nice.Root].Bag) != 0 {
		t.Error("root bag must be empty")
	}
	order := nice.PostOrder()
	if order[len(order)-1] != nice.Root {
		t.Error("post-order must end at root")
	}
	seen := make(map[int]bool)
	for _, i := range order {
		for _, c := range nice.Nodes[i].Children {
			if !seen[c] {
				t.Error("post-order visits parent before child")
			}
		}
		seen[i] = true
	}
}

func TestAssignScopes(t *testing.T) {
	g := Path(5)
	nice := MakeNice(Decompose(g, MinDegree))
	scopes := [][]int{{0, 1}, {1, 2}, {3, 4}, {2}}
	assign, err := nice.AssignScopes(scopes)
	if err != nil {
		t.Fatalf("AssignScopes: %v", err)
	}
	for i, nodeID := range assign {
		if !containsAll(nice.Nodes[nodeID].Bag, scopes[i]) {
			t.Errorf("scope %v assigned to bag %v", scopes[i], nice.Nodes[nodeID].Bag)
		}
	}
	// A scope that is not a clique of the graph may fit in no bag.
	if _, err := nice.AssignScopes([][]int{{0, 4}}); err == nil {
		t.Error("expected error for uncoverable scope")
	}
}

func TestValidateCatchesBrokenDecompositions(t *testing.T) {
	g := Path(3)
	// Missing edge coverage.
	d := &Decomposition{Bags: [][]int{{0, 1}, {2}}, Parent: []int{-1, 0}}
	if err := d.Validate(g); err == nil {
		t.Error("expected edge-coverage error")
	}
	// Missing vertex.
	d = &Decomposition{Bags: [][]int{{0, 1}}, Parent: []int{-1}}
	if err := d.Validate(g); err == nil {
		t.Error("expected vertex-coverage error")
	}
	// Disconnected occurrences of vertex 0.
	d = &Decomposition{
		Bags:   [][]int{{0, 1}, {1, 2}, {0}},
		Parent: []int{-1, 0, 1},
	}
	if err := d.Validate(g); err == nil {
		t.Error("expected connectivity error")
	}
	// Valid one.
	d = &Decomposition{Bags: [][]int{{0, 1}, {1, 2}}, Parent: []int{-1, 0}}
	if err := d.Validate(g); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestFromEliminationOrderPathOptimal(t *testing.T) {
	g := Path(8)
	d := FromEliminationOrder(g, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err := d.Validate(g); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if d.Width() != 1 {
		t.Errorf("width = %d, want 1", d.Width())
	}
}

func TestBagContaining(t *testing.T) {
	d := &Decomposition{Bags: [][]int{{0, 1, 2}, {2, 3}}, Parent: []int{-1, 0}}
	if i := d.BagContaining([]int{1, 2}); i != 0 {
		t.Errorf("BagContaining({1,2}) = %d, want 0", i)
	}
	if i := d.BagContaining([]int{1, 3}); i != -1 {
		t.Errorf("BagContaining({1,3}) = %d, want -1", i)
	}
}

func TestDecompositionChildrenRoots(t *testing.T) {
	d := &Decomposition{Bags: [][]int{{0}, {0}, {0}}, Parent: []int{-1, 0, 0}}
	ch := d.Children()
	if len(ch[0]) != 2 {
		t.Errorf("children of root = %v", ch[0])
	}
	if rs := d.Roots(); len(rs) != 1 || rs[0] != 0 {
		t.Errorf("roots = %v", rs)
	}
}

func TestComponents(t *testing.T) {
	// A path, an isolated vertex, and a triangle: three components.
	g := NewGraph(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	g.AddEdge(5, 6)
	g.AddEdge(6, 4)
	p := Components(g)
	if p.N != 3 {
		t.Fatalf("N = %d, want 3", p.N)
	}
	wantComp := []int{0, 0, 0, 1, 2, 2, 2}
	for v, c := range p.Comp {
		if c != wantComp[v] {
			t.Errorf("vertex %d in component %d, want %d", v, c, wantComp[v])
		}
	}
	members := p.Members()
	if got := members[2]; len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Errorf("component 2 = %v", got)
	}
	if Components(NewGraph(0)).N != 0 {
		t.Error("empty graph has components")
	}
}
