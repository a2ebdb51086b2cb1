package treedec

import "testing"

// pathGraph returns the path 0-1-...-(n-1).
func pathGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestNiceDepthAndStats(t *testing.T) {
	g := pathGraph(6)
	d := Decompose(g, MinDegree)
	nice := MakeNice(d)
	if err := nice.Validate(g); err != nil {
		t.Fatal(err)
	}
	depths := nice.Depths()
	if depths[nice.Root] != 0 {
		t.Errorf("root depth = %d", depths[nice.Root])
	}
	for i, nd := range nice.Nodes {
		for _, c := range nd.Children {
			if depths[c] != depths[i]+1 {
				t.Errorf("child %d depth %d, parent %d depth %d", c, depths[c], i, depths[i])
			}
		}
	}
	st := nice.Stats()
	if st.Nodes != nice.NumNodes() || st.Width != nice.Width() || st.MaxBag != st.Width+1 {
		t.Errorf("stats = %+v (nodes %d, width %d)", st, nice.NumNodes(), nice.Width())
	}
	if st.Depth != nice.Depth() || st.Depth <= 0 {
		t.Errorf("depth = %d", st.Depth)
	}

	ds := d.Stats()
	if ds.Width != d.Width() || ds.Nodes != d.NumNodes() {
		t.Errorf("decomposition stats = %+v", ds)
	}
	if ds.Depth <= 0 || ds.Depth >= d.NumNodes() {
		t.Errorf("decomposition depth = %d of %d nodes", ds.Depth, d.NumNodes())
	}
}

func TestAttachPoint(t *testing.T) {
	g := pathGraph(6)
	nice := MakeNice(Decompose(g, MinDegree))
	depths := nice.Depths()
	ix := nice.NewAttachIndex()

	// Every edge of the path is a clique and must have a covering bag.
	for v := 0; v+1 < 6; v++ {
		at := ix.Find([]int{v, v + 1})
		if at < 0 {
			t.Fatalf("no attach point for edge {%d,%d}", v, v+1)
		}
		if !containsAll(nice.Nodes[at].Bag, []int{v, v + 1}) {
			t.Errorf("attach bag %v does not cover {%d,%d}", nice.Nodes[at].Bag, v, v+1)
		}
		// Shallowest: no covering node may be strictly shallower.
		for i, nd := range nice.Nodes {
			if containsAll(nd.Bag, []int{v, v + 1}) && depths[i] < depths[at] {
				t.Errorf("attach point %d (depth %d) not shallowest: node %d at depth %d", at, depths[at], i, depths[i])
			}
		}
	}

	// Non-adjacent endpoints share no bag on a path decomposition.
	if at := ix.Find([]int{0, 5}); at >= 0 {
		t.Errorf("unexpected covering bag %v for {0,5}", nice.Nodes[at].Bag)
	}
	// The empty scope attaches at the root.
	if at := ix.Find(nil); at != nice.Root {
		t.Errorf("empty scope attach = %d, want root %d", at, nice.Root)
	}
}
