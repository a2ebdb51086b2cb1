package treedec

// Stats summarizes the shape of a (nice) tree decomposition. Width bounds the
// table sizes of the dynamic programs; Depth bounds the number of bags an
// incremental update has to recompute (the dirty root-path spine of
// internal/incr), so shallow decompositions serve updates faster.
type Stats struct {
	Nodes  int // tree nodes
	Width  int // max bag size minus one (-1 for the empty decomposition)
	MaxBag int // max bag size
	Depth  int // longest root-to-node path, in edges
}

// Depths returns, for every node under Root, its distance from the root in
// edges (the root has depth 0). Nodes not reachable from Root keep depth 0.
func (n *Nice) Depths() []int {
	depth := make([]int, len(n.Nodes))
	var visit func(t, d int)
	visit = func(t, d int) {
		depth[t] = d
		for _, c := range n.Nodes[t].Children {
			visit(c, d+1)
		}
	}
	if len(n.Nodes) > 0 {
		visit(n.Root, 0)
	}
	return depth
}

// Depth returns the depth of the nice decomposition: the longest
// root-to-leaf path, in edges.
func (n *Nice) Depth() int {
	max := 0
	for _, d := range n.Depths() {
		if d > max {
			max = d
		}
	}
	return max
}

// Stats returns the shape statistics of the nice decomposition.
func (n *Nice) Stats() Stats {
	maxBag := 0
	for _, nd := range n.Nodes {
		if len(nd.Bag) > maxBag {
			maxBag = len(nd.Bag)
		}
	}
	return Stats{
		Nodes:  len(n.Nodes),
		Width:  maxBag - 1,
		MaxBag: maxBag,
		Depth:  n.Depth(),
	}
}

// AttachPoint returns the shallowest node whose bag contains every vertex of
// scope, or -1 when no bag covers the scope. It is the attach-point search of
// incremental fact insertion: a new fact whose argument vertices all sit in
// one existing bag can be absorbed by splicing nodes above that bag, and the
// shallower the bag, the shorter the dirty spine every later update on that
// fact has to recompute. An empty scope attaches at the root.
func (n *Nice) AttachPoint(scope []int) int {
	if len(n.Nodes) == 0 {
		return -1
	}
	if len(scope) == 0 {
		return n.Root
	}
	depths := n.Depths()
	bags := make([][]int, len(n.Nodes))
	for i, nd := range n.Nodes {
		bags[i] = nd.Bag
	}
	occ := vertexOccurrences(bags, nil)
	// Scan only the occurrence list of the rarest vertex of the scope.
	node := -1
	for _, t := range occ.row(rarest(occ, scope)) {
		if containsAll(bags[t], scope) && (node < 0 || depths[t] < depths[node]) {
			node = t
		}
	}
	return node
}

// Depth returns the depth of the decomposition forest: the longest
// root-to-node path, in edges.
func (d *Decomposition) Depth() int {
	depth := make([]int, len(d.Parent))
	for i := range depth {
		depth[i] = -1
	}
	max := 0
	var at func(i int) int
	at = func(i int) int {
		if depth[i] >= 0 {
			return depth[i]
		}
		depth[i] = 0 // breaks cycles defensively; Validate rejects them anyway
		if p := d.Parent[i]; p >= 0 {
			depth[i] = at(p) + 1
		}
		return depth[i]
	}
	for i := range d.Parent {
		if v := at(i); v > max {
			max = v
		}
	}
	return max
}

// Stats returns the shape statistics of the decomposition.
func (d *Decomposition) Stats() Stats {
	maxBag := 0
	for _, b := range d.Bags {
		if len(b) > maxBag {
			maxBag = len(b)
		}
	}
	return Stats{
		Nodes:  len(d.Bags),
		Width:  maxBag - 1,
		MaxBag: maxBag,
		Depth:  d.Depth(),
	}
}
