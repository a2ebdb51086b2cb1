package treedec

import (
	"fmt"
	"slices"
)

// Decomposition is a tree decomposition of a graph: a tree whose nodes carry
// bags of vertices such that (1) every vertex is in some bag, (2) every edge
// has both endpoints in some bag, and (3) the bags containing any given
// vertex form a connected subtree.
//
// The tree is stored as a rooted forest via Parent (Parent[i] == -1 for
// roots); Validate checks the three conditions against a graph.
type Decomposition struct {
	Bags   [][]int // Bags[i] is the sorted bag of tree node i
	Parent []int   // Parent[i] is the parent node, -1 for a root

	// occ caches the vertex→bags index built by index(); occN is the bag
	// count at build time, used to invalidate the cache when bags are added.
	occ  csr
	occN int
}

// NumNodes returns the number of tree nodes.
func (d *Decomposition) NumNodes() int { return len(d.Bags) }

// Width returns the width of the decomposition: max bag size minus one.
// The empty decomposition has width -1.
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// Children returns, for each node, its sorted child list. The lists share
// one backing array; a node without children has a nil list.
func (d *Decomposition) Children() [][]int {
	ch := d.childIndex()
	out := make([][]int, len(d.Parent))
	for t := range out {
		if row := ch.row(t); len(row) > 0 {
			out[t] = row
		}
	}
	return out
}

// childIndex returns the children of every node as a CSR index, each row
// sorted.
func (d *Decomposition) childIndex() csr {
	c := newCSR(len(d.Parent))
	for _, p := range d.Parent {
		if p >= 0 {
			c.count(p)
		}
	}
	c.alloc()
	for i, p := range d.Parent {
		if p >= 0 {
			c.add(p, i)
		}
	}
	c.done()
	return c
}

// csr is a compressed sparse row index: row r's items are
// items[start[r]:start[r+1]]. It is built in two passes over the same
// (row, item) pairs, count then add, so both arrays are sized exactly;
// within a row, items keep the order they were added in.
type csr struct {
	start []int
	items []int
}

func newCSR(rows int) csr { return csr{start: make([]int, rows+1)} }

// count records one item of row r (first pass).
func (c *csr) count(r int) { c.start[r+1]++ }

// alloc ends the first pass: start[r] becomes the fill cursor of row r.
func (c *csr) alloc() {
	n := len(c.start) - 1
	for r := 0; r < n; r++ {
		c.start[r+1] += c.start[r]
	}
	c.items = make([]int, c.start[n])
}

// add appends item to row r (second pass).
func (c *csr) add(r, item int) {
	c.items[c.start[r]] = item
	c.start[r]++
}

// done ends the second pass: each cursor stopped at its row's end, which is
// the next row's start, so shifting them up by one restores the starts.
func (c *csr) done() {
	copy(c.start[1:], c.start)
	c.start[0] = 0
}

// row returns the items of row r, or nil when r is outside the index.
func (c csr) row(r int) []int {
	if r < 0 || r+1 >= len(c.start) {
		return nil
	}
	return c.items[c.start[r]:c.start[r+1]:c.start[r+1]]
}

// Roots returns the root nodes of the forest.
func (d *Decomposition) Roots() []int {
	var rs []int
	for i, p := range d.Parent {
		if p < 0 {
			rs = append(rs, i)
		}
	}
	return rs
}

// Validate checks that d is a valid tree decomposition of g, returning a
// descriptive error when a condition fails.
func (d *Decomposition) Validate(g *Graph) error {
	n := g.N()
	// Structure: Parent must define a forest.
	for i, p := range d.Parent {
		if p >= len(d.Bags) || p == i {
			return fmt.Errorf("treedec: node %d has invalid parent %d", i, p)
		}
	}
	if err := d.checkAcyclic(); err != nil {
		return err
	}
	// (1) vertex coverage.
	covered := make([]bool, n)
	for _, b := range d.Bags {
		for _, v := range b {
			if v < 0 || v >= n {
				return fmt.Errorf("treedec: bag vertex %d out of range", v)
			}
			covered[v] = true
		}
	}
	for v := 0; v < n; v++ {
		if !covered[v] {
			return fmt.Errorf("treedec: vertex %d not covered by any bag", v)
		}
	}
	// (2) edge coverage, through the shared vertex→bags index.
	occ := vertexOccurrences(d.Bags, nil)
	for _, e := range g.Edges() {
		if findInOccurrences(d.Bags, occ, e[0], e[1]) < 0 {
			return fmt.Errorf("treedec: edge {%d,%d} not covered by any bag", e[0], e[1])
		}
	}
	// (3) connectedness of occurrences, per vertex.
	if err := d.checkConnectivity(n); err != nil {
		return err
	}
	return nil
}

func (d *Decomposition) checkAcyclic() error {
	state := make([]int, len(d.Parent)) // 0 unvisited, 1 visiting, 2 done
	for i := range d.Parent {
		j := i
		var path []int
		for j >= 0 && state[j] == 0 {
			state[j] = 1
			path = append(path, j)
			j = d.Parent[j]
		}
		if j >= 0 && state[j] == 1 {
			return fmt.Errorf("treedec: parent pointers contain a cycle through node %d", j)
		}
		for _, k := range path {
			state[k] = 2
		}
	}
	return nil
}

func (d *Decomposition) checkConnectivity(n int) error {
	// For each vertex, the set of nodes whose bag contains it must induce a
	// connected subtree. Count, for each vertex, occurrences and the number
	// of tree edges between two occurrences; connected iff edges = occ - 1
	// per vertex (within one tree of the forest, occurrences must not span
	// multiple forest trees unless... they must not at all).
	occ := make([]int, n)
	links := make([]int, n)
	inBag := make([]map[int]bool, len(d.Bags))
	for i, b := range d.Bags {
		m := make(map[int]bool, len(b))
		for _, v := range b {
			m[v] = true
			occ[v]++
		}
		inBag[i] = m
	}
	for i, p := range d.Parent {
		if p < 0 {
			continue
		}
		for v := range inBag[i] {
			if inBag[p][v] {
				links[v]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if occ[v] > 0 && links[v] != occ[v]-1 {
			return fmt.Errorf("treedec: occurrences of vertex %d are not connected (%d bags, %d links)", v, occ[v], links[v])
		}
	}
	return nil
}

// vertexOccurrences builds the vertex→bags index shared by BagContaining,
// Validate and Nice.AssignScopes: row v lists the nodes whose bag contains
// vertex v, in the given node order (nil means 0..len(bags)-1). The index is
// sized by the largest vertex seen; vertices beyond it simply have no
// occurrences.
func vertexOccurrences(bags [][]int, order []int) csr {
	max := -1
	for _, b := range bags {
		for _, v := range b {
			if v > max {
				max = v
			}
		}
	}
	occ := newCSR(max + 1)
	for _, b := range bags {
		for _, v := range b {
			occ.count(v)
		}
	}
	occ.alloc()
	if order == nil {
		for i, b := range bags {
			for _, v := range b {
				occ.add(v, i)
			}
		}
	} else {
		for _, i := range order {
			for _, v := range bags[i] {
				occ.add(v, i)
			}
		}
	}
	occ.done()
	return occ
}

// findInOccurrences returns a node whose bag contains both u and v, or -1,
// scanning only the bags of u.
func findInOccurrences(bags [][]int, occ csr, u, v int) int {
	for _, i := range occ.row(u) {
		if contains(bags[i], v) {
			return i
		}
	}
	return -1
}

// findBagWith returns a node whose bag contains both u and v, or -1.
func (d *Decomposition) findBagWith(u, v int) int {
	return findInOccurrences(d.Bags, d.index(), u, v)
}

// index returns the cached vertex→bags index, rebuilding it when the number
// of bags has changed since it was built. Bags must not be mutated in place
// after the first indexed query (BagContaining, Validate); building a fresh
// Decomposition value is always safe.
func (d *Decomposition) index() csr {
	if d.occ.start == nil || d.occN != len(d.Bags) {
		d.occ = vertexOccurrences(d.Bags, nil)
		d.occN = len(d.Bags)
	}
	return d.occ
}

// BagContaining returns a node whose bag contains all the given vertices, or
// -1 if none does. Any clique of the graph is contained in some bag of a
// valid decomposition, so this succeeds for fact scopes and gate scopes.
// Only the occurrence list of the rarest vertex is scanned.
func (d *Decomposition) BagContaining(vs []int) int {
	if len(vs) == 0 {
		if len(d.Bags) == 0 {
			return -1
		}
		return 0
	}
	occ := d.index()
	for _, i := range occ.row(rarest(occ, vs)) {
		if containsAll(d.Bags[i], vs) {
			return i
		}
	}
	return -1
}

// Heuristic selects the vertex elimination heuristic for Decompose.
type Heuristic int

const (
	// MinDegree eliminates a vertex of minimum degree at each step. Fast,
	// good on sparse graphs.
	MinDegree Heuristic = iota
	// MinFill eliminates a vertex whose elimination adds the fewest fill
	// edges. Slower, usually tighter widths.
	MinFill
)

// Decompose computes a tree decomposition of g by vertex elimination with
// the chosen heuristic. The result is valid for any graph; its width is
// optimal on chordal graphs and a heuristic upper bound otherwise.
//
// It eliminates once: the pass that chooses the order also records each
// vertex's later neighbours, which are exactly its bag, so the result equals
// FromEliminationOrder(g, EliminationOrder(g, h)) without a second pass.
func Decompose(g *Graph, h Heuristic) *Decomposition {
	return eliminate(g, h).decomposition()
}

// EliminationOrder returns a vertex elimination order chosen greedily by the
// heuristic. Ties are broken by vertex index, for determinism.
func EliminationOrder(g *Graph, h Heuristic) []int {
	return eliminate(g, h).order
}

func eliminate(g *Graph, h Heuristic) *eliminator {
	e := newEliminator(g)
	if h == MinDegree {
		e.minDegree()
	} else {
		e.minFill()
	}
	return e
}

// eliminator runs one vertex elimination over a working copy of a graph and
// records, for every eliminated vertex, its neighbours at elimination time:
// the vertices eliminated after it that share its bag. The record is flat:
// the later neighbours of order[i] are nbrs[start[i]:start[i+1]], sorted.
type eliminator struct {
	work       *Graph
	eliminated []bool
	order      []int
	start      []int
	nbrs       []int
	buf        []int // merge scratch of take
}

func newEliminator(g *Graph) *eliminator {
	n := g.N()
	return &eliminator{
		work:       g.Clone(),
		eliminated: make([]bool, n),
		order:      make([]int, 0, n),
		start:      append(make([]int, 0, n+1), 0),
		nbrs:       make([]int, 0, g.NumEdges()+n),
	}
}

// take eliminates v: it records v's neighbours, turns them into a clique and
// detaches v from the working graph.
func (e *eliminator) take(v int) {
	e.order = append(e.order, v)
	e.eliminated[v] = true
	ns := e.work.adj[v]
	e.nbrs = append(e.nbrs, ns...)
	e.start = append(e.start, len(e.nbrs))
	e.buf = e.work.eliminate(v, e.buf)
}

// eliminate connects the neighbourhood of v into a clique and removes v,
// merging each neighbour's sorted list with v's in the scratch buf, which it
// returns for reuse.
func (g *Graph) eliminate(v int, buf []int) []int {
	ns := g.adj[v]
	for _, u := range ns {
		// adj[u] becomes (adj[u] ∪ ns) \ {u, v}.
		a := g.adj[u]
		buf = buf[:0]
		i, j := 0, 0
		for i < len(a) || j < len(ns) {
			var x int
			switch {
			case j == len(ns) || (i < len(a) && a[i] < ns[j]):
				x = a[i]
				i++
			case i == len(a) || ns[j] < a[i]:
				x = ns[j]
				j++
			default:
				x = a[i]
				i++
				j++
			}
			if x != u && x != v {
				buf = append(buf, x)
			}
		}
		g.adj[u] = append(a[:0], buf...)
	}
	g.adj[v] = nil
	return buf
}

// minFill implements the min-fill heuristic with incremental score
// maintenance: instead of recomputing the fill-in of every live vertex at
// every step (O(n) fillIn scans per elimination), scores are kept in a heap
// and recomputed only for the vertices whose fill-in can actually have
// changed. Eliminating v changes the fill-in of
//
//   - every neighbour of v (its neighbourhood loses v and gains the new
//     clique edges), and
//   - every common neighbour of the endpoints of a newly added fill edge
//     {u,w} (the pair u,w inside its neighbourhood is no longer missing).
//
// No other vertex's neighbourhood or induced edges change, so this dirty set
// is exact and the produced order is identical to a full greedy rescan
// (argmin by score, ties to the lowest vertex index).
func (e *eliminator) minFill() {
	work := e.work
	n := work.N()
	score := make([]int, n)
	h := make(degreeHeap, 0, n)
	for v := 0; v < n; v++ {
		score[v] = fillIn(work, v)
		h = append(h, degreeEntry{deg: score[v], vertex: v})
	}
	h.init()
	marked := make([]bool, n)
	var dirty []int
	var added [][2]int
	for len(e.order) < n {
		top := h.pop()
		v := top.vertex
		if e.eliminated[v] {
			continue
		}
		if top.deg != score[v] {
			h.push(degreeEntry{deg: score[v], vertex: v}) // stale entry
			continue
		}
		ns := work.adj[v]
		dirty = dirty[:0]
		mark := func(u int) {
			if !marked[u] && !e.eliminated[u] {
				marked[u] = true
				dirty = append(dirty, u)
			}
		}
		// Remember the fill edges the clique will add.
		added = added[:0]
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if !work.HasEdge(ns[i], ns[j]) {
					added = append(added, [2]int{ns[i], ns[j]})
				}
			}
		}
		for _, u := range ns {
			mark(u)
		}
		e.take(v)
		// Common neighbours of each new edge lose one missing pair.
		for _, uw := range added {
			u, w := uw[0], uw[1]
			if len(work.adj[w]) < len(work.adj[u]) {
				u, w = w, u
			}
			for _, x := range work.adj[u] {
				if work.HasEdge(x, w) {
					mark(x)
				}
			}
		}
		for _, u := range dirty {
			marked[u] = false
			score[u] = fillIn(work, u)
			h.push(degreeEntry{deg: score[u], vertex: u})
		}
	}
}

// minDegree implements the min-degree heuristic with a lazy min-heap, so
// that large sparse graphs (the benchmark instances) decompose in
// near-linear time.
func (e *eliminator) minDegree() {
	work := e.work
	n := work.N()
	h := make(degreeHeap, 0, n)
	for v := 0; v < n; v++ {
		h = append(h, degreeEntry{deg: work.Degree(v), vertex: v})
	}
	h.init()
	for len(e.order) < n {
		top := h.pop()
		if e.eliminated[top.vertex] || work.Degree(top.vertex) != top.deg {
			if !e.eliminated[top.vertex] {
				h.push(degreeEntry{deg: work.Degree(top.vertex), vertex: top.vertex})
			}
			continue // stale entry
		}
		v := top.vertex
		e.take(v)
		for _, u := range e.nbrs[e.start[len(e.order)-1]:] {
			h.push(degreeEntry{deg: work.Degree(u), vertex: u})
		}
	}
}

type degreeEntry struct {
	deg    int
	vertex int
}

// degreeHeap is a binary min-heap of entries ordered by (deg, vertex). Both
// heuristics push stale duplicates and skip them on pop, so the pop sequence
// is the sorted sequence of live minima whatever the heap layout.
type degreeHeap []degreeEntry

func (h degreeHeap) less(i, j int) bool {
	if h[i].deg != h[j].deg {
		return h[i].deg < h[j].deg
	}
	return h[i].vertex < h[j].vertex
}

func (h degreeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *degreeHeap) push(x degreeEntry) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *degreeHeap) pop() degreeEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	(*h).down(0)
	return top
}

func (h degreeHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// fillIn counts the edges that eliminating v would add between its
// neighbours.
func fillIn(g *Graph, v int) int {
	ns := g.adj[v]
	fill := 0
	for i := 0; i < len(ns); i++ {
		for j := i + 1; j < len(ns); j++ {
			if !g.HasEdge(ns[i], ns[j]) {
				fill++
			}
		}
	}
	return fill
}

// FromEliminationOrder builds a tree decomposition from an elimination
// order using the standard construction: the bag of the i-th eliminated
// vertex v is {v} plus the neighbours of v in the fill-in graph that are
// eliminated later; its parent is the bag of the earliest-later-eliminated
// such neighbour.
func FromEliminationOrder(g *Graph, order []int) *Decomposition {
	if len(order) != g.N() {
		panic("treedec: elimination order must cover all vertices")
	}
	e := newEliminator(g)
	for _, v := range order {
		e.take(v)
	}
	return e.decomposition()
}

// decomposition builds the tree decomposition of the recorded elimination:
// bag i is order[i] with its later neighbours, carved from one exactly
// sized array, and its parent is the bag of the earliest eliminated of
// those neighbours.
func (e *eliminator) decomposition() *Decomposition {
	n := len(e.order)
	if n == 0 {
		// A single empty bag so that downstream DP always has a root.
		return &Decomposition{Bags: [][]int{{}}, Parent: []int{-1}}
	}
	pos := make([]int, n)
	for i, v := range e.order {
		pos[v] = i
	}
	slab := make([]int, n+len(e.nbrs))
	d := &Decomposition{
		Bags:   make([][]int, n),
		Parent: make([]int, n),
	}
	off := 0
	for i, v := range e.order {
		later := e.nbrs[e.start[i]:e.start[i+1]]
		end := off + len(later) + 1
		bag := slab[off:end:end]
		k, _ := slices.BinarySearch(later, v)
		copy(bag, later[:k])
		bag[k] = v
		copy(bag[k+1:], later[k:])
		d.Bags[i] = bag
		off = end
		parent := -1
		for _, u := range later {
			if parent < 0 || pos[u] < parent {
				parent = pos[u]
			}
		}
		d.Parent[i] = parent
	}
	return d
}

// Treewidth returns a heuristic upper bound on the treewidth of g, taking
// the better of min-degree and min-fill. Exact on chordal graphs.
func Treewidth(g *Graph) int {
	a := Decompose(g, MinDegree).Width()
	b := Decompose(g, MinFill).Width()
	if b < a {
		return b
	}
	return a
}
