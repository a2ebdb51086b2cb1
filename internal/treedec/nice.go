package treedec

import (
	"fmt"
	"slices"
	"sort"
)

// NiceKind classifies the nodes of a nice tree decomposition.
type NiceKind int

const (
	// NiceLeaf has an empty bag and no children.
	NiceLeaf NiceKind = iota
	// NiceIntroduce has one child; its bag is the child's bag plus Vertex.
	NiceIntroduce
	// NiceForget has one child; its bag is the child's bag minus Vertex.
	NiceForget
	// NiceJoin has two children whose bags both equal its own bag.
	NiceJoin
)

func (k NiceKind) String() string {
	switch k {
	case NiceLeaf:
		return "leaf"
	case NiceIntroduce:
		return "introduce"
	case NiceForget:
		return "forget"
	case NiceJoin:
		return "join"
	}
	return "unknown"
}

// NiceNode is one node of a nice tree decomposition.
type NiceNode struct {
	Kind     NiceKind
	Vertex   int   // the introduced/forgotten vertex, -1 otherwise
	Bag      []int // sorted
	Children []int // node indices; 0, 1 or 2 entries
}

// Nice is a nice (rooted, binary, single-operation) tree decomposition. Its
// root always has an empty bag, so dynamic programs finish with a single
// state space of size independent of the instance.
type Nice struct {
	Nodes []NiceNode
	Root  int
}

// Width returns the width of the nice decomposition.
func (n *Nice) Width() int {
	w := 0
	for _, nd := range n.Nodes {
		if len(nd.Bag) > w {
			w = len(nd.Bag)
		}
	}
	return w - 1
}

// NumNodes returns the number of nice nodes.
func (n *Nice) NumNodes() int { return len(n.Nodes) }

// MakeNice converts a tree decomposition into a nice one rooted at an empty
// bag. The width is unchanged.
//
// Every forest root becomes a chain forgetting its bag down to the empty
// bag, and the chains are joined pairwise. Below a node t, each child c is
// built recursively, its bag is morphed into t's (forget then introduce),
// and the morphed children are joined pairwise on t's bag; a leaf of the
// decomposition introduces its bag above an empty leaf.
//
// The node count and the total bag size follow from the decomposition alone,
// so a first pass sizes three arrays exactly (nodes, bag entries, child
// entries) and the build carves every Bag and Children slice from them: no
// per-node allocation, and no slack left in what a plan keeps.
func MakeNice(d *Decomposition) *Nice {
	bags := sortedBags(d.Bags)
	ch := d.childIndex()
	roots := d.Roots()
	nodes, entries := niceSize(bags, ch, roots)
	b := &niceBuilder{
		bags:  bags,
		ch:    ch,
		nodes: make([]NiceNode, 0, nodes),
		slab:  make([]int, 0, entries),
		kids:  make([]int, 0, max(nodes-1, 0)),
	}
	if len(roots) == 0 {
		b.add(NiceLeaf, -1, 0, -1, -1)
		return &Nice{Nodes: b.nodes, Root: 0}
	}
	for _, r := range roots {
		top := b.forgetChain(b.subtree(r), bags[r], nil)
		b.tops = append(b.tops, top)
	}
	// Join the empty-bag tops of a forest pairwise.
	return &Nice{Nodes: b.nodes, Root: b.joinTops(0, nil)}
}

// sortedBags returns bags unchanged when every bag is sorted, as
// Decomposition documents, and sorted copies otherwise.
func sortedBags(bags [][]int) [][]int {
	for _, b := range bags {
		if !slices.IsSorted(b) {
			out := make([][]int, len(bags))
			for i, b := range bags {
				out[i] = sortedCopy(b)
			}
			return out
		}
	}
	return bags
}

// niceSize returns the node count and total bag size MakeNice will build.
// A chain morphing bag F into bag T through their common part K adds
// |F|-|K| forget nodes, with bags of sizes |K|..|F|-1, and |T|-|K|
// introduce nodes, with bags of sizes |K|+1..|T|.
func niceSize(bags [][]int, ch csr, roots []int) (nodes, entries int) {
	for t, bag := range bags {
		m := len(bag)
		cs := ch.row(t)
		if len(cs) == 0 {
			nodes += 1 + m // leaf, then introduce the bag
			entries += sumRange(1, m)
			continue
		}
		for _, c := range cs {
			f, k := len(bags[c]), countCommon(bags[c], bag)
			nodes += (f - k) + (m - k)
			entries += sumRange(k, f-1) + sumRange(k+1, m)
		}
		nodes += len(cs) - 1 // joins
		entries += (len(cs) - 1) * m
	}
	for _, r := range roots {
		nodes += len(bags[r])
		entries += sumRange(0, len(bags[r])-1)
	}
	if len(roots) == 0 {
		nodes++
	} else {
		nodes += len(roots) - 1
	}
	return nodes, entries
}

// sumRange returns lo + (lo+1) + ... + hi, 0 when hi < lo.
func sumRange(lo, hi int) int {
	if hi < lo {
		return 0
	}
	return (lo + hi) * (hi - lo + 1) / 2
}

// countCommon returns |a ∩ b| for sorted a and b.
func countCommon(a, b []int) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// niceBuilder appends nice nodes, carving their bags from slab and their
// child lists from kids. Both are sized by niceSize; were they short, append
// would move the later entries to a new array while the earlier slices keep
// the old one, which stays correct.
type niceBuilder struct {
	bags  [][]int
	ch    csr
	nodes []NiceNode
	slab  []int
	kids  []int
	tops  []int // subtree tops awaiting their joins, a stack across recursion levels
}

// add appends a node whose bag is the last size entries of the slab, and
// returns its index. c0 and c1 are its children, -1 when absent.
func (b *niceBuilder) add(kind NiceKind, vertex, size, c0, c1 int) int {
	nd := NiceNode{Kind: kind, Vertex: vertex}
	if size > 0 {
		end := len(b.slab)
		nd.Bag = b.slab[end-size : end : end]
	}
	if c0 >= 0 {
		start := len(b.kids)
		b.kids = append(b.kids, c0)
		if c1 >= 0 {
			b.kids = append(b.kids, c1)
		}
		nd.Children = b.kids[start:len(b.kids):len(b.kids)]
	}
	b.nodes = append(b.nodes, nd)
	return len(b.nodes) - 1
}

// subtree builds the nice subtree for decomposition node t and returns the
// index of its top node, whose bag equals t's bag.
func (b *niceBuilder) subtree(t int) int {
	bag := b.bags[t]
	cs := b.ch.row(t)
	if len(cs) == 0 {
		return b.introduceChain(b.add(NiceLeaf, -1, 0, -1, -1), nil, bag)
	}
	base := len(b.tops)
	for _, c := range cs {
		// Morph the child's bag into t's bag: forget then introduce.
		top := b.subtree(c)
		top = b.forgetChain(top, b.bags[c], bag)
		top = b.introduceChain(top, b.bags[c], bag)
		b.tops = append(b.tops, top)
	}
	return b.joinTops(base, bag)
}

// joinTops joins the tops pushed since base pairwise, left to right, on
// bag, pops them and returns the last join (the only top if there is one).
func (b *niceBuilder) joinTops(base int, bag []int) int {
	res := b.tops[base]
	for _, top := range b.tops[base+1:] {
		b.slab = append(b.slab, bag...)
		res = b.add(NiceJoin, -1, len(bag), res, top)
	}
	b.tops = b.tops[:base]
	return res
}

// forgetChain adds forget nodes removing, in decreasing order, every vertex
// of from that is not in keep (both sorted), and returns the top node. The
// bag after forgetting v holds the members of from below v and the kept
// members above it.
func (b *niceBuilder) forgetChain(top int, from, keep []int) int {
	for i := len(from) - 1; i >= 0; i-- {
		v := from[i]
		if contains(keep, v) {
			continue
		}
		size := len(b.slab)
		for _, u := range from {
			if u < v || (u > v && contains(keep, u)) {
				b.slab = append(b.slab, u)
			}
		}
		top = b.add(NiceForget, v, len(b.slab)-size, top, -1)
	}
	return top
}

// introduceChain adds introduce nodes, in increasing order, for every vertex
// of target (sorted) that is not in base, and returns the top node. The bag
// after introducing v holds the members of target up to v together with
// those shared with base.
func (b *niceBuilder) introduceChain(top int, base, target []int) int {
	for _, v := range target {
		if contains(base, v) {
			continue
		}
		size := len(b.slab)
		for _, u := range target {
			if u <= v || contains(base, u) {
				b.slab = append(b.slab, u)
			}
		}
		top = b.add(NiceIntroduce, v, len(b.slab)-size, top, -1)
	}
	return top
}

// Validate checks the structural invariants of the nice decomposition and
// that it is a valid tree decomposition of g.
func (n *Nice) Validate(g *Graph) error {
	for i, nd := range n.Nodes {
		switch nd.Kind {
		case NiceLeaf:
			if len(nd.Children) != 0 || len(nd.Bag) != 0 {
				return fmt.Errorf("treedec: leaf node %d malformed", i)
			}
		case NiceIntroduce, NiceForget:
			if len(nd.Children) != 1 {
				return fmt.Errorf("treedec: %s node %d must have one child", nd.Kind, i)
			}
			child := n.Nodes[nd.Children[0]]
			var want []int
			if nd.Kind == NiceIntroduce {
				want = insertOne(sortedCopy(child.Bag), nd.Vertex)
				if contains(child.Bag, nd.Vertex) {
					return fmt.Errorf("treedec: introduce node %d reintroduces vertex %d", i, nd.Vertex)
				}
			} else {
				if !contains(child.Bag, nd.Vertex) {
					return fmt.Errorf("treedec: forget node %d forgets absent vertex %d", i, nd.Vertex)
				}
				want = removeOne(child.Bag, nd.Vertex)
			}
			if !equalInts(nd.Bag, want) {
				return fmt.Errorf("treedec: node %d bag %v inconsistent with child (want %v)", i, nd.Bag, want)
			}
		case NiceJoin:
			if len(nd.Children) != 2 {
				return fmt.Errorf("treedec: join node %d must have two children", i)
			}
			for _, c := range nd.Children {
				if !equalInts(nd.Bag, n.Nodes[c].Bag) {
					return fmt.Errorf("treedec: join node %d bag differs from child %d", i, c)
				}
			}
		}
	}
	if len(n.Nodes[n.Root].Bag) != 0 {
		return fmt.Errorf("treedec: root bag is not empty")
	}
	// Check it is a valid decomposition of g by converting to the plain form.
	return n.AsDecomposition().Validate(g)
}

// AsDecomposition returns the nice decomposition viewed as a plain one.
func (n *Nice) AsDecomposition() *Decomposition {
	d := &Decomposition{
		Bags:   make([][]int, len(n.Nodes)),
		Parent: make([]int, len(n.Nodes)),
	}
	for i := range d.Parent {
		d.Parent[i] = -1
	}
	for i, nd := range n.Nodes {
		d.Bags[i] = sortedCopy(nd.Bag)
		for _, c := range nd.Children {
			d.Parent[c] = i
		}
	}
	return d
}

// PostOrder returns the node indices of the subtree under Root in
// post-order (children before parents), which is the evaluation order of
// every bottom-up DP.
func (n *Nice) PostOrder() []int {
	order := make([]int, 0, len(n.Nodes))
	var visit func(int)
	visit = func(t int) {
		for _, c := range n.Nodes[t].Children {
			visit(c)
		}
		order = append(order, t)
	}
	visit(n.Root)
	return order
}

// Colour colours the vertices below nv (the domain vertices of a joint
// graph, whose higher ids are events) so that the coloured members of every
// bag carry pairwise distinct colours. colour[v] is -1 for a vertex in no
// bag. At most one colour per coloured slot of the widest bag is used.
//
// One top-down walk suffices: the root bag is empty, so every vertex is
// forgotten exactly once, and the bags holding it form the subtree under its
// forget node. The forget node's bag holds exactly the vertices sharing a
// bag with v whose own forget node lies above, all coloured already, so v
// takes the smallest colour none of them uses; vertices forgotten below
// pick around v in turn.
func (n *Nice) Colour(nv int) []int {
	colour := make([]int, nv)
	for i := range colour {
		colour[i] = -1
	}
	used := make([]bool, n.Width()+2)
	stack := []int{n.Root}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &n.Nodes[t]
		stack = append(stack, nd.Children...)
		if nd.Kind != NiceForget || nd.Vertex >= nv {
			continue
		}
		clear(used)
		for _, u := range nd.Bag {
			if u < nv && colour[u] < len(used) {
				used[colour[u]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colour[nd.Vertex] = c
	}
	return colour
}

// AssignScopes maps each scope (a set of vertices that forms a clique of the
// decomposed graph, e.g. the arguments of a fact) to a single nice node whose
// bag contains it. Returns an error if some scope fits in no bag.
//
// Scopes are assigned to the post-order-first matching node, so each scope is
// processed exactly once by the DP.
func (n *Nice) AssignScopes(scopes [][]int) ([]int, error) {
	order := n.PostOrder()
	// The nodes containing each vertex, in post-order, so each scope only
	// inspects the occurrence list of its rarest vertex. The index is built
	// by the same helper that backs Decomposition.BagContaining.
	bags := make([][]int, len(n.Nodes))
	firstLeaf := -1
	for i, nd := range n.Nodes {
		bags[i] = nd.Bag
	}
	for _, t := range order {
		if len(n.Nodes[t].Children) == 0 {
			firstLeaf = t
			break
		}
	}
	occ := vertexOccurrences(bags, order)
	assign := make([]int, len(scopes))
	for si, scope := range scopes {
		assign[si] = -1
		if len(scope) == 0 {
			// Scope-free entries go to the first leaf.
			assign[si] = firstLeaf
			continue
		}
		for _, t := range occ.row(rarest(occ, scope)) {
			if containsAll(bags[t], scope) {
				assign[si] = t
				break
			}
		}
		if assign[si] < 0 {
			return nil, fmt.Errorf("treedec: scope %v fits in no bag", scope)
		}
	}
	return assign, nil
}

// rarest returns the member of vs (non-empty) with the fewest occurrences,
// the first one on ties.
func rarest(occ csr, vs []int) int {
	best := vs[0]
	for _, v := range vs[1:] {
		if len(occ.row(v)) < len(occ.row(best)) {
			best = v
		}
	}
	return best
}

func sortedCopy(vs []int) []int {
	out := append([]int(nil), vs...)
	sort.Ints(out)
	return out
}

func removeOne(vs []int, v int) []int {
	out := make([]int, 0, len(vs))
	for _, x := range vs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func insertOne(vs []int, v int) []int {
	out := append(append([]int(nil), vs...), v)
	sort.Ints(out)
	return out
}

func contains(vs []int, v int) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// containsAll reports whether every member of want is in vs. Both are bags
// or scopes of a few vertices, so linear scans beat building a set.
func containsAll(vs, want []int) bool {
	for _, v := range want {
		if !contains(vs, v) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
