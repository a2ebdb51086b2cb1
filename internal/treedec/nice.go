package treedec

import (
	"fmt"
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

func (n *Nice) add(nd NiceNode) int {
	n.Nodes = append(n.Nodes, nd)
	return len(n.Nodes) - 1
}

// MakeNice converts a tree decomposition into a nice one rooted at an empty
// bag. The width is unchanged.
func MakeNice(d *Decomposition) *Nice {
	nice := &Nice{}
	children := d.Children()
	var tops []int // empty-bag tops, one per forest root
	for _, r := range d.Roots() {
		top := nice.buildSubtree(d, children, r)
		top = nice.forgetChain(top, d.Bags[r], nil)
		tops = append(tops, top)
	}
	if len(tops) == 0 {
		nice.Root = nice.add(NiceNode{Kind: NiceLeaf, Vertex: -1, Bag: nil})
		return nice
	}
	// Join the empty-bag tops of a forest pairwise.
	root := tops[0]
	for _, t := range tops[1:] {
		root = nice.add(NiceNode{Kind: NiceJoin, Vertex: -1, Bag: nil, Children: []int{root, t}})
	}
	nice.Root = root
	return nice
}

// buildSubtree returns the index of a nice node whose bag equals d.Bags[t].
func (n *Nice) buildSubtree(d *Decomposition, children [][]int, t int) int {
	bag := d.Bags[t]
	if len(children[t]) == 0 {
		leaf := n.add(NiceNode{Kind: NiceLeaf, Vertex: -1, Bag: nil})
		return n.introduceChain(leaf, nil, bag)
	}
	var tops []int
	for _, c := range children[t] {
		sub := n.buildSubtree(d, children, c)
		// Morph the child's bag into t's bag: forget then introduce.
		mid := n.forgetChain(sub, d.Bags[c], bag)
		top := n.introduceChain(mid, intersect(d.Bags[c], bag), bag)
		tops = append(tops, top)
	}
	res := tops[0]
	for _, t2 := range tops[1:] {
		res = n.add(NiceNode{Kind: NiceJoin, Vertex: -1, Bag: sortedCopy(bag), Children: []int{res, t2}})
	}
	return res
}

// forgetChain adds forget nodes removing every vertex of from that is not in
// keep, returning the top node index.
func (n *Nice) forgetChain(top int, from, keep []int) int {
	keepSet := toSet(keep)
	bag := sortedCopy(from)
	// Forget in decreasing order for determinism.
	for i := len(bag) - 1; i >= 0; i-- {
		v := bag[i]
		if keepSet[v] {
			continue
		}
		newBag := removeOne(bag, v)
		top = n.add(NiceNode{Kind: NiceForget, Vertex: v, Bag: newBag, Children: []int{top}})
		bag = newBag
	}
	return top
}

// introduceChain adds introduce nodes for every vertex of target missing
// from base, returning the top node index.
func (n *Nice) introduceChain(top int, base, target []int) int {
	baseSet := toSet(base)
	bag := sortedCopy(base)
	for _, v := range target {
		if baseSet[v] {
			continue
		}
		bag = insertOne(bag, v)
		top = n.add(NiceNode{Kind: NiceIntroduce, Vertex: v, Bag: sortedCopy(bag), Children: []int{top}})
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
	var order []int
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
	var used []bool
	stack := []int{n.Root}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &n.Nodes[t]
		stack = append(stack, nd.Children...)
		if nd.Kind != NiceForget || nd.Vertex >= nv {
			continue
		}
		used = append(used[:0], make([]bool, len(nd.Bag)+1)...)
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
	for i, nd := range n.Nodes {
		bags[i] = nd.Bag
	}
	occ := vertexOccurrences(bags, order)
	assign := make([]int, len(scopes))
	for si, scope := range scopes {
		assign[si] = -1
		if len(scope) == 0 {
			// Scope-free entries go to the first leaf.
			for _, t := range order {
				if len(n.Nodes[t].Children) == 0 {
					assign[si] = t
					break
				}
			}
			continue
		}
		// Rarest vertex first.
		best := scope[0]
		for _, v := range scope[1:] {
			if len(occurrencesOf(occ, v)) < len(occurrencesOf(occ, best)) {
				best = v
			}
		}
		for _, t := range occurrencesOf(occ, best) {
			if containsAll(n.Nodes[t].Bag, scope) {
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

func toSet(vs []int) map[int]bool {
	m := make(map[int]bool, len(vs))
	for _, v := range vs {
		m[v] = true
	}
	return m
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

func containsAll(vs, want []int) bool {
	set := toSet(vs)
	for _, v := range want {
		if !set[v] {
			return false
		}
	}
	return true
}

func intersect(a, b []int) []int {
	set := toSet(b)
	var out []int
	for _, v := range a {
		if set[v] {
			out = append(out, v)
		}
	}
	return out
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
