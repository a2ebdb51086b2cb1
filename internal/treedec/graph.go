// Package treedec implements undirected graphs and tree decompositions.
//
// Tree decompositions are the structural restriction at the heart of the
// paper: Theorem 1 and Theorem 2 apply to instances (and annotation circuits)
// whose Gaifman graph has bounded treewidth. The package provides elimination
// based heuristics (min-degree, min-fill) that are exact on chordal graphs
// and near-optimal on the partial k-trees used in the experiments, plus nice
// decompositions, which the dynamic programming of internal/core consumes.
package treedec

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a finite undirected graph over vertices 0..n-1. The zero value is
// an empty graph; use NewGraph or AddVertex to grow it.
//
// Adjacency is stored as one sorted neighbour list per vertex, so Neighbors,
// Edges and the elimination heuristics read it in order without sorting, and
// a clone copies every list into one exactly sized backing array.
type Graph struct {
	adj [][]int // adj[v] is the sorted neighbour list of v
}

// NewGraph returns a graph with n isolated vertices.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]int, n)}
}

// NewGraphFromCliques returns the graph on n vertices whose edges make every
// given vertex list a clique (AddClique for each). A first pass bounds each
// vertex's degree, so the neighbour lists are carved from one array and
// never reallocate while the cliques are added.
func NewGraphFromCliques(n int, cliques [][]int) *Graph {
	bound := make([]int, n+1)
	for _, c := range cliques {
		for _, v := range c {
			if v >= 0 && v < n {
				bound[v+1] += len(c) - 1
			}
		}
	}
	for v := 0; v < n; v++ {
		bound[v+1] += bound[v]
	}
	slab := make([]int, bound[n])
	g := NewGraph(n)
	for v := range g.adj {
		g.adj[v] = slab[bound[v]:bound[v]:bound[v+1]]
	}
	for _, c := range cliques {
		g.AddClique(c)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// AddVertex adds a new isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge adds the undirected edge {u, v}. Self-loops are ignored, parallel
// edges are collapsed. Panics if a vertex is out of range.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		panic(fmt.Sprintf("treedec: edge {%d,%d} out of range (n=%d)", u, v, len(g.adj)))
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
}

// insertSorted inserts v into the sorted list xs unless it is already there.
func insertSorted(xs []int, v int) []int {
	i, found := slices.BinarySearch(xs, v)
	if found {
		return xs
	}
	return slices.Insert(xs, i, v)
}

// AddClique adds all edges between the given vertices. Used to make the
// scopes of facts (and of circuit gates) into cliques, so that every fact is
// covered by a single bag of any valid decomposition.
func (g *Graph) AddClique(vs []int) {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			g.AddEdge(vs[i], vs[j])
		}
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	_, ok := slices.BinarySearch(g.adj[u], v)
	return ok
}

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbours of v in a slice owned by the
// caller.
func (g *Graph) Neighbors(v int) []int {
	return slices.Clone(g.adj[v])
}

// Edges returns all edges {u, v} with u < v, sorted.
func (g *Graph) Edges() [][2]int {
	es := make([][2]int, 0, g.NumEdges())
	for u, ns := range g.adj {
		for _, v := range ns {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return es
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	m := 0
	for _, ns := range g.adj {
		m += len(ns)
	}
	return m / 2
}

// Clone returns a deep copy of g. The copy's neighbour lists share one
// backing array, each capped at its own length, so growing one list never
// overwrites the next.
func (g *Graph) Clone() *Graph {
	slab := make([]int, 2*g.NumEdges())
	h := NewGraph(g.N())
	off := 0
	for u, ns := range g.adj {
		if len(ns) == 0 {
			continue
		}
		end := off + copy(slab[off:], ns)
		h.adj[u] = slab[off:end:end]
		off = end
	}
	return h
}

// Components returns the connected components of g as sorted vertex lists.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Partition records the connected-component structure of a graph: Comp[v] is
// the component index of vertex v (components are numbered 0..N-1 in order of
// their smallest vertex). It is the splitting step of the sharded plan layer:
// a dynamic program over a disconnected (joint) graph factors into one
// independent program per component, so plans can be compiled, evaluated and
// maintained shard by shard.
type Partition struct {
	Comp []int // Comp[v] = component index of vertex v
	N    int   // number of components
}

// Members returns the vertices of every component, sorted, indexed by
// component.
func (p Partition) Members() [][]int {
	out := make([][]int, p.N)
	for v, c := range p.Comp {
		out[c] = append(out[c], v)
	}
	return out
}

// Components returns the connected-component partition of g. Vertices are
// visited in increasing order, so component indices are deterministic: the
// component holding the smallest unseen vertex gets the next index.
func Components(g *Graph) Partition {
	p := Partition{Comp: make([]int, g.N())}
	for i := range p.Comp {
		p.Comp[i] = -1
	}
	for s := 0; s < g.N(); s++ {
		if p.Comp[s] >= 0 {
			continue
		}
		c := p.N
		p.N++
		stack := []int{s}
		p.Comp[s] = c
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.adj[v] {
				if p.Comp[u] < 0 {
					p.Comp[u] = c
					stack = append(stack, u)
				}
			}
		}
	}
	return p
}

// Path returns a path graph on n vertices (treewidth 1).
func Path(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Cycle returns a cycle on n vertices (treewidth 2 for n >= 3).
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.AddEdge(n-1, 0)
	}
	return g
}

// Complete returns the complete graph on n vertices (treewidth n-1).
func Complete(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Grid returns the r x c grid graph (treewidth min(r, c)).
func Grid(r, c int) *Graph {
	g := NewGraph(r * c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				g.AddEdge(v, v+1)
			}
			if i+1 < r {
				g.AddEdge(v, v+c)
			}
		}
	}
	return g
}
