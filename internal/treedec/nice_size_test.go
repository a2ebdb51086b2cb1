package treedec

import (
	"math/rand"
	"testing"
)

// TestMakeNiceExactlySized checks that niceSize predicts MakeNice exactly:
// the node count and the total bag size it sizes the arrays by are the
// ones the build uses, so the node array has no spare capacity and a plan
// that keeps the nice form keeps no construction slack.
func TestMakeNiceExactlySized(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var ds []*Decomposition
	for i := 0; i < 40; i++ {
		g := randomGraph(r, 1+r.Intn(30), 0.4*r.Float64())
		ds = append(ds, Decompose(g, Heuristic(i%2)))
	}
	ds = append(ds,
		Decompose(NewGraph(0), MinDegree),
		Decompose(NewGraph(4), MinFill), // a forest of four roots
		Decompose(Grid(4, 6), MinFill),
		&Decomposition{Bags: [][]int{{2, 0}, {0, 1}}, Parent: []int{-1, 0}}) // unsorted bag
	for i, d := range ds {
		nice := MakeNice(d)
		nodes, entries := niceSize(sortedBags(d.Bags), d.childIndex(), d.Roots())
		got := 0
		for _, nd := range nice.Nodes {
			got += len(nd.Bag)
		}
		if nodes != len(nice.Nodes) || entries != got || cap(nice.Nodes) != len(nice.Nodes) {
			t.Fatalf("decomposition %d: predicted %d nodes and %d bag entries, built %d (array of %d) and %d",
				i, nodes, entries, len(nice.Nodes), cap(nice.Nodes), got)
		}
	}
}
