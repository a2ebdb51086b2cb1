package core

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/rel"
)

// maxPrepareAllocsPerNiceNode bounds Prepare's heap allocations per nice
// node. Prepare's structure stages (joint graph, elimination, nice form,
// homing, the structural pass) build exactly sized flat arrays, so their
// allocation count stays a small constant per node; a stage that falls back
// to a map, a closure or a slice per vertex or per node pushes the ratio
// over the bound. Bounding per node rather than per call keeps the guard
// independent of the Go release's own allocation details.
const maxPrepareAllocsPerNiceNode = 10

// TestPrepareAllocsPerNiceNode guards the allocation count of a cold
// PrepareCQ on a fixed width-1 partial k-tree R·S·T instance.
func TestPrepareAllocsPerNiceNode(t *testing.T) {
	r := rand.New(rand.NewSource(140))
	g, _ := gen.PartialKTree(40, 1, 0.8, r)
	c, _ := gen.RSTOverGraph(g, 0.01, 0.1, r).ToCInstance()
	q := rel.HardQuery()
	pl, err := PrepareCQ(c, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := PrepareCQ(c, q, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	perNode := allocs / float64(pl.NumNiceNodes())
	t.Logf("PrepareCQ: %.0f allocs over %d nice nodes = %.2f per node", allocs, pl.NumNiceNodes(), perNode)
	if perNode > maxPrepareAllocsPerNiceNode {
		t.Errorf("PrepareCQ makes %.2f allocations per nice node, want at most %d", perNode, maxPrepareAllocsPerNiceNode)
	}
}
