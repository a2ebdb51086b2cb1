package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
)

// automatonSize is the determinized automaton a plan interned: its states,
// state sets and set-level transitions.
type automatonSize struct{ states, sets, setTrans int }

func sizeOf(pl *Plan) automatonSize {
	return automatonSize{len(pl.states.strs), len(pl.sets.members), len(pl.setTrans)}
}

// assertSizeIndependentOfN prepares the same family at two sizes and
// requires identical automata: the states name colours and fact signatures,
// never elements, so they depend only on the query and the width.
func assertSizeIndependentOfN(t *testing.T, prepare func(n int) (*Plan, error)) {
	t.Helper()
	var first automatonSize
	for i, n := range []int{800, 3200} {
		pl, err := prepare(n)
		if err != nil {
			t.Fatal(err)
		}
		got := sizeOf(pl)
		if got.states == 0 || got.sets == 0 {
			t.Fatalf("n=%d: empty automaton %+v", n, got)
		}
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Errorf("automaton grows with the instance: n=800 %+v, n=3200 %+v", first, got)
		}
	}
}

func TestStateSpaceInstanceIndependent(t *testing.T) {
	assertSizeIndependentOfN(t, func(n int) (*Plan, error) {
		pl, _, err := PrepareTID(gen.RSTChain(n, 0.5), rel.HardQuery(), Options{})
		return pl, err
	})
}

func TestReachStateSpaceInstanceIndependent(t *testing.T) {
	assertSizeIndependentOfN(t, func(n int) (*Plan, error) {
		c, _ := gen.EdgeChain(n, 0.5).ToCInstance()
		return Prepare(c, NewReachQuery("E", "v0", fmt.Sprintf("v%d", n)), Options{})
	})
}

// checkColouring asserts the colouring contract on one plan: the domain
// members of every bag carry distinct colours, and no colour reaches the
// widest bag's domain size.
func checkColouring(t *testing.T, pl *Plan) {
	t.Helper()
	widest := 0
	for _, nd := range pl.nice.Nodes {
		dom := 0
		for _, v := range nd.Bag {
			if v < pl.nDom {
				dom++
			}
		}
		widest = max(widest, dom)
	}
	for i, nd := range pl.nice.Nodes {
		seen := map[int]int{}
		for _, v := range nd.Bag {
			if v >= pl.nDom {
				continue
			}
			c := pl.colour[v]
			if c < 0 || c >= widest {
				t.Fatalf("node %d: vertex %d has colour %d outside [0,%d)", i, v, c, widest)
			}
			if u, dup := seen[c]; dup {
				t.Fatalf("node %d: vertices %d and %d share colour %d", i, u, v, c)
			}
			seen[c] = v
		}
	}
}

func TestColouringProperOnRandomPartialKTrees(t *testing.T) {
	q := rel.HardQuery()
	shards := 0
	for _, k := range []int{1, 2, 3} {
		for seed := int64(0); seed < 6; seed++ {
			r := rand.New(rand.NewSource(100*int64(k) + seed))
			g, _ := gen.PartialKTree(8+r.Intn(30), k, 0.5, r)
			tid := gen.RSTOverGraph(g, 0.1, 0.9, r)
			pl, _, err := PrepareTID(tid, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkColouring(t, pl)
			sp, _, err := PrepareShardedTID(tid, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range sp.shards {
				checkColouring(t, sh)
			}
			shards += sp.NumShards()
		}
	}
	if shards <= 18 {
		t.Errorf("the random instances gave only %d shards over 18 instances; the sharded path went unchecked", shards)
	}
}

// TestRowProgramTotalsGolden pins the row programs of fixed instances to
// the totals the element-keyed automaton compiled before colours replaced
// elements: colouring is a bijection on every bag, so every node table keeps
// exactly its rows, and the fused plan program and a Materialized view's
// unfused per-node programs keep exactly their edges.
func TestRowProgramTotalsGolden(t *testing.T) {
	type golden struct{ rows, edges, nodeRows, nodeEdges int }
	cases := []struct {
		name  string
		build func() (*pdb.CInstance, logic.Prob, Query)
		want  golden
	}{
		{"rst-chain50", func() (*pdb.CInstance, logic.Prob, Query) {
			c, p := gen.RSTChain(50, 0.5).ToCInstance()
			return c, p, mustCQ(t, rel.HardQuery())
		}, golden{1551, 2488, 3120, 4057}},
		{"rst-ktree2", func() (*pdb.CInstance, logic.Prob, Query) {
			r := rand.New(rand.NewSource(7))
			g, _ := gen.PartialKTree(40, 2, 0.8, r)
			c, p := gen.RSTOverGraph(g, 0.1, 0.9, r).ToCInstance()
			return c, p, mustCQ(t, rel.HardQuery())
		}, golden{3485, 8409, 4658, 9570}},
		{"rs-ktree3", func() (*pdb.CInstance, logic.Prob, Query) {
			r := rand.New(rand.NewSource(11))
			g, _ := gen.PartialKTree(30, 3, 0.7, r)
			c, p := gen.RSTOverGraph(g, 0.1, 0.9, r).ToCInstance()
			return c, p, mustCQ(t, rel.NewCQ(rel.NewAtom("R", rel.V("x")), rel.NewAtom("S", rel.V("x"), rel.V("y"))))
		}, golden{2676, 10950, 3788, 9042}},
		{"path-correlated", func() (*pdb.CInstance, logic.Prob, Query) {
			c, p := gen.CorrelatedPC(20, 3, rand.New(rand.NewSource(5)))
			return c, p, mustCQ(t, rel.NewCQ(rel.NewAtom("E", rel.V("x"), rel.V("y")), rel.NewAtom("E", rel.V("y"), rel.V("z"))))
		}, golden{126, 252, 581, 703}},
		{"reach-ktree2", func() (*pdb.CInstance, logic.Prob, Query) {
			r := rand.New(rand.NewSource(3))
			g, _ := gen.PartialKTree(25, 2, 0.8, r)
			c, p := gen.TIDFromGraph(g, 0.1, 0.9, r).ToCInstance()
			return c, p, NewReachQuery("E", "v0", "v24")
		}, golden{476, 867, 847, 1122}},
	}
	for _, tc := range cases {
		c, p, q := tc.build()
		pl, err := Prepare(c, q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m, err := pl.Materialize(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got golden
		got.rows, got.edges = programTotals(pl.prog.nodes)
		got.nodeRows, got.nodeEdges = programTotals(m.progs)
		if got != tc.want {
			t.Errorf("%s: program totals %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
