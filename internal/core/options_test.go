package core

import (
	"math"
	"testing"

	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

func TestSuppliedJointDecomposition(t *testing.T) {
	tid := pdb.NewTID()
	for i := 0; i < 10; i++ {
		tid.AddFact(0.5, "E", nodeName(i), nodeName(i+1))
	}
	c, p := tid.ToCInstance()
	joint, _, _ := JointEventGraph(c, nil)
	d := treedec.Decompose(joint, treedec.MinFill)
	q := rel.NewCQ(rel.NewAtom("E", rel.V("x"), rel.V("y")), rel.NewAtom("E", rel.V("y"), rel.V("z")))
	cq := mustCQ(t, q)
	withPlanted, err := EvaluatePC(c, p, cq, Options{Joint: d})
	if err != nil {
		t.Fatal(err)
	}
	without, err := EvaluatePC(c, p, cq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withPlanted.Probability-without.Probability) > 1e-12 {
		t.Errorf("planted %v vs heuristic %v", withPlanted.Probability, without.Probability)
	}
	if withPlanted.Width != d.Width() {
		t.Errorf("reported width %d, supplied %d", withPlanted.Width, d.Width())
	}
}

func TestSuppliedJointDecompositionRejectedWhenInvalid(t *testing.T) {
	tid := pdb.NewTID()
	tid.AddFact(0.5, "E", "a", "b")
	c, p := tid.ToCInstance()
	// A decomposition of the wrong graph: single empty bag.
	bad := &treedec.Decomposition{Bags: [][]int{{}}, Parent: []int{-1}}
	cq := mustCQ(t, rel.NewCQ(rel.NewAtom("E", rel.V("x"), rel.V("y"))))
	if _, err := EvaluatePC(c, p, cq, Options{Joint: bad}); err == nil {
		t.Error("expected validation error for a bad supplied decomposition")
	}
}

func TestMinFillOptionAgrees(t *testing.T) {
	tid := pdb.NewTID()
	tid.AddFact(0.3, "R", "a")
	tid.AddFact(0.6, "S", "a", "b")
	tid.AddFact(0.9, "T", "b")
	q := rel.HardQuery()
	a, err := ProbabilityTID(tid, q, Options{Heuristic: treedec.MinDegree})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProbabilityTID(tid, q, Options{Heuristic: treedec.MinFill})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Probability-b.Probability) > 1e-12 {
		t.Errorf("heuristics disagree: %v vs %v", a.Probability, b.Probability)
	}
}
