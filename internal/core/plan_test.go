package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
)

// TestPlanMatchesOneShotAndEnumeration checks the Prepare/Evaluate split
// against both the one-shot entry point and the possible-worlds oracle on
// random TIDs.
func TestPlanMatchesOneShotAndEnumeration(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	queries := []rel.CQ{
		rel.HardQuery(),
		rel.NewCQ(rel.NewAtom("R", rel.V("x"))),
		rel.NewCQ(rel.NewAtom("S", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"), rel.V("z"))),
		rel.NewCQ(rel.NewAtom("S", rel.C("a"), rel.V("y")), rel.NewAtom("T", rel.V("y"))),
	}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tid := randomTID(r, 1+r.Intn(8))
		q := queries[r.Intn(len(queries))]
		pl, p, err := PrepareTID(tid, q, Options{})
		if err != nil {
			t.Logf("seed %d: prepare: %v", seed, err)
			return false
		}
		got, err := pl.Probability(p)
		if err != nil {
			t.Logf("seed %d: evaluate: %v", seed, err)
			return false
		}
		oneShot, err := ProbabilityTID(tid, q, Options{})
		if err != nil {
			t.Logf("seed %d: one-shot: %v", seed, err)
			return false
		}
		want := tid.QueryProbabilityEnumeration(q)
		if math.Abs(got-want) > 1e-9 || math.Abs(got-oneShot.Probability) > 1e-12 {
			t.Logf("seed %d: plan %v, one-shot %v, enum %v", seed, got, oneShot.Probability, want)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestPlanRepeatedEvaluationsAreStable evaluates the same plan many times:
// answers must agree up to floating noise (row tables are hash maps, so the
// summation order — and hence the last ulp — may differ between runs, as it
// always has in the one-shot engine).
func TestPlanRepeatedEvaluationsAreStable(t *testing.T) {
	tid := gen.RSTChain(30, 0.5)
	q := rel.HardQuery()
	pl, p, err := PrepareTID(tid, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := pl.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := pl.Probability(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-first) > 1e-12 {
			t.Fatalf("evaluation %d: %v differs from first %v", i, got, first)
		}
	}
}

// TestPlanTwoProbMapsMatchFreshRuns evaluates a single plan under two
// different probability maps and checks both answers against fresh one-shot
// runs — the structure cache must be probability-independent.
func TestPlanTwoProbMapsMatchFreshRuns(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		tid := randomTID(r, 1+r.Intn(8))
		q := rel.HardQuery()
		c, p1 := tid.ToCInstance()
		pl, err := PrepareCQ(c, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		p2 := logic.Prob{}
		for e := range p1 {
			p2[e] = r.Float64()
		}
		// Interleave the two maps to exercise cache reuse across maps.
		for _, p := range []logic.Prob{p1, p2, p1, p2} {
			got, err := pl.Probability(p)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := ProbabilityPC(c, p, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-fresh.Probability) > 1e-12 {
				t.Fatalf("trial %d: plan %v, fresh run %v", trial, got, fresh.Probability)
			}
		}
	}
}

// TestPlanCorrelatedPCMatchesEnumeration checks the plan on pc-instances
// with shared events (correlated annotations) against enumeration.
func TestPlanCorrelatedPCMatchesEnumeration(t *testing.T) {
	q := rel.NewCQ(
		rel.NewAtom("E", rel.V("x"), rel.V("y")),
		rel.NewAtom("E", rel.V("y"), rel.V("z")),
	)
	for _, n := range []int{4, 6, 8} {
		r := rand.New(rand.NewSource(int64(n)))
		c, p := gen.CorrelatedPC(n, 3, r)
		pl, err := PrepareCQ(c, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Probability(p)
		if err != nil {
			t.Fatal(err)
		}
		want := c.QueryProbabilityEnumeration(q, p)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: plan %v, enumeration %v", n, got, want)
		}
	}
}

// TestPlanLineageAcrossEvaluations checks that a plan prepared with
// EmitLineage produces a correct d-DNNF on every Result call, including
// under a changed probability map.
func TestPlanLineageAcrossEvaluations(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tid := randomTID(r, 6)
	q := rel.HardQuery()
	c, p1 := tid.ToCInstance()
	pl, err := PrepareCQ(c, q, Options{EmitLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	p2 := logic.Prob{}
	for e := range p1 {
		p2[e] = r.Float64()
	}
	for _, p := range []logic.Prob{p1, p2} {
		res, err := pl.Result(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Lineage == nil {
			t.Fatal("no lineage emitted")
		}
		if got := res.Lineage.DDNNFProbability(res.Root, p); math.Abs(got-res.Probability) > 1e-9 {
			t.Errorf("d-DNNF pass %v vs engine %v", got, res.Probability)
		}
	}
}

// TestPlanResultLineageOwnedByCaller checks the documented ownership
// contract of (*Plan).Result: the returned lineage circuit belongs to the
// caller and is unaffected by any later evaluation of the same plan.
func TestPlanResultLineageOwnedByCaller(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	tid := randomTID(r, 6)
	q := rel.HardQuery()
	c, p1 := tid.ToCInstance()
	pl, err := PrepareCQ(c, q, Options{EmitLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := pl.Result(p1)
	if err != nil {
		t.Fatal(err)
	}
	wantGates := first.Lineage.Stat().Gates
	want := first.Lineage.DDNNFProbability(first.Root, p1)
	if math.Abs(want-first.Probability) > 1e-9 {
		t.Fatalf("d-DNNF pass %v vs engine %v", want, first.Probability)
	}
	// Keep evaluating the plan under other maps, batched and serial.
	for i := 0; i < 5; i++ {
		p2 := logic.Prob{}
		for e := range p1 {
			p2[e] = r.Float64()
		}
		second, err := pl.Result(p2)
		if err != nil {
			t.Fatal(err)
		}
		if second.Lineage == first.Lineage {
			t.Fatal("Result returned a shared lineage circuit")
		}
		if _, err := pl.ProbabilityBatch([]logic.Prob{p1, p2}); err != nil {
			t.Fatal(err)
		}
	}
	// The first circuit must be byte-for-byte untouched.
	if got := first.Lineage.Stat().Gates; got != wantGates {
		t.Errorf("first lineage grew from %d to %d gates", wantGates, got)
	}
	if got := first.Lineage.DDNNFProbability(first.Root, p1); got != want {
		t.Errorf("first lineage now evaluates to %v, was %v", got, want)
	}
}

// TestPlanReachQuery checks the plan path with a non-CQ automaton
// (s-t connectivity) against a fresh one-shot run.
func TestPlanReachQuery(t *testing.T) {
	tid := pdb.NewTID()
	for i := 0; i < 6; i++ {
		tid.AddFact(0.5, "E", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
	}
	c, p := tid.ToCInstance()
	q := NewReachQuery("E", "n0", "n6")
	pl, err := Prepare(c, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReachProbabilityTID(tid, "E", "n0", "n6", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want.Probability) > 1e-12 {
		t.Errorf("plan %v, one-shot %v", got, want.Probability)
	}
	// Chain of 7 nodes, 6 independent edges at 0.5: P = 0.5^6.
	if exact := math.Pow(0.5, 6); math.Abs(got-exact) > 1e-12 {
		t.Errorf("P = %v, want %v", got, exact)
	}
}

// TestPairMemoGrows fills the structural pass's pair table well past several
// doublings and checks every pair still maps to its own value, including
// pairs whose packed keys collide in their low bits.
func TestPairMemoGrows(t *testing.T) {
	var pm pairMemo
	key := func(a, b int) uint64 { return uint64(a)<<32 | uint64(b) + 1 }
	for a := 0; a < 100; a++ {
		for b := 0; b < 50; b++ {
			i, ok := pm.find(key(a, b))
			if ok {
				t.Fatalf("pair (%d,%d) found before insertion", a, b)
			}
			pm.insert(i, key(a, b), int32(a*50+b)-1)
		}
	}
	for a := 0; a < 100; a++ {
		for b := 0; b < 50; b++ {
			i, ok := pm.find(key(a, b))
			if !ok || pm.vals[i] != int32(a*50+b)-1 {
				t.Fatalf("pair (%d,%d): found=%v value %d", a, b, ok, pm.vals[i])
			}
		}
	}
	if _, ok := pm.find(key(100, 0)); ok {
		t.Fatal("found a pair that was never inserted")
	}
}
