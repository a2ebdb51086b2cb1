package repro

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/rules"
	"repro/internal/sampling"
)

// TestIntegrationEngineOnPlantedKTrees drives the full pipeline — generator
// with planted structure, TID, engine — and cross-checks small cases against
// enumeration and larger ones against sampling.
func TestIntegrationEngineOnPlantedKTrees(t *testing.T) {
	q := rel.HardQuery()
	r := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 2} {
		g, planted := gen.PartialKTree(40, k, 0.7, r)
		if err := planted.Validate(g); err != nil {
			t.Fatalf("planted decomposition invalid: %v", err)
		}
		tid := gen.RSTOverGraph(g, 0.1, 0.4, r)
		res, err := core.ProbabilityTID(tid, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		est := sampling.QueryTID(tid, q, 20000, 0.999, rand.New(rand.NewSource(1)))
		if math.Abs(res.Probability-est.P) > est.Radius {
			t.Errorf("k=%d: engine %v outside sampling interval %s", k, res.Probability, est)
		}
	}
}

// TestIntegrationChaseThenEngine chases soft rules and evaluates a query on
// the chased pc-instance with the tractable engine, against enumeration.
func TestIntegrationChaseThenEngine(t *testing.T) {
	base := pdb.NewCInstance()
	base.AddFact(logic.Var("e0"), "E", "a", "b")
	base.AddFact(logic.Var("e1"), "E", "b", "c")
	prob := logic.Prob{"e0": 0.8, "e1": 0.7}
	prog := rules.NewProgram(
		rules.NewRule(rel.NewAtom("T", rel.V("x"), rel.V("y")), rel.NewAtom("E", rel.V("x"), rel.V("y"))),
		rules.NewSoftRule(0.5, rel.NewAtom("T", rel.V("x"), rel.V("z")),
			rel.NewAtom("T", rel.V("x"), rel.V("y")), rel.NewAtom("T", rel.V("y"), rel.V("z"))),
	)
	res, err := prog.Chase(base, prob, rules.ChaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := rel.NewCQ(rel.NewAtom("T", rel.C("a"), rel.C("c")))
	engine, err := core.ProbabilityPC(res.C, res.P, q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enum := res.C.QueryProbabilityEnumeration(q, res.P)
	if math.Abs(engine.Probability-enum) > 1e-9 {
		t.Errorf("engine %v, enumeration %v", engine.Probability, enum)
	}
	// 0.8 * 0.7 * 0.5: both edges and the coin.
	if math.Abs(engine.Probability-0.28) > 1e-12 {
		t.Errorf("P(T(a,c)) = %v, want 0.28", engine.Probability)
	}
}

// TestIntegrationProvenanceAgreesWithProbabilitySupports checks that the
// why-provenance witnesses of a query are exactly the fact sets whose
// presence makes the query hold minimally, tying internal/provenance to the
// possible-worlds semantics: the minimal satisfying worlds are found by
// enumeration over every world of the instance.
func TestIntegrationProvenanceAgreesWithProbabilitySupports(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tid := gen.RSTChain(1+r.Intn(3), 0.5)
		q := rel.HardQuery()
		c, root, err := core.CQLineage(tid.Inst, q, core.Options{})
		if err != nil {
			return false
		}
		why := provenance.Why{}
		ws, err := provenance.EvalCircuit[provenance.WhySet](why, c, root,
			func(e logic.Event) provenance.WhySet { return why.Tag(string(e)) })
		if err != nil {
			return false
		}
		// Every witness, materialized as a world, satisfies the query; and
		// removing any single fact from it breaks that witness's own match.
		for _, w := range ws {
			world := rel.NewInstance()
			for _, id := range w {
				var fi int
				if _, err := fmtSscan(id, &fi); err != nil {
					return false
				}
				world.Add(tid.Inst.Fact(fi))
			}
			if !q.Holds(world) {
				t.Logf("seed %d: witness %v does not satisfy the query", seed, w)
				return false
			}
		}
		got := make([]int, len(ws))
		for i, w := range ws {
			for _, id := range w {
				var fi int
				if _, err := fmtSscan(id, &fi); err != nil {
					return false
				}
				got[i] |= 1 << fi
			}
		}
		slices.Sort(got)
		if want := minimalSatisfyingWorlds(tid, q); !slices.Equal(got, want) {
			t.Logf("seed %d: witnesses %v (as fact masks %b), minimal satisfying worlds %b", seed, ws, got, want)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// minimalSatisfyingWorlds enumerates the worlds of tid and returns, in
// increasing order, the fact masks of those the query holds on while it
// fails on every world with one fact fewer.
func minimalSatisfyingWorlds(tid *pdb.TID, q rel.CQ) []int {
	n := tid.NumFacts()
	holds := make([]bool, 1<<n)
	present := make([]bool, n)
	for mask := range holds {
		for i := range present {
			present[i] = mask>>i&1 == 1
		}
		holds[mask] = q.Holds(tid.World(present))
	}
	var minimal []int
	for mask, h := range holds {
		isMin := h
		for i := 0; isMin && i < n; i++ {
			isMin = mask>>i&1 == 0 || !holds[mask&^(1<<i)]
		}
		if isMin {
			minimal = append(minimal, mask)
		}
	}
	return minimal
}

func fmtSscan(id string, fi *int) (int, error) {
	var n int
	for i := 1; i < len(id); i++ {
		n = n*10 + int(id[i]-'0')
	}
	*fi = n
	return 1, nil
}

// TestIntegrationConditioningSharpensTowardsTruth runs the crowd loop on a
// random instance and checks the posterior converges to the ground truth of
// the query.
func TestIntegrationConditioningSharpensTowardsTruth(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := pdb.NewCInstance()
		p := logic.Prob{}
		for u := 0; u < 4; u++ {
			e := logic.Event(string(rune('a' + u)))
			p[e] = 0.2 + 0.6*r.Float64()
			c.AddFact(logic.Var(e), "R", string(rune('a'+u)))
		}
		q := rel.NewCQ(rel.NewAtom("R", rel.C("a")))
		truth := logic.Valuation{}
		for _, e := range c.Events() {
			truth[e] = r.Float64() < p.P(e)
		}
		oracle := &cond.Oracle{Truth: truth}
		res, err := cond.NewConditioned(c, p).ResolveGreedy(q, oracle, 6)
		if err != nil {
			return false
		}
		want := 0.0
		if q.Holds(c.World(truth)) {
			want = 1.0
		}
		return math.Abs(res.Posterior-want) < 1e-9
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestIntegrationLineageRecomputesUnderNewProbabilities emits a d-DNNF
// lineage once and re-evaluates it under fresh probabilities, against a
// fresh engine run — the "specialize without re-evaluating" use case from
// the paper's introduction.
func TestIntegrationLineageRecomputesUnderNewProbabilities(t *testing.T) {
	tid := gen.RSTChain(12, 0.5)
	q := rel.HardQuery()
	c, p := tid.ToCInstance()
	cq, err := core.NewCQQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EvaluatePC(c, p, cq, core.Options{EmitLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		p2 := logic.Prob{}
		tid2 := pdb.NewTID()
		for i := 0; i < tid.NumFacts(); i++ {
			pr := r.Float64()
			p2[tid.EventOf(i)] = pr
			tid2.Add(tid.Inst.Fact(i), pr)
		}
		fast := res.Lineage.DDNNFProbability(res.Root, p2)
		slow, err := core.ProbabilityTID(tid2, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-slow.Probability) > 1e-9 {
			t.Fatalf("trial %d: lineage %v, engine %v", trial, fast, slow.Probability)
		}
	}
}
