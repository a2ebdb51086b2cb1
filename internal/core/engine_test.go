package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// randomTID builds a small random TID over a few relations with low
// treewidth-ish shape (chains plus noise) for oracle cross-checks.
func randomTID(r *rand.Rand, n int) *pdb.TID {
	t := pdb.NewTID()
	names := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		p := float64(r.Intn(11)) / 10
		switch r.Intn(3) {
		case 0:
			t.AddFact(p, "R", names[r.Intn(len(names))])
		case 1:
			t.AddFact(p, "S", names[r.Intn(len(names))], names[r.Intn(len(names))])
		default:
			t.AddFact(p, "T", names[r.Intn(len(names))])
		}
	}
	return t
}

func TestProbabilityTIDHardQuerySmall(t *testing.T) {
	tid := pdb.NewTID()
	tid.AddFact(0.5, "R", "a")
	tid.AddFact(0.5, "S", "a", "b")
	tid.AddFact(0.5, "T", "b")
	res, err := ProbabilityTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probability-0.125) > 1e-12 {
		t.Errorf("P = %v, want 0.125", res.Probability)
	}
	if math.Abs(res.TotalMass-1) > 1e-9 {
		t.Errorf("total mass = %v", res.TotalMass)
	}
}

func TestProbabilityTIDMatchesEnumerationOnBipartite(t *testing.T) {
	// The 2x2 bipartite instance from the intro's hardness discussion.
	tid := pdb.NewTID()
	tid.AddFact(0.5, "R", "x1")
	tid.AddFact(0.3, "R", "x2")
	tid.AddFact(0.8, "S", "x1", "y1")
	tid.AddFact(0.2, "S", "x1", "y2")
	tid.AddFact(0.9, "S", "x2", "y1")
	tid.AddFact(0.4, "S", "x2", "y2")
	tid.AddFact(0.6, "T", "y1")
	tid.AddFact(0.7, "T", "y2")
	q := rel.HardQuery()
	want := tid.QueryProbabilityEnumeration(q)
	res, err := ProbabilityTID(tid, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probability-want) > 1e-9 {
		t.Errorf("engine %v, enumeration %v", res.Probability, want)
	}
}

func TestPropertyProbabilityTIDMatchesEnumeration(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	queries := []rel.CQ{
		rel.HardQuery(),
		rel.NewCQ(rel.NewAtom("R", rel.V("x"))),
		rel.NewCQ(rel.NewAtom("S", rel.V("x"), rel.V("x"))),
		rel.NewCQ(rel.NewAtom("S", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"), rel.V("z"))),
		rel.NewCQ(rel.NewAtom("R", rel.C("a"))),
		rel.NewCQ(rel.NewAtom("S", rel.C("a"), rel.V("y")), rel.NewAtom("T", rel.V("y"))),
	}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tid := randomTID(r, 1+r.Intn(8))
		q := queries[r.Intn(len(queries))]
		want := tid.QueryProbabilityEnumeration(q)
		res, err := ProbabilityTID(tid, q, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if math.Abs(res.Probability-want) > 1e-9 {
			t.Logf("seed %d: engine %v, enum %v (query %s on %s)", seed, res.Probability, want, q, tid.Inst)
			return false
		}
		return math.Abs(res.TotalMass-1) < 1e-6
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyEmittedLineageIsExactDDNNF checks the lineage Result emits
// (a walk over the compiled row program, fused unary chains included) on
// three input families: TIDs under the hard query, correlated pc-instances
// whose annotations share and negate events, and TIDs under the
// connectivity query. Each circuit must (1) reproduce the engine
// probability through the d-DNNF pass and (2) agree with the query on every
// possible world.
func TestPropertyEmittedLineageIsExactDDNNF(t *testing.T) {
	type lineageCase struct {
		name  string
		c     *pdb.CInstance
		p     logic.Prob
		q     Query
		holds func(world *rel.Instance) bool
	}
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		hard := rel.HardQuery()
		var cases []lineageCase

		tidC, tidP := randomTID(r, 1+r.Intn(7)).ToCInstance()
		cases = append(cases, lineageCase{"tid", tidC, tidP,
			mustCQ(t, hard), hard.Holds})

		corrC, corrP := randomCorrelatedPC(r, 1+r.Intn(7))
		cases = append(cases, lineageCase{"correlated", corrC, corrP,
			mustCQ(t, hard), hard.Holds})

		reachC, reachP := randomEdgeTID(r, 1+r.Intn(6), []string{"a", "b", "c", "d"}).ToCInstance()
		cases = append(cases, lineageCase{"reach", reachC, reachP,
			NewReachQuery("E", "a", "d"),
			func(world *rel.Instance) bool { return connectedBF(world, "E", "a", "d") }})

		for _, tc := range cases {
			res, err := EvaluatePC(tc.c, tc.p, tc.q, Options{EmitLineage: true})
			if err != nil {
				t.Logf("seed %d %s: %v", seed, tc.name, err)
				return false
			}
			// (1) d-DNNF pass reproduces the engine probability.
			got := res.Lineage.DDNNFProbability(res.Root, tc.p)
			if math.Abs(got-res.Probability) > 1e-9 {
				t.Logf("seed %d %s: ddnnf %v vs engine %v", seed, tc.name, got, res.Probability)
				return false
			}
			// (2) The lineage is semantically correct on every valuation.
			ok := true
			logic.EnumerateValuations(tc.c.Events(), func(v logic.Valuation) {
				if res.Lineage.Eval(res.Root, v) != tc.holds(tc.c.World(v)) {
					ok = false
				}
			})
			if !ok {
				t.Logf("seed %d %s: lineage disagrees with possible-worlds semantics", seed, tc.name)
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// randomCorrelatedPC builds a small pc-instance over R/S/T whose facts are
// annotated by literals and conjunctions over three shared events, so
// several facts depend on one event, some through its negation.
func randomCorrelatedPC(r *rand.Rand, n int) (*pdb.CInstance, logic.Prob) {
	events := []logic.Event{"u", "v", "w"}
	names := []string{"a", "b", "c"}
	c := pdb.NewCInstance()
	for i := 0; i < n; i++ {
		var ann logic.Formula = logic.Var(events[r.Intn(len(events))])
		switch r.Intn(3) {
		case 0:
			ann = logic.Not(ann)
		case 1:
			ann = logic.And(ann, logic.Not(logic.Var(events[r.Intn(len(events))])))
		}
		switch r.Intn(3) {
		case 0:
			c.AddFact(ann, "R", names[r.Intn(len(names))])
		case 1:
			c.AddFact(ann, "S", names[r.Intn(len(names))], names[r.Intn(len(names))])
		default:
			c.AddFact(ann, "T", names[r.Intn(len(names))])
		}
	}
	p := logic.Prob{}
	for _, e := range events {
		p[e] = float64(r.Intn(11)) / 10
	}
	return c, p
}

func TestProbabilityPCCorrelatedAnnotations(t *testing.T) {
	// Two facts sharing one event (the eJane pattern of Figure 1): either
	// both present or both absent.
	c := pdb.NewCInstance()
	c.AddFact(logic.Var("jane"), "R", "a")
	c.AddFact(logic.Var("jane"), "S", "a", "b")
	c.AddFact(logic.Var("t"), "T", "b")
	p := logic.Prob{"jane": 0.9, "t": 0.4}
	q := rel.HardQuery()
	want := c.QueryProbabilityEnumeration(q, p) // 0.9 * 0.4
	res, err := ProbabilityPC(c, p, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probability-want) > 1e-12 {
		t.Errorf("engine %v, enum %v", res.Probability, want)
	}
	if math.Abs(res.Probability-0.36) > 1e-12 {
		t.Errorf("P = %v, want 0.36", res.Probability)
	}
}

func TestProbabilityPCNegatedAndMutexAnnotations(t *testing.T) {
	// Mutually exclusive facts via e and !e (the mux pattern).
	c := pdb.NewCInstance()
	c.AddFact(logic.Var("e"), "Name", "p", "Bradley")
	c.AddFact(logic.Not(logic.Var("e")), "Name", "p", "Chelsea")
	p := logic.Prob{"e": 0.6}
	qB := rel.NewCQ(rel.NewAtom("Name", rel.V("x"), rel.C("Bradley")))
	qC := rel.NewCQ(rel.NewAtom("Name", rel.V("x"), rel.C("Chelsea")))
	resB, err := ProbabilityPC(c, p, qB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resC, err := ProbabilityPC(c, p, qC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resB.Probability-0.6) > 1e-12 || math.Abs(resC.Probability-0.4) > 1e-12 {
		t.Errorf("P(Bradley) = %v, P(Chelsea) = %v", resB.Probability, resC.Probability)
	}
}

func TestPropertyProbabilityPCMatchesEnumeration(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	events := []logic.Event{"u", "v", "w"}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := pdb.NewCInstance()
		names := []string{"a", "b", "c"}
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			e := events[r.Intn(len(events))]
			var ann logic.Formula = logic.Var(e)
			switch r.Intn(4) {
			case 0:
				ann = logic.Not(ann)
			case 1:
				ann = logic.And(ann, logic.Var(events[r.Intn(len(events))]))
			case 2:
				ann = logic.Or(ann, logic.Not(logic.Var(events[r.Intn(len(events))])))
			}
			switch r.Intn(3) {
			case 0:
				c.AddFact(ann, "R", names[r.Intn(3)])
			case 1:
				c.AddFact(ann, "S", names[r.Intn(3)], names[r.Intn(3)])
			default:
				c.AddFact(ann, "T", names[r.Intn(3)])
			}
		}
		p := logic.Prob{}
		for _, e := range events {
			p[e] = r.Float64()
		}
		q := rel.HardQuery()
		want := c.QueryProbabilityEnumeration(q, p)
		res, err := ProbabilityPC(c, p, q, Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if math.Abs(res.Probability-want) > 1e-9 {
			t.Logf("seed %d: engine %v, enum %v", seed, res.Probability, want)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestChainTIDLongPathQuery(t *testing.T) {
	// 60-fact chain with a 3-step path query: enumeration would need 2^60
	// worlds; the engine answers exactly.
	tid := pdb.NewTID()
	for i := 0; i < 60; i++ {
		tid.AddFact(0.9, "E", nodeName(i), nodeName(i+1))
	}
	q := rel.NewCQ(
		rel.NewAtom("E", rel.V("x"), rel.V("y")),
		rel.NewAtom("E", rel.V("y"), rel.V("z")),
		rel.NewAtom("E", rel.V("z"), rel.V("w")),
	)
	res, err := ProbabilityTID(tid, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// P(no 3 consecutive edges all present) via a small Markov chain,
	// computed here by direct DP over the chain.
	want := 1 - probNoRun(60, 0.9, 3)
	_ = want
	// probNoRun returns P(no run of 3 successes): P(q) = 1 - that.
	if math.Abs(res.Probability-(1-probNoRun(60, 0.9, 3))) > 1e-9 {
		t.Errorf("P = %v, want %v", res.Probability, 1-probNoRun(60, 0.9, 3))
	}
}

// probNoRun computes the probability that n independent Bernoulli(p) trials
// contain no run of k consecutive successes.
func probNoRun(n int, p float64, k int) float64 {
	// state = current success streak length (0..k-1); absorbing at k.
	dp := make([]float64, k)
	dp[0] = 1
	for i := 0; i < n; i++ {
		next := make([]float64, k)
		for s, w := range dp {
			if w == 0 {
				continue
			}
			next[0] += w * (1 - p)
			if s+1 < k {
				next[s+1] += w * p
			}
		}
		dp = next
	}
	total := 0.0
	for _, w := range dp {
		total += w
	}
	return total
}

func nodeName(i int) string {
	return "n" + string(rune('0'+i/10%10)) + string(rune('0'+i%10)) + string(rune('a'+i/100))
}

func TestPossibleCertainTID(t *testing.T) {
	tid := pdb.NewTID()
	tid.AddFact(1.0, "R", "a")
	tid.AddFact(0.5, "S", "a", "b")
	tid.AddFact(1.0, "T", "b")
	q := rel.HardQuery()
	possible, err := PossibleTID(tid, q)
	if err != nil || !possible {
		t.Errorf("Possible = %v, %v; want true", possible, err)
	}
	certain, err := CertainTID(tid, q)
	if err != nil || certain {
		t.Errorf("Certain = %v, %v; want false (S fact uncertain)", certain, err)
	}
	// Make S certain too.
	tid2 := pdb.NewTID()
	tid2.AddFact(1.0, "R", "a")
	tid2.AddFact(1.0, "S", "a", "b")
	tid2.AddFact(1.0, "T", "b")
	certain, err = CertainTID(tid2, q)
	if err != nil || !certain {
		t.Errorf("Certain = %v, %v; want true", certain, err)
	}
	// Impossible query: no T fact can ever match.
	tid3 := pdb.NewTID()
	tid3.AddFact(0.5, "R", "a")
	possible, err = PossibleTID(tid3, q)
	if err != nil || possible {
		t.Errorf("Possible = %v, %v; want false", possible, err)
	}
}

// TestPropertyPossibleCertainPCMatchesEnumeration checks the plan's
// reachability pass against enumeration over the valuations p allows, on
// pc-instances with negated annotations and event probabilities at 0 and 1
// and next to them.
func TestPropertyPossibleCertainPCMatchesEnumeration(t *testing.T) {
	weights := []float64{0, 1, 0.5, 1e-9, 1 - 1e-13}
	queries := []rel.CQ{
		rel.HardQuery(),
		rel.NewCQ(rel.NewAtom("S", rel.V("x"), rel.V("y")), rel.NewAtom("T", rel.V("y"))),
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		c, p := randomCorrelatedPC(r, 1+r.Intn(7))
		for _, e := range []logic.Event{"u", "v", "w"} {
			p[e] = weights[r.Intn(len(weights))]
		}
		q := queries[trial%len(queries)]
		wantPossible, wantCertain := false, true
		c.EnumerateWorlds(func(v logic.Valuation, world *rel.Instance) {
			for e, val := range v {
				if pe := p.P(e); val && pe == 0 || !val && pe == 1 {
					return // a valuation of probability 0
				}
			}
			holds := q.Holds(world)
			wantPossible = wantPossible || holds
			wantCertain = wantCertain && holds
		})
		pl, err := PrepareCQ(c, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		possible, certain, err := pl.PossibleCertain(p)
		if err != nil {
			t.Fatal(err)
		}
		if possible != wantPossible || certain != wantCertain {
			t.Fatalf("trial %d: possible %v certain %v, enumeration %v %v; p %v on\n%s",
				trial, possible, certain, wantPossible, wantCertain, p, c.Inst)
		}
	}
}

func TestPropertyMonotoneLineageMatchesSemantics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tid := randomTID(r, 1+r.Intn(7))
		q := rel.HardQuery()
		c, root, err := CQLineage(tid.Inst, q, Options{})
		if err != nil {
			return false
		}
		if !c.Monotone() {
			t.Logf("seed %d: lineage not monotone", seed)
			return false
		}
		n := tid.NumFacts()
		ok := true
		for mask := 0; mask < 1<<uint(n); mask++ {
			v := logic.Valuation{}
			present := make([]bool, n)
			for i := 0; i < n; i++ {
				present[i] = mask&(1<<uint(i)) != 0
				v[FactEvent(i)] = present[i]
			}
			if c.Eval(root, v) != q.Holds(tid.World(present)) {
				ok = false
				break
			}
		}
		return ok
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// mustCQ compiles q's bag automaton, failing the test on error.
func mustCQ(t testing.TB, q rel.CQ) *CQQuery {
	t.Helper()
	cq, err := NewCQQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

// TestWideCQRejectedWithError: a CQ with more atoms than the witness mask
// holds fails every entry point with ErrTooManyAtoms instead of panicking.
func TestWideCQRejectedWithError(t *testing.T) {
	atoms := make([]rel.Atom, 31)
	for i := range atoms {
		atoms[i] = rel.NewAtom("S", rel.V(fmt.Sprintf("x%d", i)), rel.V(fmt.Sprintf("x%d", i+1)))
	}
	wide := rel.NewCQ(atoms...)
	tid := randomTID(rand.New(rand.NewSource(1)), 4)
	if _, err := NewCQQuery(wide); !errors.Is(err, ErrTooManyAtoms) {
		t.Errorf("NewCQQuery: %v, want ErrTooManyAtoms", err)
	}
	if _, _, err := PrepareTID(tid, wide, Options{}); !errors.Is(err, ErrTooManyAtoms) {
		t.Errorf("PrepareTID: %v, want ErrTooManyAtoms", err)
	}
	if _, _, err := PrepareShardedTID(tid, wide, Options{}); !errors.Is(err, ErrTooManyAtoms) {
		t.Errorf("PrepareShardedTID: %v, want ErrTooManyAtoms", err)
	}
	if _, _, err := CQLineage(tid.Inst, wide, Options{}); !errors.Is(err, ErrTooManyAtoms) {
		t.Errorf("CQLineage: %v, want ErrTooManyAtoms", err)
	}
	if _, err := NewCQQuery(rel.NewCQ(atoms[:30]...)); err != nil {
		t.Errorf("a 30-atom CQ: %v", err)
	}
}

// runOnWorld reports whether q holds on one world of inst, the facts with
// present[i], by running the prepared plan of inst's TID translation under
// the world's 0/1 fact weights. The determinized rows partition the
// valuations, so the probability is exactly 0 or 1.
func runOnWorld(inst *rel.Instance, present []bool, q Query) (bool, error) {
	tid := &pdb.TID{Inst: inst, Probs: make([]float64, len(present))}
	for i, keep := range present {
		if keep {
			tid.Probs[i] = 1
		}
	}
	c, p := tid.ToCInstance()
	pl, err := Prepare(c, q, Options{Heuristic: treedec.MinFill})
	if err != nil {
		return false, err
	}
	prob, err := pl.Probability(p)
	if err != nil {
		return false, err
	}
	if prob != 0 && prob != 1 {
		return false, fmt.Errorf("probability %v of a single world is not 0 or 1", prob)
	}
	return prob == 1, nil
}

func TestRunOnWorldMatchesCQHolds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		tid := randomTID(r, 1+r.Intn(8))
		inst := tid.Inst
		q := rel.HardQuery()
		cq := mustCQ(t, q)
		n := inst.NumFacts()
		for rep := 0; rep < 8; rep++ {
			present := make([]bool, n)
			for i := range present {
				present[i] = r.Intn(2) == 0
			}
			got, err := runOnWorld(inst, present, cq)
			if err != nil {
				t.Fatal(err)
			}
			world := rel.NewInstance()
			for i, keep := range present {
				if keep {
					world.Add(inst.Fact(i))
				}
			}
			if got != q.Holds(world) {
				t.Fatalf("trial %d: automaton %v, reference %v on world %s", trial, got, q.Holds(world), world)
			}
		}
	}
}

func TestEmptyInstanceAndEmptyQuery(t *testing.T) {
	tid := pdb.NewTID()
	res, err := ProbabilityTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability != 0 {
		t.Errorf("P on empty instance = %v, want 0", res.Probability)
	}
	res, err = ProbabilityTID(tid, rel.NewCQ(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability != 1 {
		t.Errorf("P of empty query = %v, want 1", res.Probability)
	}
}

func TestDeterministicFactProbabilities(t *testing.T) {
	tid := pdb.NewTID()
	tid.AddFact(1.0, "R", "a")
	tid.AddFact(1.0, "S", "a", "b")
	tid.AddFact(0.0, "T", "b")
	res, err := ProbabilityTID(tid, rel.HardQuery(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability != 0 {
		t.Errorf("P = %v, want 0 (T impossible)", res.Probability)
	}
}
