package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// rootQuery asks whether the one fact of rootPCC is present.
var rootQuery = rel.NewCQ(rel.NewAtom("R", rel.V("x")))

// rootPCC is the pcc-instance with the one fact R(a), annotated by root:
// under rootQuery its plan answers for the circuit's root gate.
func rootPCC(c *circuit.Circuit, root circuit.Gate, p logic.Prob) *pdb.PCC {
	pcc := &pdb.PCC{Inst: rel.NewInstance(), Circ: c, P: p}
	pcc.Add(rel.NewFact("R", "a"), root)
	return pcc
}

// rootPlan prepares rootQuery on rootPCC.
func rootPlan(t *testing.T, c *circuit.Circuit, root circuit.Gate) *Plan {
	t.Helper()
	pl, err := PreparePCC(rootPCC(c, root, nil), rootQuery, Options{})
	if err != nil {
		t.Fatalf("PreparePCC(%s): %v", c.String(root), err)
	}
	return pl
}

// uniformProb gives every event of c probability 0.5.
func uniformProb(c *circuit.Circuit) logic.Prob {
	p := logic.Prob{}
	for _, e := range c.Events() {
		p[e] = 0.5
	}
	return p
}

func TestPCCProbabilitySimple(t *testing.T) {
	c := circuit.New()
	a, b := c.Var("a"), c.Var("b")
	p := logic.Prob{"a": 0.3, "b": 0.5}
	cases := []struct {
		root circuit.Gate
		want float64
	}{
		{a, 0.3},
		{c.Not(a), 0.7},
		{c.And(a, b), 0.15},
		{c.Or(a, b), 0.65},
		{c.Const(true), 1},
		{c.Const(false), 0},
	}
	for _, tc := range cases {
		got, err := rootPlan(t, c, tc.root).Probability(p)
		if err != nil {
			t.Fatalf("Probability(%s): %v", c.String(tc.root), err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("P(%s) = %v, want %v", c.String(tc.root), got, tc.want)
		}
	}
}

func TestPCCProbabilitySharedSubcircuit(t *testing.T) {
	// root = (a & b) | (a & !b): shared a; P = P(a) = 0.4.
	c := circuit.New()
	a, b := c.Var("a"), c.Var("b")
	root := c.Or(c.And(a, b), c.And(a, c.Not(b)))
	got, err := rootPlan(t, c, root).Probability(logic.Prob{"a": 0.4, "b": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.4) > 1e-12 {
		t.Errorf("P = %v, want 0.4", got)
	}
}

// randomCircuit builds a random circuit and returns it with a root gate.
func randomCircuit(r *rand.Rand, nVars, nOps int) (*circuit.Circuit, circuit.Gate) {
	c := circuit.New()
	gates := []circuit.Gate{c.Const(true), c.Const(false)}
	for i := 0; i < nVars; i++ {
		gates = append(gates, c.Var(logic.Event(string(rune('a'+i)))))
	}
	for i := 0; i < nOps; i++ {
		pick := func() circuit.Gate { return gates[r.Intn(len(gates))] }
		var g circuit.Gate
		switch r.Intn(3) {
		case 0:
			g = c.Not(pick())
		case 1:
			g = c.And(pick(), pick())
		default:
			g = c.Or(pick(), pick(), pick())
		}
		gates = append(gates, g)
	}
	return c, gates[len(gates)-1]
}

func TestPropertyPCCCircuitMatchesEnumeration(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, root := randomCircuit(r, 2+r.Intn(4), 3+r.Intn(12))
		p := logic.Prob{}
		for _, e := range c.Events() {
			p[e] = r.Float64()
		}
		want := c.EnumerationProbability(root, p)
		got, err := rootPlan(t, c, root).Probability(p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if math.Abs(got-want) > 1e-9 {
			t.Logf("seed %d: engine %v vs enum %v on %s", seed, got, want, c.String(root))
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyPCCPossibleCertainMatchEnumeration(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, root := randomCircuit(r, 2+r.Intn(3), 3+r.Intn(8))
		events := c.Events()
		possible, certain := false, true
		logic.EnumerateValuations(events, func(v logic.Valuation) {
			if c.Eval(root, v) {
				possible = true
			} else {
				certain = false
			}
		})
		gotP, gotC, err := rootPlan(t, c, root).PossibleCertain(uniformProb(c))
		if err != nil {
			return false
		}
		return gotP == possible && gotC == certain
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPCCMonotonePossibleCertain(t *testing.T) {
	c := circuit.New()
	a, b := c.Var("a"), c.Var("b")
	root := c.Or(c.And(a, b), b)
	if !c.Monotone() {
		t.Fatal("circuit should be monotone")
	}
	possible, certain, err := rootPlan(t, c, root).PossibleCertain(uniformProb(c))
	if err != nil || !possible || certain {
		t.Errorf("PossibleCertain = %v, %v, %v; want true, false", possible, certain, err)
	}
}

func TestPCCLongChainProbability(t *testing.T) {
	// AND-chain over 40 events with p = 0.9: P = 0.9^40. Enumeration would
	// need 2^40 worlds; the engine handles it easily.
	c := circuit.New()
	acc := c.Const(true)
	for i := 0; i < 40; i++ {
		acc = c.And(acc, c.Var(logic.Event(fmt.Sprintf("e%02d", i))))
	}
	p := logic.Prob{}
	for _, e := range c.Events() {
		p[e] = 0.9
	}
	got, err := rootPlan(t, c, acc).Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(0.9, 40)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P = %v, want %v", got, want)
	}
}

// TestPCCPossibleCertainNarrowModel covers a circuit whose one model has
// probability 2^-50 under uniform weights, below any float threshold: the
// binary chain g = ¬z ∧ e0 ∧ … ∧ e48. g is possible, and ¬g is not certain.
func TestPCCPossibleCertainNarrowModel(t *testing.T) {
	c := circuit.New()
	g := c.Not(c.Var("z"))
	for i := 0; i < 49; i++ {
		g = c.And(g, c.Var(logic.Event(fmt.Sprintf("e%02d", i))))
	}
	p := uniformProb(c)
	possible, certain, err := rootPlan(t, c, g).PossibleCertain(p)
	if err != nil || !possible || certain {
		t.Errorf("g: PossibleCertain = %v, %v, %v; want true, false", possible, certain, err)
	}
	possible, certain, err = rootPlan(t, c, c.Not(g)).PossibleCertain(p)
	if err != nil || !possible || certain {
		t.Errorf("¬g: PossibleCertain = %v, %v, %v; want true, false", possible, certain, err)
	}
	got, err := rootPlan(t, c, g).Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(0.5, 50); math.Abs(got-want) > 1e-12*want {
		t.Errorf("P(g) = %v, want %v", got, want)
	}
}

// TestPCCWideGate covers one And gate of fan-in 50, which binarization
// turns into a balanced tree the engine evaluates at small width.
func TestPCCWideGate(t *testing.T) {
	c := circuit.New()
	ins := make([]circuit.Gate, 50)
	for i := range ins {
		ins[i] = c.Var(logic.Event(fmt.Sprintf("e%02d", i)))
	}
	g := c.And(ins...)
	if n := len(c.Inputs(g)); n != 50 {
		t.Fatalf("the gate has fan-in %d, want 50", n)
	}
	p := logic.Prob{}
	for _, e := range c.Events() {
		p[e] = 0.9
	}
	pl := rootPlan(t, c, g)
	got, err := pl.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := math.Pow(0.9, 50); math.Abs(got-want) > 1e-12 {
		t.Errorf("P = %v, want %v", got, want)
	}
	if possible, certain, err := pl.PossibleCertain(p); err != nil || !possible || certain {
		t.Errorf("PossibleCertain = %v, %v, %v; want true, false", possible, certain, err)
	}
}

// randomPCC builds a small pcc-instance over R/S/T whose facts are annotated
// by gates of one circuit over four events: constants, negations, n-ary
// And and Or gates, and gates shared between facts and between gates.
func randomPCC(r *rand.Rand, nFacts int) *pdb.PCC {
	pcc := pdb.NewPCC()
	c := pcc.Circ
	gates := []circuit.Gate{c.Const(true), c.Const(false)}
	for _, e := range []logic.Event{"u", "v", "w", "x"} {
		gates = append(gates, c.Var(e))
	}
	for i := 0; i < 2+r.Intn(8); i++ {
		ins := make([]circuit.Gate, 1+r.Intn(4))
		for j := range ins {
			ins[j] = gates[r.Intn(len(gates))]
		}
		switch r.Intn(3) {
		case 0:
			gates = append(gates, c.Not(ins[0]))
		case 1:
			gates = append(gates, c.And(ins...))
		default:
			gates = append(gates, c.Or(ins...))
		}
	}
	names := []string{"a", "b", "c"}
	for i := 0; i < nFacts; i++ {
		g := gates[r.Intn(len(gates))]
		switch r.Intn(3) {
		case 0:
			pcc.Add(rel.NewFact("R", names[r.Intn(3)]), g)
		case 1:
			pcc.Add(rel.NewFact("S", names[r.Intn(3)], names[r.Intn(3)]), g)
		default:
			pcc.Add(rel.NewFact("T", names[r.Intn(3)]), g)
		}
	}
	return pcc
}

// pccWeights draws an event probability map over the pcc's events, with
// probabilities 0 and 1 as well as ones in between.
func pccWeights(r *rand.Rand) logic.Prob {
	weights := []float64{0, 1, 0.5, 0.25, 1e-9}
	p := logic.Prob{}
	for _, e := range []logic.Event{"u", "v", "w", "x"} {
		if r.Intn(2) == 0 {
			p[e] = weights[r.Intn(len(weights))]
		} else {
			p[e] = r.Float64()
		}
	}
	return p
}

// TestPropertyPCCMatchesEnumeration checks pcc plans against enumeration
// on random pcc-instances: Probability and every lane of ProbabilityBatch,
// a Materialized view, PossibleCertain over the valuations the
// probabilities allow, and the emitted lineage's d-DNNF probability.
func TestPropertyPCCMatchesEnumeration(t *testing.T) {
	queries := []rel.CQ{
		rel.HardQuery(),
		rel.NewCQ(rel.NewAtom("S", rel.V("x"), rel.V("y")), rel.NewAtom("T", rel.V("y"))),
		rel.NewCQ(rel.NewAtom("R", rel.V("x")), rel.NewAtom("S", rel.V("x"), rel.V("x"))),
	}
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 320; trial++ {
		pcc := randomPCC(r, 1+r.Intn(7))
		q := queries[trial%len(queries)]
		pl, err := PreparePCC(pcc, q, Options{EmitLineage: true})
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([]logic.Prob, 1+r.Intn(4))
		for l := range lanes {
			lanes[l] = pccWeights(r)
		}
		batch, err := pl.ProbabilityBatch(lanes)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for l, p := range lanes {
			pcc.P = p
			want := pcc.QueryProbabilityEnumeration(q)
			if math.Abs(batch[l]-want) > 1e-12 {
				t.Fatalf("trial %d lane %d: batch %v, enumeration %v", trial, l, batch[l], want)
			}
			res, err := pl.Result(p)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if math.Abs(res.Probability-want) > 1e-12 {
				t.Fatalf("trial %d lane %d: Probability %v, enumeration %v; p %v on\n%s", trial, l, res.Probability, want, p, pcc.Inst)
			}
			if got := res.Lineage.DDNNFProbability(res.Root, p); math.Abs(got-res.Probability) > 1e-12 {
				t.Fatalf("trial %d lane %d: lineage %v, Probability %v", trial, l, got, res.Probability)
			}
			m, err := pl.Materialize(p)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if got := m.Probability(); math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d lane %d: materialized %v, enumeration %v", trial, l, got, want)
			}
			wantPossible, wantCertain := false, true
			logic.EnumerateValuations(pcc.Circ.Events(), func(v logic.Valuation) {
				for e, val := range v {
					if pe := p.P(e); val && pe == 0 || !val && pe == 1 {
						return // a valuation of probability 0
					}
				}
				holds := q.Holds(pcc.World(v))
				wantPossible = wantPossible || holds
				wantCertain = wantCertain && holds
			})
			possible, certain, err := pl.PossibleCertain(p)
			if err != nil {
				t.Fatal(err)
			}
			if possible != wantPossible || certain != wantCertain {
				t.Fatalf("trial %d lane %d: possible %v certain %v, enumeration %v %v; p %v on\n%s",
					trial, l, possible, certain, wantPossible, wantCertain, p, pcc.Inst)
			}
		}
	}
}

// TestPreparePCCMatchesTIDAndPC runs the TID and pc-instance random
// families through their pcc translations: PreparePCC must agree with
// PrepareTID and PrepareCQ.
func TestPreparePCCMatchesTIDAndPC(t *testing.T) {
	queries := []rel.CQ{
		rel.HardQuery(),
		rel.NewCQ(rel.NewAtom("S", rel.V("x"), rel.V("y")), rel.NewAtom("S", rel.V("y"), rel.V("z"))),
		rel.NewCQ(rel.NewAtom("S", rel.C("a"), rel.V("y")), rel.NewAtom("T", rel.V("y"))),
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 150; trial++ {
		q := queries[trial%len(queries)]
		tid := randomTID(r, 1+r.Intn(8))
		tpl, p, err := PrepareTID(tid, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tpl.Probability(p)
		pl, err := PreparePCC(pdb.FromTID(tid), q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := pl.Probability(p); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: TID %v, pcc %v on\n%s", trial, want, got, tid.Inst)
		}

		c, cp := randomCorrelatedPC(r, 1+r.Intn(7))
		cpl, err := PrepareCQ(c, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, _ = cpl.Probability(cp)
		pl, err = PreparePCC(pdb.FromPC(c, cp), q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := pl.Probability(cp); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: pc %v, pcc %v on\n%s", trial, want, got, c.Inst)
		}
	}
}

// TestPreparePCCWidthIsJointWidth checks that PreparePCC decomposes the
// binarized instance's Theorem 2 joint graph and nothing larger.
func TestPreparePCCWidthIsJointWidth(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		pcc := randomPCC(r, 1+r.Intn(7))
		for _, h := range []treedec.Heuristic{treedec.MinDegree, treedec.MinFill} {
			pl, err := PreparePCC(pcc, rel.HardQuery(), Options{Heuristic: h})
			if err != nil {
				t.Fatal(err)
			}
			g, _, _ := binarizePCC(pcc).JointGraph()
			if want := treedec.Decompose(g, h).Width(); pl.Width() != want {
				t.Fatalf("trial %d: plan width %d, joint graph width %d", trial, pl.Width(), want)
			}
		}
	}
}
