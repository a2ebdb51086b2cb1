package cond

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
)

// table1 builds the paper's Table 1 c-instance with P(pods), P(stoc).
func table1() (*pdb.CInstance, logic.Prob) {
	pods := logic.Var("pods")
	stoc := logic.Var("stoc")
	c := pdb.NewCInstance()
	c.AddFact(pods, "Trip", "CDG", "MEL")
	c.AddFact(logic.And(pods, logic.Not(stoc)), "Trip", "MEL", "CDG")
	c.AddFact(logic.And(pods, stoc), "Trip", "MEL", "PDX")
	c.AddFact(logic.And(logic.Not(pods), stoc), "Trip", "CDG", "PDX")
	c.AddFact(stoc, "Trip", "PDX", "CDG")
	return c, logic.Prob{"pods": 0.7, "stoc": 0.4}
}

func TestConditionOnEvent(t *testing.T) {
	c, p := table1()
	// Condition on pods = true: the CDG->MEL trip becomes certain, the
	// CDG->PDX trip (needs !pods) disappears.
	c2, p2 := ConditionOnEvent(c, p, "pods", true)
	if c2.NumFacts() != 4 {
		t.Errorf("facts after conditioning = %d, want 4", c2.NumFacts())
	}
	i := c2.Inst.IndexOf(rel.NewFact("Trip", "CDG", "MEL"))
	if i < 0 {
		t.Fatal("CDG->MEL missing")
	}
	if v, isConst := logic.IsConst(c2.Ann[i]); !isConst || !v {
		t.Errorf("CDG->MEL should be certain, ann = %s", logic.String(c2.Ann[i]))
	}
	if _, ok := p2["pods"]; ok {
		t.Error("pods should be dropped from the probability map")
	}
	// Probabilities agree with the posterior semantics.
	q := rel.NewCQ(rel.NewAtom("Trip", rel.C("MEL"), rel.V("x")))
	got := c2.QueryProbabilityEnumeration(q, p2)
	want, err := NewConditioned(c, p).ObserveEvent("pods", true).ProbabilityEnumeration(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("substitution %v vs constraint %v", got, want)
	}
}

func TestObserveFactPosterior(t *testing.T) {
	c, p := table1()
	cd := NewConditioned(c, p)
	// Observe that the MEL->PDX trip is booked: then pods ∧ stoc, so the
	// PDX->CDG return (ann stoc) is certain.
	cd2, err := cd.ObserveFact(rel.NewFact("Trip", "MEL", "PDX"), true)
	if err != nil {
		t.Fatal(err)
	}
	q := rel.NewCQ(rel.NewAtom("Trip", rel.C("PDX"), rel.C("CDG")))
	got, err := cd2.ProbabilityEnumeration(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("P(return | MEL->PDX) = %v, want 1", got)
	}
	// Prior is lower.
	prior, err := cd.ProbabilityEnumeration(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(prior-0.4) > 1e-12 {
		t.Errorf("prior = %v, want 0.4", prior)
	}
}

func TestObserveFactAbsent(t *testing.T) {
	c, p := table1()
	cd := NewConditioned(c, p)
	// Observe CDG->MEL NOT booked: pods is false, so P(MEL->CDG) = 0.
	cd2, err := cd.ObserveFact(rel.NewFact("Trip", "CDG", "MEL"), false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cd2.ProbabilityEnumeration(rel.NewCQ(rel.NewAtom("Trip", rel.C("MEL"), rel.C("CDG"))))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("P = %v, want 0", got)
	}
}

func TestObserveUnknownFactErrors(t *testing.T) {
	c, p := table1()
	if _, err := NewConditioned(c, p).ObserveFact(rel.NewFact("Trip", "X", "Y"), true); err == nil {
		t.Error("expected error")
	}
}

func TestZeroProbabilityObservation(t *testing.T) {
	c := pdb.NewCInstance()
	c.AddFact(logic.And(logic.Var("e"), logic.Not(logic.Var("e"))), "R", "a")
	cd := NewConditioned(c, logic.Prob{"e": 0.5})
	cd2, err := cd.ObserveFact(rel.NewFact("R", "a"), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cd2.ProbabilityEnumeration(rel.NewCQ(rel.NewAtom("R", rel.V("x")))); !errors.Is(err, ErrZeroEvidence) {
		t.Errorf("err = %v, want ErrZeroEvidence", err)
	}
}

// TestZeroEvidenceUnified: every conditioning path reports zero-probability
// evidence as the same typed ErrZeroEvidence — enumeration, the prepared
// posterior, and question ranking.
func TestZeroEvidenceUnified(t *testing.T) {
	c, p := table1()
	// Observing MEL->PDX requires pods ∧ stoc; zeroing pods kills it.
	cd, err := NewConditioned(c, p).ObserveFact(rel.NewFact("Trip", "MEL", "PDX"), true)
	if err != nil {
		t.Fatal(err)
	}
	zeroP := logic.Prob{"pods": 0, "stoc": 0.4}
	cdZero := &Conditioned{C: cd.C, P: zeroP, Constraint: cd.Constraint}
	q := rel.NewCQ(rel.NewAtom("Trip", rel.C("PDX"), rel.C("CDG")))

	if _, err := cdZero.ProbabilityEnumeration(q); !errors.Is(err, ErrZeroEvidence) {
		t.Errorf("enumeration err = %v, want ErrZeroEvidence", err)
	}
	pp, err := cd.PreparePosterior(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Probability(zeroP); !errors.Is(err, ErrZeroEvidence) {
		t.Errorf("posterior err = %v, want ErrZeroEvidence", err)
	}
	if _, err := cdZero.RankQuestions(q); !errors.Is(err, ErrZeroEvidence) {
		t.Errorf("ranked-gain err = %v, want ErrZeroEvidence", err)
	}
	if _, err := cdZero.Probability(q, core.Options{}); !errors.Is(err, ErrZeroEvidence) {
		t.Errorf("one-shot posterior err = %v, want ErrZeroEvidence", err)
	}
}

func TestTractablePosteriorMatchesEnumeration(t *testing.T) {
	c, p := table1()
	cd, err := NewConditioned(c, p).ObserveFact(rel.NewFact("Trip", "PDX", "CDG"), true)
	if err != nil {
		t.Fatal(err)
	}
	q := rel.NewCQ(rel.NewAtom("Trip", rel.V("x"), rel.C("PDX")))
	want, err := cd.ProbabilityEnumeration(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cd.Probability(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("engine %v, enumeration %v", got, want)
	}
}

// TestPosteriorPlanBatchSweep checks the batched posterior sweep: a
// PosteriorPlan evaluated under many probability maps at once must agree
// with per-map serial evaluation and with the enumeration oracle.
func TestPosteriorPlanBatchSweep(t *testing.T) {
	c, p := table1()
	cd, err := NewConditioned(c, p).ObserveFact(rel.NewFact("Trip", "PDX", "CDG"), true)
	if err != nil {
		t.Fatal(err)
	}
	q := rel.NewCQ(rel.NewAtom("Trip", rel.V("x"), rel.C("PDX")))
	pp, err := cd.PreparePosterior(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 64 lanes: a full kernel block through both underlying plans.
	var ps []logic.Prob
	for i := 0; i < 64; i++ {
		ps = append(ps, logic.Prob{"pods": float64(i+1) / 65, "stoc": 0.4})
	}
	got, err := pp.ProbabilityBatch(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i, pi := range ps {
		serial, err := pp.Probability(pi)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[i]-serial) > 1e-12 {
			t.Errorf("lane %d: batch %v, serial %v", i, got[i], serial)
		}
		want, err := (&Conditioned{C: cd.C, P: pi, Constraint: cd.Constraint}).ProbabilityEnumeration(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Errorf("lane %d: batch %v, enumeration %v", i, got[i], want)
		}
	}
}

// TestPosteriorPlanBatchZeroProbabilityLane: a lane that drives the
// observation to probability zero comes back 0 (NaN-free) with an
// ErrZeroEvidence lane error, without poisoning the other lanes of the
// sweep.
func TestPosteriorPlanBatchZeroProbabilityLane(t *testing.T) {
	c, p := table1()
	// Observing Trip(MEL,PDX) requires pods ∧ stoc: pods=0 zeroes it out.
	cd, err := NewConditioned(c, p).ObserveFact(rel.NewFact("Trip", "MEL", "PDX"), true)
	if err != nil {
		t.Fatal(err)
	}
	q := rel.NewCQ(rel.NewAtom("Trip", rel.C("PDX"), rel.C("CDG")))
	pp, err := cd.PreparePosterior(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pp.ProbabilityBatch([]logic.Prob{
		{"pods": 0.7, "stoc": 0.4},
		{"pods": 0, "stoc": 0.4}, // zero-probability observation
		{"pods": 0.2, "stoc": 0.9},
	})
	le, ok := err.(core.LaneErrors)
	if !ok {
		t.Fatalf("err = %v, want core.LaneErrors", err)
	}
	if !errors.Is(le[1], ErrZeroEvidence) || le[0] != nil || le[2] != nil {
		t.Fatalf("lane errors %v, want ErrZeroEvidence on lane 1 only", []error(le))
	}
	if math.IsNaN(got[1]) || got[1] != 0 {
		t.Errorf("degenerate lane = %v, want NaN-free 0", got[1])
	}
	for _, i := range []int{0, 2} {
		if math.IsNaN(got[i]) || math.Abs(got[i]-1) > 1e-9 {
			t.Errorf("lane %d = %v, want 1 (observation entails the return trip)", i, got[i])
		}
	}
}

func TestRankQuestionsPrefersDecisiveEvent(t *testing.T) {
	// Query depends only on event a; b is irrelevant noise.
	c := pdb.NewCInstance()
	c.AddFact(logic.Var("a"), "R", "x")
	c.AddFact(logic.Var("b"), "S", "y")
	cd := NewConditioned(c, logic.Prob{"a": 0.5, "b": 0.5})
	q := rel.NewCQ(rel.NewAtom("R", rel.V("v")))
	ranked, err := cd.RankQuestions(q)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Event != "a" {
		t.Errorf("best question = %v, want a", ranked[0])
	}
	if ranked[0].Gain < 0.99 { // resolves a fair coin: gain = 1 bit
		t.Errorf("gain = %v, want ~1", ranked[0].Gain)
	}
	// b gains nothing.
	for _, qu := range ranked {
		if qu.Event == "b" && qu.Gain > 1e-9 {
			t.Errorf("irrelevant event has gain %v", qu.Gain)
		}
	}
}

func TestResolveGreedyReachesCertainty(t *testing.T) {
	c, p := table1()
	cd := NewConditioned(c, p)
	q := rel.NewCQ(rel.NewAtom("Trip", rel.C("MEL"), rel.C("PDX")))
	oracle := &Oracle{Truth: logic.Valuation{"pods": true, "stoc": true}}
	res, err := cd.ResolveGreedy(q, oracle, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Posterior-1) > 1e-12 {
		t.Errorf("posterior = %v, want 1", res.Posterior)
	}
	if len(res.Questions) == 0 || len(res.Questions) > 2 {
		t.Errorf("asked %d questions, want 1-2", len(res.Questions))
	}
}

func TestResolveGreedyNegativeCase(t *testing.T) {
	c, p := table1()
	cd := NewConditioned(c, p)
	q := rel.NewCQ(rel.NewAtom("Trip", rel.C("MEL"), rel.C("PDX")))
	oracle := &Oracle{Truth: logic.Valuation{"pods": false, "stoc": true}}
	res, err := cd.ResolveGreedy(q, oracle, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior > 1e-12 {
		t.Errorf("posterior = %v, want 0", res.Posterior)
	}
}

// TestPosteriorPlanBatchLaneErrors: an invalid probability map fails only
// its own lane, surfacing as a core.LaneErrors with NaN in that slot.
func TestPosteriorPlanBatchLaneErrors(t *testing.T) {
	c, p := table1()
	cd, err := NewConditioned(c, p).ObserveFact(rel.NewFact("Trip", "MEL", "PDX"), true)
	if err != nil {
		t.Fatal(err)
	}
	q := rel.NewCQ(rel.NewAtom("Trip", rel.C("PDX"), rel.C("CDG")))
	pp, err := cd.PreparePosterior(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pp.ProbabilityBatch([]logic.Prob{
		{"pods": 0.7, "stoc": 0.4},
		{"pods": 1.5, "stoc": 0.4}, // invalid lane
	})
	le, ok := err.(core.LaneErrors)
	if !ok {
		t.Fatalf("error %v (%T), want core.LaneErrors", err, err)
	}
	if le[0] != nil || le[1] == nil {
		t.Fatalf("lane errors %v, want only lane 1", []error(le))
	}
	if !math.IsNaN(got[1]) {
		t.Errorf("invalid lane = %v, want NaN", got[1])
	}
	if math.IsNaN(got[0]) || math.Abs(got[0]-1) > 1e-9 {
		t.Errorf("healthy lane poisoned: %v", got[0])
	}
}
