// Package cond implements conditioning of uncertain data (Section 4):
// revising a pc-instance to force the outcome of probabilistic events or
// the presence of facts after new observations, and choosing which question
// to ask next (e.g. to a crowd) to reduce uncertainty fastest.
//
// Conditioning on an event valuation is cheap and stays inside the
// pc-instance formalism (substitute and renormalize). Conditioning on a
// fact observation is harder — the paper notes that forcing an arbitrary
// annotation is not expressible as a pc-instance — so it is represented
// intensionally by a Conditioned value carrying a global constraint
// formula; probabilities are posteriors P(q ∧ constraint)/P(constraint),
// computed either by enumeration or tractably through internal/core by
// materializing the constraint as an observation fact.
package cond

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
)

// ErrZeroEvidence is returned by every conditioning path — enumeration,
// prepared posterior, batched sweeps, question ranking — when the evidence
// being conditioned on has probability zero: the posterior
// P(q ∧ obs)/P(obs) is undefined. Callers distinguish it with errors.Is;
// batched paths surface it per lane inside a core.LaneErrors so the other
// lanes of a sweep keep their values.
var ErrZeroEvidence = errors.New("cond: conditioning on zero-probability evidence")

// ConditionOnEvent returns the pc-instance conditioned on event e having
// the given value: e is substituted in every annotation and removed from the
// probability map. Facts whose annotation becomes false are dropped; facts
// whose annotation becomes true become certain.
func ConditionOnEvent(c *pdb.CInstance, p logic.Prob, e logic.Event, value bool) (*pdb.CInstance, logic.Prob) {
	out := pdb.NewCInstance()
	for i := 0; i < c.NumFacts(); i++ {
		ann := logic.Restrict(c.Ann[i], e, value)
		if v, isConst := logic.IsConst(ann); isConst && !v {
			continue
		}
		out.Add(c.Inst.Fact(i), ann)
	}
	np := logic.Prob{}
	for ev, pr := range p {
		if ev != e {
			np[ev] = pr
		}
	}
	return out, np
}

// Conditioned is a pc-instance together with a global observation
// constraint: its possible worlds are those of the pc-instance whose
// valuation satisfies the constraint, re-weighted by the posterior.
type Conditioned struct {
	C          *pdb.CInstance
	P          logic.Prob
	Constraint logic.Formula
}

// NewConditioned wraps an unconditioned pc-instance.
func NewConditioned(c *pdb.CInstance, p logic.Prob) *Conditioned {
	return &Conditioned{C: c, P: p, Constraint: logic.True}
}

// ObserveFact returns a new Conditioned with the additional observation
// that fact f is present (or absent): its annotation (or negation) joins
// the constraint. The fact must be a candidate fact of the instance.
func (cd *Conditioned) ObserveFact(f rel.Fact, present bool) (*Conditioned, error) {
	i := cd.C.Inst.IndexOf(f)
	if i < 0 {
		return nil, fmt.Errorf("cond: fact %s is not a candidate fact", f)
	}
	obs := cd.C.Ann[i]
	if !present {
		obs = logic.Not(obs)
	}
	return &Conditioned{C: cd.C, P: cd.P, Constraint: logic.And(cd.Constraint, obs)}, nil
}

// ObserveEvent returns a new Conditioned with event e forced to value.
// Unlike ConditionOnEvent it keeps the instance intact and extends the
// constraint, so it composes with fact observations.
func (cd *Conditioned) ObserveEvent(e logic.Event, value bool) *Conditioned {
	lit := logic.Formula(logic.Var(e))
	if !value {
		lit = logic.Not(lit)
	}
	return &Conditioned{C: cd.C, P: cd.P, Constraint: logic.And(cd.Constraint, lit)}
}

// ConstraintProbability returns P(constraint): the normalizing mass.
func (cd *Conditioned) ConstraintProbability() float64 {
	return logic.Probability(cd.Constraint, cd.P)
}

// ProbabilityEnumeration computes the posterior P(q | constraint) by full
// enumeration (baseline).
func (cd *Conditioned) ProbabilityEnumeration(q rel.CQ) (float64, error) {
	events := logic.SortEvents(append(cd.C.Events(), logic.Vars(cd.Constraint)...))
	events = dedupEvents(events)
	num, den := 0.0, 0.0
	logic.EnumerateValuations(events, func(v logic.Valuation) {
		if !cd.Constraint.Eval(v) {
			return
		}
		pv := cd.P.ProbOfValuation(events, v)
		den += pv
		if q.Holds(cd.C.World(v)) {
			num += pv
		}
	})
	if den == 0 {
		return 0, ErrZeroEvidence
	}
	return num / den, nil
}

// PosteriorPlan is a compiled posterior query: the numerator and
// denominator plans of P(q | constraint) = P(q ∧ obs) / P(obs), prepared
// once and evaluable under any event probability map. Like core.Plan it is
// immutable, so concurrent Probability and ProbabilityBatch calls are safe.
type PosteriorPlan struct {
	num *core.Plan
	den *core.Plan
}

// PreparePosterior compiles the posterior P(q | constraint) through the
// tractable engine of internal/core: the constraint is materialized as an
// observation fact obs(w) on a fresh element, so that
// P(q | φ) = P(q ∧ obs) / P(obs), both evaluated by the Theorem 2
// algorithm. The observation fact's annotation mentions all constraint
// events, so conditioning on observations that span the whole instance can
// raise the joint width — the structural price of conditioning the paper
// asks about.
func (cd *Conditioned) PreparePosterior(q rel.CQ, opts core.Options) (*PosteriorPlan, error) {
	withObs := pdb.NewCInstance()
	for i := 0; i < cd.C.NumFacts(); i++ {
		withObs.Add(cd.C.Inst.Fact(i), cd.C.Ann[i])
	}
	withObs.AddFact(cd.Constraint, "obs__", "w")
	obsAtom := rel.NewAtom("obs__", rel.C("w"))
	den, err := core.PrepareCQ(withObs, rel.NewCQ(obsAtom), opts)
	if err != nil {
		return nil, err
	}
	qAndObs := rel.NewCQ(append(append([]rel.Atom{}, q.Atoms...), obsAtom)...)
	num, err := core.PrepareCQ(withObs, qAndObs, opts)
	if err != nil {
		return nil, err
	}
	return &PosteriorPlan{num: num, den: den}, nil
}

// Probability evaluates the posterior under the event probabilities p.
func (pp *PosteriorPlan) Probability(p logic.Prob) (float64, error) {
	den, err := pp.den.Probability(p)
	if err != nil {
		return 0, err
	}
	if den == 0 {
		return 0, ErrZeroEvidence
	}
	num, err := pp.num.Probability(p)
	if err != nil {
		return 0, err
	}
	return num / den, nil
}

// ProbabilityBatch evaluates the posterior under every probability map of ps
// in one pass per plan: the numerator and denominator dynamic programs each
// run once, carrying one weight lane per assignment (see
// core.(*Plan).ProbabilityBatch). This is the fast path for posterior
// sweeps — ranking observations across many parameter settings, or
// sensitivity analysis on a conditioned instance.
//
// Lanes fail independently, mirroring core.(*Plan).ProbabilityBatch: a lane
// whose probability map is invalid comes back NaN under a core.LaneErrors
// (the union of the numerator's and denominator's lane failures) while the
// other lanes of the sweep keep their values. A lane whose parameters give
// the observation zero probability has an undefined posterior: its value is
// 0 (never NaN, so downstream numeric code is not poisoned) and its lane
// error is ErrZeroEvidence — the same typed error the serial Probability
// call returns.
func (pp *PosteriorPlan) ProbabilityBatch(ps []logic.Prob) ([]float64, error) {
	dens, err := pp.den.ProbabilityBatch(ps)
	denErrs, ok := err.(core.LaneErrors)
	if err != nil && !ok {
		return nil, err
	}
	nums, err := pp.num.ProbabilityBatch(ps)
	numErrs, ok := err.(core.LaneErrors)
	if err != nil && !ok {
		return nil, err
	}
	out := make([]float64, len(ps))
	var lerrs []error
	for i, den := range dens {
		var laneErr error
		if denErrs != nil && denErrs[i] != nil {
			laneErr = denErrs[i]
		} else if numErrs != nil && numErrs[i] != nil {
			laneErr = numErrs[i]
		}
		if laneErr != nil {
			if lerrs == nil {
				lerrs = make([]error, len(ps))
			}
			lerrs[i] = laneErr
			out[i] = math.NaN()
			continue
		}
		if den == 0 {
			if lerrs == nil {
				lerrs = make([]error, len(ps))
			}
			lerrs[i] = ErrZeroEvidence
			out[i] = 0
			continue
		}
		out[i] = nums[i] / den
	}
	if lerrs != nil {
		return out, core.LaneErrors(lerrs)
	}
	return out, nil
}

// Probability computes the posterior P(q | constraint) through the
// tractable engine: the one-shot form of PreparePosterior. Callers that ask
// repeatedly (greedy question ranking, crowd loops) should prepare once and
// evaluate per request.
func (cd *Conditioned) Probability(q rel.CQ, opts core.Options) (float64, error) {
	pp, err := cd.PreparePosterior(q, opts)
	if err != nil {
		return 0, err
	}
	return pp.Probability(cd.P)
}

func dedupEvents(events []logic.Event) []logic.Event {
	out := events[:0]
	var prev logic.Event
	for i, e := range events {
		if i == 0 || e != prev {
			out = append(out, e)
		}
		prev = e
	}
	return out
}

// Question is a candidate crowd question: the truth value of one event.
type Question struct {
	Event logic.Event
	// Gain is the expected reduction in the entropy of the query answer if
	// the question is asked (mutual information between answer and event).
	Gain float64
}

// binaryEntropy returns H(p) in bits.
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// RankQuestions scores every event by the expected entropy reduction of the
// query answer and returns the candidates sorted by decreasing gain. This
// is the greedy value-of-information policy for choosing what to ask the
// crowd next.
func (cd *Conditioned) RankQuestions(q rel.CQ) ([]Question, error) {
	base, err := cd.ProbabilityEnumeration(q)
	if err != nil {
		return nil, err
	}
	h0 := binaryEntropy(base)
	var out []Question
	for _, e := range cd.C.Events() {
		// P(e | constraint).
		pe := logic.Probability(logic.And(cd.Constraint, logic.Var(e)), cd.P)
		pc := cd.ConstraintProbability()
		if pc == 0 {
			return nil, ErrZeroEvidence
		}
		peCond := pe / pc
		gain := h0
		if peCond > 0 {
			pq, err := cd.ObserveEvent(e, true).ProbabilityEnumeration(q)
			if err != nil {
				return nil, err
			}
			gain -= peCond * binaryEntropy(pq)
		}
		if peCond < 1 {
			pq, err := cd.ObserveEvent(e, false).ProbabilityEnumeration(q)
			if err != nil {
				return nil, err
			}
			gain -= (1 - peCond) * binaryEntropy(pq)
		}
		out = append(out, Question{Event: e, Gain: gain})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gain != out[j].Gain {
			return out[i].Gain > out[j].Gain
		}
		return out[i].Event < out[j].Event
	})
	return out, nil
}

// Oracle answers questions from a hidden ground-truth valuation — the
// simulated crowd worker.
type Oracle struct {
	Truth logic.Valuation
}

// Answer returns the truth value of e.
func (o *Oracle) Answer(e logic.Event) bool { return o.Truth.Get(e) }

// ResolveResult reports one step of the interactive resolution loop.
type ResolveResult struct {
	Questions []logic.Event // events asked, in order
	Posterior float64       // final P(q | answers)
}

// ResolveGreedy repeatedly asks the highest-gain question, integrates the
// oracle's answer by conditioning, and stops when the query answer is
// certain (posterior 0 or 1) or maxQuestions is reached. It returns the
// questions asked and the final posterior — the iterative crowd scenario of
// Section 4.
func (cd *Conditioned) ResolveGreedy(q rel.CQ, oracle *Oracle, maxQuestions int) (*ResolveResult, error) {
	res := &ResolveResult{}
	cur := cd
	for len(res.Questions) < maxQuestions {
		p, err := cur.ProbabilityEnumeration(q)
		if err != nil {
			return nil, err
		}
		res.Posterior = p
		if p < 1e-12 || p > 1-1e-12 {
			return res, nil
		}
		ranked, err := cur.RankQuestions(q)
		if err != nil {
			return nil, err
		}
		if len(ranked) == 0 || ranked[0].Gain <= 1e-12 {
			return res, nil
		}
		e := ranked[0].Event
		cur = cur.ObserveEvent(e, oracle.Answer(e))
		res.Questions = append(res.Questions, e)
	}
	p, err := cur.ProbabilityEnumeration(q)
	if err != nil {
		return nil, err
	}
	res.Posterior = p
	return res, nil
}
