// Package pdb implements the uncertain relational formalisms of the paper:
//
//   - TID (tuple-independent) instances: every fact is present independently
//     with a given probability [Lakshmanan et al.].
//   - c-instances: facts carry propositional annotations over Boolean events
//     [Imielinski–Lipski]; each event valuation selects a possible world.
//   - pc-instances: c-instances plus independent event probabilities
//     [Green–Tannen, MayBMS].
//   - pcc-instances: facts annotated by gates of a shared Boolean circuit
//     (Section 2.2); bounded treewidth of the joint instance+circuit graph
//     is the tractability condition of Theorem 2.
//
// All formalisms come with exhaustive possible-worlds semantics (worlds,
// possibility, certainty, probability by enumeration) that serve as the
// exponential baselines and as test oracles for internal/core.
package pdb

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// TID is a tuple-independent probabilistic instance.
type TID struct {
	Inst  *rel.Instance
	Probs []float64 // Probs[i] is the marginal probability of fact i
}

// NewTID returns an empty TID instance.
func NewTID() *TID {
	return &TID{Inst: rel.NewInstance()}
}

// ValidateProb returns an error when p is not a probability: outside [0,1]
// or NaN. Every ingestion path validates through it, so bad weights are
// rejected at the door instead of flowing into the dynamic programs (where a
// NaN silently poisons every downstream sum).
func ValidateProb(p float64) error {
	if !(p >= 0 && p <= 1) { // the negated form also catches NaN
		return fmt.Errorf("pdb: probability %v outside [0,1]", p)
	}
	return nil
}

// Add inserts a fact with the given probability and returns its index.
// Re-adding an existing fact overwrites its probability. Add panics on an
// invalid probability (NaN included); use TryAdd where bad input is expected
// and should surface as an error.
func (t *TID) Add(f rel.Fact, p float64) int {
	i, err := t.TryAdd(f, p)
	if err != nil {
		panic(err.Error())
	}
	return i
}

// TryAdd inserts a fact with the given probability and returns its index,
// rejecting invalid probabilities (outside [0,1] or NaN) with an error. The
// ingestion path for untrusted input such as CLI instance files.
func (t *TID) TryAdd(f rel.Fact, p float64) (int, error) {
	if err := ValidateProb(p); err != nil {
		return -1, fmt.Errorf("%w for fact %s", err, f)
	}
	i := t.Inst.Add(f)
	if i == len(t.Probs) {
		t.Probs = append(t.Probs, p)
	} else {
		t.Probs[i] = p
	}
	return i, nil
}

// AddFact is a convenience wrapper.
func (t *TID) AddFact(p float64, relName string, args ...string) int {
	return t.Add(rel.NewFact(relName, args...), p)
}

// TryAddFact is the validating convenience wrapper.
func (t *TID) TryAddFact(p float64, relName string, args ...string) (int, error) {
	return t.TryAdd(rel.NewFact(relName, args...), p)
}

// Fact returns the i-th fact.
func (t *TID) Fact(i int) rel.Fact { return t.Inst.Fact(i) }

// Prob returns the marginal probability of fact i.
func (t *TID) Prob(i int) float64 { return t.Probs[i] }

// SetProb overwrites the marginal probability of fact i, validating the new
// value. The mutable-handle hook used by internal/incr's live stores.
func (t *TID) SetProb(i int, p float64) error {
	if i < 0 || i >= len(t.Probs) {
		return fmt.Errorf("pdb: no fact %d (have %d)", i, len(t.Probs))
	}
	if err := ValidateProb(p); err != nil {
		return fmt.Errorf("%w for fact %s", err, t.Inst.Fact(i))
	}
	t.Probs[i] = p
	return nil
}

// NumFacts returns the number of (possibly-present) facts.
func (t *TID) NumFacts() int { return t.Inst.NumFacts() }

// EventOf returns the canonical event name for fact i ("f<i>"), used when
// translating to c- or pcc-instances. It reads nothing of t, and it is the
// one definition of the name: core.FactEvent, the variable of fact i in a
// lineage circuit, calls it.
func (t *TID) EventOf(i int) logic.Event {
	return logic.Event("f" + strconv.Itoa(i))
}

// EventProb returns the event probability map of the canonical translation.
func (t *TID) EventProb() logic.Prob {
	p := logic.Prob{}
	for i, pr := range t.Probs {
		p[t.EventOf(i)] = pr
	}
	return p
}

// World materializes the world in which exactly the facts with present[i]
// true are kept.
func (t *TID) World(present []bool) *rel.Instance {
	return t.WorldInto(present, rel.NewInstance())
}

// WorldInto materializes the world selected by present into the given
// instance, which is Reset first and returned. Reusing one instance across
// draws is the allocation-free path for samplers.
func (t *TID) WorldInto(present []bool, into *rel.Instance) *rel.Instance {
	into.Reset()
	for i := 0; i < t.NumFacts(); i++ {
		if present[i] {
			into.AddFrom(t.Inst, i)
		}
	}
	return into
}

// EnumerateWorlds calls fn with every possible world and its probability.
// 2^n worlds: baseline only.
func (t *TID) EnumerateWorlds(fn func(world *rel.Instance, p float64)) {
	n := t.NumFacts()
	if n > 30 {
		panic(fmt.Sprintf("pdb: refusing to enumerate 2^%d worlds", n))
	}
	present := make([]bool, n)
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		p := 1.0
		for i := 0; i < n; i++ {
			present[i] = mask&(1<<uint(i)) != 0
			if present[i] {
				p *= t.Probs[i]
			} else {
				p *= 1 - t.Probs[i]
			}
		}
		if p > 0 {
			fn(t.World(present), p)
		}
	}
}

// QueryProbabilityEnumeration computes P(q) by enumerating every world.
func (t *TID) QueryProbabilityEnumeration(q rel.CQ) float64 {
	total := 0.0
	t.EnumerateWorlds(func(w *rel.Instance, p float64) {
		if q.Holds(w) {
			total += p
		}
	})
	return total
}

// Sample draws a world according to the fact probabilities.
func (t *TID) Sample(r *rand.Rand) *rel.Instance {
	present := make([]bool, t.NumFacts())
	for i := range present {
		present[i] = r.Float64() < t.Probs[i]
	}
	return t.World(present)
}

// Treewidth returns the treewidth bound of the underlying instance, the
// structural parameter of Theorem 1 (probabilities are forgotten).
func (t *TID) Treewidth() int { return t.Inst.Treewidth() }

// ToCInstance translates the TID into a c-instance with one fresh event per
// fact, plus the matching probability map (making it a pc-instance).
func (t *TID) ToCInstance() (*CInstance, logic.Prob) {
	n := t.NumFacts()
	c := &CInstance{Inst: rel.NewInstance(), Ann: make([]logic.Formula, 0, n)}
	p := make(logic.Prob, n)
	for i := 0; i < n; i++ {
		// Each event name is rendered once, for the annotation and the
		// probability map alike, and each fact keeps its cached key.
		e := t.EventOf(i)
		c.annotate(c.Inst.AddFrom(t.Inst, i), logic.Var(e))
		p[e] = t.Probs[i]
	}
	return c, p
}

// CInstance is a c-instance: facts annotated with propositional formulas
// over events. The possible world of a valuation v keeps the facts whose
// annotation holds under v.
type CInstance struct {
	Inst *rel.Instance
	Ann  []logic.Formula
}

// NewCInstance returns an empty c-instance.
func NewCInstance() *CInstance {
	return &CInstance{Inst: rel.NewInstance()}
}

// Add inserts a fact with annotation ann and returns its index. Re-adding an
// existing fact disjoins the annotations (set semantics for facts).
func (c *CInstance) Add(f rel.Fact, ann logic.Formula) int {
	return c.annotate(c.Inst.Add(f), ann)
}

// annotate records ann for the fact just added at index i: a new fact takes
// it, a re-added one disjoins it with its annotation.
func (c *CInstance) annotate(i int, ann logic.Formula) int {
	if i == len(c.Ann) {
		c.Ann = append(c.Ann, ann)
	} else {
		c.Ann[i] = logic.Or(c.Ann[i], ann)
	}
	return i
}

// AddFact is a convenience wrapper.
func (c *CInstance) AddFact(ann logic.Formula, relName string, args ...string) int {
	return c.Add(rel.NewFact(relName, args...), ann)
}

// NumFacts returns the number of annotated facts.
func (c *CInstance) NumFacts() int { return c.Inst.NumFacts() }

// Events returns the sorted events used by the annotations.
func (c *CInstance) Events() []logic.Event {
	return logic.Vars(c.Ann...)
}

// World returns the possible world selected by the valuation v.
func (c *CInstance) World(v logic.Valuation) *rel.Instance {
	return c.WorldInto(v, rel.NewInstance())
}

// WorldInto materializes the world selected by v into the given instance,
// which is Reset first and returned. The reuse path for samplers.
func (c *CInstance) WorldInto(v logic.Valuation, into *rel.Instance) *rel.Instance {
	into.Reset()
	for i := 0; i < c.NumFacts(); i++ {
		if c.Ann[i].Eval(v) {
			into.AddFrom(c.Inst, i)
		}
	}
	return into
}

// EnumerateWorlds calls fn with every event valuation and its world.
func (c *CInstance) EnumerateWorlds(fn func(v logic.Valuation, world *rel.Instance)) {
	logic.EnumerateValuations(c.Events(), func(v logic.Valuation) {
		fn(v, c.World(v))
	})
}

// PossibleEnumeration reports whether q holds in some possible world.
func (c *CInstance) PossibleEnumeration(q rel.CQ) bool {
	possible := false
	c.EnumerateWorlds(func(_ logic.Valuation, w *rel.Instance) {
		if !possible && q.Holds(w) {
			possible = true
		}
	})
	return possible
}

// CertainEnumeration reports whether q holds in every possible world.
func (c *CInstance) CertainEnumeration(q rel.CQ) bool {
	certain := true
	c.EnumerateWorlds(func(_ logic.Valuation, w *rel.Instance) {
		if certain && !q.Holds(w) {
			certain = false
		}
	})
	return certain
}

// QueryProbabilityEnumeration computes P(q) under the independent event
// probabilities p by enumerating all valuations.
func (c *CInstance) QueryProbabilityEnumeration(q rel.CQ, p logic.Prob) float64 {
	events := c.Events()
	total := 0.0
	logic.EnumerateValuations(events, func(v logic.Valuation) {
		if q.Holds(c.World(v)) {
			total += p.ProbOfValuation(events, v)
		}
	})
	return total
}

// LineageEnumeration computes the lineage of q on the c-instance by brute
// force: the disjunction, over all matching fact sets, of the conjunction of
// the fact annotations. Exponential in general; a correctness oracle.
func (c *CInstance) LineageEnumeration(q rel.CQ) logic.Formula {
	sets := q.MatchingFactSets(c.Inst)
	var disjuncts []logic.Formula
	for _, set := range sets {
		conj := make([]logic.Formula, 0, len(set))
		for _, fi := range set {
			conj = append(conj, c.Ann[fi])
		}
		disjuncts = append(disjuncts, logic.And(conj...))
	}
	return logic.Or(disjuncts...)
}

// Sample draws a world by sampling each event independently under p.
func (c *CInstance) Sample(r *rand.Rand, p logic.Prob) *rel.Instance {
	v := logic.Valuation{}
	for _, e := range c.Events() {
		v[e] = r.Float64() < p.P(e)
	}
	return c.World(v)
}

// PCC is a pcc-instance (Section 2.2): facts annotated by gates of a shared
// Boolean circuit, with independent probabilities on the circuit's events.
// Correlations between facts are expressed by sharing gates or events.
// core.PreparePCC evaluates queries on it.
type PCC struct {
	Inst *rel.Instance
	Circ *circuit.Circuit
	Ann  []circuit.Gate
	P    logic.Prob
}

// NewPCC returns an empty pcc-instance.
func NewPCC() *PCC {
	return &PCC{Inst: rel.NewInstance(), Circ: circuit.New(), P: logic.Prob{}}
}

// Add inserts a fact annotated by gate g and returns its index. Re-adding an
// existing fact disjoins the annotations.
func (p *PCC) Add(f rel.Fact, g circuit.Gate) int {
	i := p.Inst.Add(f)
	if i == len(p.Ann) {
		p.Ann = append(p.Ann, g)
	} else {
		p.Ann[i] = p.Circ.Or(p.Ann[i], g)
	}
	return i
}

// NumFacts returns the number of annotated facts.
func (p *PCC) NumFacts() int { return p.Inst.NumFacts() }

// World returns the possible world selected by the valuation v.
func (p *PCC) World(v logic.Valuation) *rel.Instance {
	in := rel.NewInstance()
	for i := 0; i < p.NumFacts(); i++ {
		if p.Circ.Eval(p.Ann[i], v) {
			in.Add(p.Inst.Fact(i))
		}
	}
	return in
}

// QueryProbabilityEnumeration computes P(q) by enumerating valuations.
func (p *PCC) QueryProbabilityEnumeration(q rel.CQ) float64 {
	events := p.Circ.Events()
	total := 0.0
	logic.EnumerateValuations(events, func(v logic.Valuation) {
		if q.Holds(p.World(v)) {
			total += p.P.ProbOfValuation(events, v)
		}
	})
	return total
}

// FromTID translates a TID to a pcc-instance with one variable gate per
// fact.
func FromTID(t *TID) *PCC {
	p := NewPCC()
	for i := 0; i < t.NumFacts(); i++ {
		e := t.EventOf(i)
		p.Add(t.Inst.Fact(i), p.Circ.Var(e))
		p.P[e] = t.Probs[i]
	}
	return p
}

// FromPC translates a pc-instance (c-instance plus probabilities) to a
// pcc-instance by compiling every annotation formula into the shared
// circuit.
func FromPC(c *CInstance, prob logic.Prob) *PCC {
	p := NewPCC()
	for i := 0; i < c.NumFacts(); i++ {
		p.Add(c.Inst.Fact(i), p.Circ.FromFormula(c.Ann[i]))
	}
	for _, e := range c.Events() {
		p.P[e] = prob.P(e)
	}
	return p
}

// JointGraph builds the graph whose treewidth is the structural parameter of
// Theorem 2: vertices are the domain elements of the instance followed by
// the gates of the circuit; edges are the Gaifman edges, the moralized
// circuit edges, and a link between each fact's arguments and its annotation
// gate (the "respects the link between gates and facts" condition).
//
// The returned offset is the vertex id of gate 0.
func (p *PCC) JointGraph() (g *treedec.Graph, di *rel.DomainIndex, gateOffset int) {
	di = p.Inst.IndexDomain()
	nDom := len(di.Names)
	nGates := p.Circ.NumGates()
	g = treedec.NewGraph(nDom + nGates)
	// Circuit moral edges, shifted.
	moral := p.Circ.MoralGraph()
	for _, e := range moral.Edges() {
		g.AddEdge(nDom+e[0], nDom+e[1])
	}
	// Each fact's clique: its arguments (the Gaifman edges) and its
	// annotation gate.
	for i, scope := range p.Inst.FactScopes(di) {
		g.AddClique(append(scope, nDom+int(p.Ann[i])))
	}
	return g, di, nDom
}

// JointWidth returns a heuristic bound on the joint treewidth of Theorem 2.
func (p *PCC) JointWidth() int {
	g, _, _ := p.JointGraph()
	return treedec.Treewidth(g)
}
