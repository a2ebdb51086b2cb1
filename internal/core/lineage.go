package core

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// FactEvent is the canonical event name standing for the presence of fact
// fi in lineage circuits over fact variables.
func FactEvent(fi int) logic.Event {
	return logic.Event(fmt.Sprintf("f%d", fi))
}

// MonotoneLineage runs the nondeterministic bag automaton q over a nice
// tree decomposition of the instance's Gaifman graph and returns a monotone
// lineage circuit over the per-fact variables f0, f1, ...: the circuit is
// true under a valuation exactly when the query holds on the world
// containing the facts whose variable is true.
//
// For monotone queries this circuit is a provenance circuit: evaluating it
// in any absorptive commutative semiring (internal/provenance) yields the
// query's semiring provenance, the Section 2.2 connection. Possibility and
// certainty of the query on a TID follow in O(gates) by the monotone fast
// path of circuit.Possible and circuit.Certain.
//
// The circuit may contain redundant derivations (the automaton is not
// determinized), so its probability must be computed by enumeration or
// message passing, not by the d-DNNF pass; use EvaluatePC for tractable
// probabilities.
func MonotoneLineage(inst *rel.Instance, q Query, opts Options) (*circuit.Circuit, circuit.Gate, error) {
	di := inst.IndexDomain()
	g := inst.GaifmanGraph(di)
	d := opts.Joint
	if d == nil {
		d = treedec.Decompose(g, opts.Heuristic)
	} else if err := d.Validate(g); err != nil {
		return nil, 0, fmt.Errorf("core: supplied decomposition invalid: %w", err)
	}
	nice := treedec.MakeNice(d)
	colour := nice.Colour(len(di.Names))
	factsAt, err := homeFacts(inst, di, nice, colour, q)
	if err != nil {
		return nil, 0, err
	}

	c := circuit.New()
	tables := make([]map[string]circuit.Gate, nice.NumNodes())
	orInto := func(tab map[string]circuit.Gate, st string, g circuit.Gate) {
		if prev, ok := tab[st]; ok {
			tab[st] = c.Or(prev, g)
		} else {
			tab[st] = g
		}
	}
	for _, t := range nice.PostOrder() {
		nd := nice.Nodes[t]
		tab := map[string]circuit.Gate{}
		switch nd.Kind {
		case treedec.NiceLeaf:
			for _, st := range q.Start() {
				tab[st] = c.Const(true)
			}
		case treedec.NiceIntroduce, treedec.NiceForget:
			child := tables[nd.Children[0]]
			tables[nd.Children[0]] = nil
			for st, g := range child {
				var succs []string
				if nd.Kind == treedec.NiceIntroduce {
					succs = q.Introduce(st, colour[nd.Vertex])
				} else {
					succs = q.Forget(st, colour[nd.Vertex])
				}
				for _, s := range succs {
					orInto(tab, s, g)
				}
			}
		case treedec.NiceJoin:
			left := tables[nd.Children[0]]
			right := tables[nd.Children[1]]
			tables[nd.Children[0]] = nil
			tables[nd.Children[1]] = nil
			for sa, ga := range left {
				for sb, gb := range right {
					if m, ok := q.Join(sa, sb); ok {
						orInto(tab, m, c.And(ga, gb))
					}
				}
			}
		}
		for _, hf := range factsAt[t] {
			lit := c.Var(FactEvent(hf.fi))
			next := make(map[string]circuit.Gate, len(tab))
			for st, g := range tab {
				next[st] = g
			}
			for st, g := range tab {
				for _, s := range q.FactTransitions(st, hf.sig) {
					orInto(next, s, c.And(g, lit))
				}
			}
			tab = next
		}
		tables[t] = tab
	}

	var accept []circuit.Gate
	for st, g := range tables[nice.Root] {
		if q.Accept(st) {
			accept = append(accept, g)
		}
	}
	// Deterministic OR order for reproducible circuits.
	sortGates(accept)
	return c, c.Or(accept...), nil
}

func sortGates(gs []circuit.Gate) {
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && gs[j] < gs[j-1]; j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}
}

// CQLineage builds the monotone lineage circuit of a conjunctive query over
// the candidate facts of an instance.
func CQLineage(inst *rel.Instance, q rel.CQ, opts Options) (*circuit.Circuit, circuit.Gate, error) {
	cq, err := NewCQQuery(q)
	if err != nil {
		return nil, 0, err
	}
	return MonotoneLineage(inst, cq, opts)
}

// PossibleTID reports whether q holds in some possible world of the TID with
// positive probability, via the monotone lineage fast path: facts with
// probability 0 are fixed absent, facts with probability 1 present.
func PossibleTID(t *pdb.TID, q rel.CQ) (bool, error) {
	c, root, err := CQLineage(t.Inst, q, Options{})
	if err != nil {
		return false, err
	}
	v := logic.Valuation{}
	for i := 0; i < t.NumFacts(); i++ {
		v[FactEvent(i)] = t.Probs[i] > 0
	}
	return c.Eval(root, v), nil
}

// CertainTID reports whether q holds in every positive-probability world of
// the TID: by monotonicity it suffices to test the minimal world, which
// keeps exactly the probability-1 facts.
func CertainTID(t *pdb.TID, q rel.CQ) (bool, error) {
	c, root, err := CQLineage(t.Inst, q, Options{})
	if err != nil {
		return false, err
	}
	v := logic.Valuation{}
	for i := 0; i < t.NumFacts(); i++ {
		v[FactEvent(i)] = t.Probs[i] >= 1
	}
	return c.Eval(root, v), nil
}
