package core

import (
	"slices"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
)

// PreparePCC compiles a plan for the Boolean conjunctive query q on the
// pcc-instance p (Theorem 2): facts annotated by gates of one shared
// circuit, tractable when the joint width of the instance and the circuit
// is bounded. Evaluate it under p.P, or under any other event probability
// map.
//
// The annotation circuit is first binarized (circuit.Binarize), so every
// gate shares a bag with its inputs at small width, and the binarized
// instance's pdb.PCC.JointGraph is compiled through the one Prepare body.
// Every gate is a bag bit. A variable gate is an event, forgotten with its
// weight; any other gate is forgotten with none, its two rows merged. Each
// gate's consistency rule, g = op(inputs), is homed like a fact and drops
// the rows that violate it, and a fact's annotation is its gate's bit. The
// events fix every gate, so the total mass stays 1 and the program stays
// deterministic: Probability, ProbabilityBatch, the d-DNNF lineage of
// Result and PossibleCertain all work on the plan unchanged.
//
// Options are honoured as in Prepare; a supplied decomposition is one of the
// binarized instance's joint graph.
func PreparePCC(p *pdb.PCC, q rel.CQ, opts Options) (*Plan, error) {
	cq, err := NewCQQuery(q)
	if err != nil {
		return nil, err
	}
	bp := binarizePCC(p)
	g, di, nDom := bp.JointGraph()
	j := jointGraph{g: g, nDom: nDom, eventIdx: map[logic.Event]int{}, gateVars: true}
	circ := bp.Circ
	for gate := 0; gate < circ.NumGates() && circ.KindOf(circuit.Gate(gate)) == circuit.KindVar; gate++ {
		e := circ.EventOf(circuit.Gate(gate))
		j.eventIdx[e] = len(j.events)
		j.events = append(j.events, e)
	}
	// Facts: the argument vertices plus the annotation gate, which lies above
	// every domain vertex, so the scope stays sorted.
	for fi, scope := range bp.Inst.FactScopes(di) {
		j.scopes = append(j.scopes, append(scope, nDom+int(bp.Ann[fi])))
		j.anns = append(j.anns, gateVar(bp.Ann[fi]))
	}
	// Consistency rules: the inputs, then the gate above them.
	for gate := len(j.events); gate < circ.NumGates(); gate++ {
		ins := circ.Inputs(circuit.Gate(gate))
		scope := make([]int, 0, len(ins)+1)
		for _, in := range ins {
			scope = append(scope, nDom+int(in))
		}
		slices.Sort(scope)
		scope = append(slices.Compact(scope), nDom+gate)
		j.scopes = append(j.scopes, scope)
		j.anns = append(j.anns, gateRule(circ, circuit.Gate(gate)))
	}
	return prepareJoint(bp.Inst, di, j, cq, opts)
}

// binarizePCC returns p over its binarized annotation circuit: the gates
// the annotations reach, n-ary And and Or gates as balanced binary trees,
// variable gates first.
func binarizePCC(p *pdb.PCC) *pdb.PCC {
	circ, ann := p.Circ.Binarize(p.Ann)
	return &pdb.PCC{Inst: p.Inst, Circ: circ, Ann: ann, P: p.P}
}

// gateVar is the formula variable carrying gate g's bit in a pcc plan.
func gateVar(g circuit.Gate) logic.Formula {
	return logic.Var(logic.Event(strconv.Itoa(int(g))))
}

// gateRule is the consistency rule of a non-variable gate: its bit equals
// its kind applied to its inputs' bits.
func gateRule(c *circuit.Circuit, g circuit.Gate) logic.Formula {
	ins := c.Inputs(g)
	fs := make([]logic.Formula, len(ins))
	for i, in := range ins {
		fs[i] = gateVar(in)
	}
	var op logic.Formula
	switch c.KindOf(g) {
	case circuit.KindConst:
		op = logic.False
		if c.ConstValue(g) {
			op = logic.True
		}
	case circuit.KindNot:
		op = logic.Not(fs[0])
	case circuit.KindAnd:
		op = logic.And(fs...)
	case circuit.KindOr:
		op = logic.Or(fs...)
	}
	return logic.Not(logic.Xor(gateVar(g), op))
}
