package circuit

import "repro/internal/logic"

// DDNNFProbability evaluates the probability of root in a single bottom-up
// pass, assuming the circuit is deterministic (the inputs of every Or gate
// are satisfied by disjoint sets of valuations) and decomposable (the inputs
// of every And gate mention disjoint sets of events).
//
// The lineage circuits emitted by internal/core's determinized automaton run
// satisfy both properties by construction, which is what makes query
// probability linear-time on bounded-treewidth instances (Theorems 1 and 2).
// On circuits violating the properties the result is meaningless; use
// EnumerationProbability instead, or core.PreparePCC, which evaluates any
// circuit of bounded treewidth exactly.
func (c *Circuit) DDNNFProbability(root Gate, p logic.Prob) float64 {
	vals := make([]float64, len(c.nodes))
	for i, n := range c.nodes {
		switch n.kind {
		case KindConst:
			if n.value {
				vals[i] = 1
			}
		case KindVar:
			vals[i] = p.P(n.event)
		case KindNot:
			vals[i] = 1 - vals[n.inputs[0]]
		case KindAnd:
			v := 1.0
			for _, in := range n.inputs {
				v *= vals[in]
			}
			vals[i] = v
		case KindOr:
			v := 0.0
			for _, in := range n.inputs {
				v += vals[in]
			}
			vals[i] = v
		}
	}
	v := vals[root]
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}
