// Package circuit implements Boolean circuits over events.
//
// Circuits are the annotation language of pcc-instances (Section 2.2 of the
// paper) and the output language of lineage construction (internal/core):
// running the query automaton over a tree-decomposed uncertain instance
// yields a lineage circuit describing which possible worlds satisfy the
// query. Probability on a circuit has two exact forms here: a single
// bottom-up pass for the deterministic, decomposable circuits the engine
// emits (DDNNFProbability), and valuation enumeration as the exponential
// baseline and test oracle. A circuit of bounded treewidth is evaluated by
// the engine itself: core.PreparePCC runs it, with the facts it annotates,
// through the same row program as every other query (Theorem 2).
package circuit

import (
	"fmt"
	"strings"

	"repro/internal/logic"
	"repro/internal/treedec"
)

// Gate identifies a gate within a circuit. Gates are created in topological
// order: the inputs of a gate always have smaller identifiers.
type Gate int

// Kind classifies gates.
type Kind int

const (
	// KindConst is a 0-input constant gate.
	KindConst Kind = iota
	// KindVar is a 0-input gate whose value is that of an event.
	KindVar
	// KindNot is a 1-input negation gate.
	KindNot
	// KindAnd is an n-ary conjunction gate (0 inputs = true).
	KindAnd
	// KindOr is an n-ary disjunction gate (0 inputs = false).
	KindOr
)

func (k Kind) String() string {
	switch k {
	case KindConst:
		return "const"
	case KindVar:
		return "var"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	}
	return "unknown"
}

type node struct {
	kind   Kind
	value  bool        // for KindConst
	event  logic.Event // for KindVar
	inputs []Gate
}

// Circuit is a Boolean circuit. The zero value is an empty circuit ready for
// use. Gates are appended by the builder methods; each event has at most one
// variable gate (the builder deduplicates), which the probability algorithms
// rely on for independence bookkeeping.
type Circuit struct {
	nodes  []node
	varOf  map[logic.Event]Gate
	truthy Gate // cached constant gates, -1 until created
	falsy  Gate
	init   bool
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{varOf: make(map[logic.Event]Gate), truthy: -1, falsy: -1, init: true}
}

func (c *Circuit) ensureInit() {
	if !c.init {
		c.varOf = make(map[logic.Event]Gate)
		c.truthy, c.falsy = -1, -1
		c.init = true
	}
}

// NumGates returns the number of gates in the circuit.
func (c *Circuit) NumGates() int { return len(c.nodes) }

// KindOf returns the kind of g.
func (c *Circuit) KindOf(g Gate) Kind { return c.nodes[g].kind }

// Inputs returns the inputs of g (aliased; do not modify).
func (c *Circuit) Inputs(g Gate) []Gate { return c.nodes[g].inputs }

// EventOf returns the event of a variable gate.
func (c *Circuit) EventOf(g Gate) logic.Event {
	if c.nodes[g].kind != KindVar {
		panic("circuit: EventOf on non-var gate")
	}
	return c.nodes[g].event
}

// ConstValue returns the value of a constant gate.
func (c *Circuit) ConstValue(g Gate) bool {
	if c.nodes[g].kind != KindConst {
		panic("circuit: ConstValue on non-const gate")
	}
	return c.nodes[g].value
}

func (c *Circuit) add(n node) Gate {
	c.nodes = append(c.nodes, n)
	return Gate(len(c.nodes) - 1)
}

// Const returns the constant gate for b, creating it on first use.
func (c *Circuit) Const(b bool) Gate {
	c.ensureInit()
	if b {
		if c.truthy < 0 {
			c.truthy = c.add(node{kind: KindConst, value: true})
		}
		return c.truthy
	}
	if c.falsy < 0 {
		c.falsy = c.add(node{kind: KindConst, value: false})
	}
	return c.falsy
}

// Var returns the variable gate for event e, creating it on first use. All
// occurrences of the same event share one gate.
func (c *Circuit) Var(e logic.Event) Gate {
	c.ensureInit()
	if g, ok := c.varOf[e]; ok {
		return g
	}
	g := c.add(node{kind: KindVar, event: e})
	c.varOf[e] = g
	return g
}

// Not returns a gate computing the negation of g, folding constants and
// double negation.
func (c *Circuit) Not(g Gate) Gate {
	c.ensureInit()
	switch c.nodes[g].kind {
	case KindConst:
		return c.Const(!c.nodes[g].value)
	case KindNot:
		return c.nodes[g].inputs[0]
	}
	return c.add(node{kind: KindNot, inputs: []Gate{g}})
}

// And returns a gate computing the conjunction of gs, folding constants and
// collapsing the 0- and 1-input cases.
func (c *Circuit) And(gs ...Gate) Gate {
	c.ensureInit()
	inputs := make([]Gate, 0, len(gs))
	for _, g := range gs {
		if c.nodes[g].kind == KindConst {
			if !c.nodes[g].value {
				return c.Const(false)
			}
			continue
		}
		inputs = append(inputs, g)
	}
	switch len(inputs) {
	case 0:
		return c.Const(true)
	case 1:
		return inputs[0]
	}
	return c.add(node{kind: KindAnd, inputs: inputs})
}

// Or returns a gate computing the disjunction of gs, folding constants and
// collapsing the 0- and 1-input cases.
func (c *Circuit) Or(gs ...Gate) Gate {
	c.ensureInit()
	inputs := make([]Gate, 0, len(gs))
	for _, g := range gs {
		if c.nodes[g].kind == KindConst {
			if c.nodes[g].value {
				return c.Const(true)
			}
			continue
		}
		inputs = append(inputs, g)
	}
	switch len(inputs) {
	case 0:
		return c.Const(false)
	case 1:
		return inputs[0]
	}
	return c.add(node{kind: KindOr, inputs: inputs})
}

// Literal returns the gate for the event literal l.
func (c *Circuit) Literal(l logic.Literal) Gate {
	g := c.Var(l.Event)
	if l.Negated {
		return c.Not(g)
	}
	return g
}

// FromFormula builds a gate computing the propositional formula f.
func (c *Circuit) FromFormula(f logic.Formula) Gate {
	return logic.Visit(f, visitor{c}).(Gate)
}

type visitor struct{ c *Circuit }

func (v visitor) Const(b bool) interface{}      { return v.c.Const(b) }
func (v visitor) Var(e logic.Event) interface{} { return v.c.Var(e) }
func (v visitor) Not(sub interface{}) interface{} {
	return v.c.Not(sub.(Gate))
}
func (v visitor) And(subs []interface{}) interface{} {
	gs := make([]Gate, len(subs))
	for i, s := range subs {
		gs[i] = s.(Gate)
	}
	return v.c.And(gs...)
}
func (v visitor) Or(subs []interface{}) interface{} {
	gs := make([]Gate, len(subs))
	for i, s := range subs {
		gs[i] = s.(Gate)
	}
	return v.c.Or(gs...)
}

// Events returns the sorted events used by variable gates in the circuit.
func (c *Circuit) Events() []logic.Event {
	events := make([]logic.Event, 0, len(c.varOf))
	for e := range c.varOf {
		events = append(events, e)
	}
	return logic.SortEvents(events)
}

// Eval evaluates every gate under v and returns the value of root.
func (c *Circuit) Eval(root Gate, v logic.Valuation) bool {
	vals := make([]bool, len(c.nodes))
	for i, n := range c.nodes {
		switch n.kind {
		case KindConst:
			vals[i] = n.value
		case KindVar:
			vals[i] = v.Get(n.event)
		case KindNot:
			vals[i] = !vals[n.inputs[0]]
		case KindAnd:
			vals[i] = true
			for _, in := range n.inputs {
				if !vals[in] {
					vals[i] = false
					break
				}
			}
		case KindOr:
			vals[i] = false
			for _, in := range n.inputs {
				if vals[in] {
					vals[i] = true
					break
				}
			}
		}
	}
	return vals[root]
}

// EnumerationProbability computes P(root) by enumerating every valuation of
// the circuit's events. Exponential: this is the baseline arm of the
// experiments and the cross-check oracle of the tests.
func (c *Circuit) EnumerationProbability(root Gate, p logic.Prob) float64 {
	events := c.Events()
	total := 0.0
	logic.EnumerateValuations(events, func(v logic.Valuation) {
		if c.Eval(root, v) {
			total += p.ProbOfValuation(events, v)
		}
	})
	return total
}

// Monotone reports whether the circuit contains no negation gate (constants
// aside), so that the function of every gate is monotone in the events.
// Semiring provenance (internal/provenance) is defined on such circuits
// only.
func (c *Circuit) Monotone() bool {
	for _, n := range c.nodes {
		if n.kind == KindNot {
			return false
		}
	}
	return true
}

// Stats summarizes a circuit for reporting.
type Stats struct {
	Gates  int
	Vars   int
	Ands   int
	Ors    int
	Nots   int
	Consts int
	Wires  int
	MaxFan int
}

// Stat computes circuit statistics.
func (c *Circuit) Stat() Stats {
	var s Stats
	s.Gates = len(c.nodes)
	for _, n := range c.nodes {
		switch n.kind {
		case KindConst:
			s.Consts++
		case KindVar:
			s.Vars++
		case KindNot:
			s.Nots++
		case KindAnd:
			s.Ands++
		case KindOr:
			s.Ors++
		}
		s.Wires += len(n.inputs)
		if len(n.inputs) > s.MaxFan {
			s.MaxFan = len(n.inputs)
		}
	}
	return s
}

// String renders gate g as a nested expression (for debugging and tests;
// exponential on shared structure). The whole expression is written into a
// single strings.Builder, so rendering is linear in the output size rather
// than quadratic in it.
func (c *Circuit) String(g Gate) string {
	var sb strings.Builder
	c.writeGate(&sb, g)
	return sb.String()
}

func (c *Circuit) writeGate(sb *strings.Builder, g Gate) {
	n := c.nodes[g]
	switch n.kind {
	case KindConst:
		if n.value {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case KindVar:
		sb.WriteString(string(n.event))
	case KindNot:
		sb.WriteByte('!')
		c.writeGate(sb, n.inputs[0])
	case KindAnd, KindOr:
		op := " & "
		if n.kind == KindOr {
			op = " | "
		}
		sb.WriteByte('(')
		for i, in := range n.inputs {
			if i > 0 {
				sb.WriteString(op)
			}
			c.writeGate(sb, in)
		}
		sb.WriteByte(')')
	default:
		sb.WriteByte('?')
	}
}

// Validate checks internal invariants: topological input order and
// deduplicated variable gates.
func (c *Circuit) Validate() error {
	seenEvent := make(map[logic.Event]bool)
	for i, n := range c.nodes {
		for _, in := range n.inputs {
			if in < 0 || int(in) >= i {
				return fmt.Errorf("circuit: gate %d has non-topological input %d", i, in)
			}
		}
		if n.kind == KindVar {
			if seenEvent[n.event] {
				return fmt.Errorf("circuit: duplicate variable gate for event %q", n.event)
			}
			seenEvent[n.event] = true
		}
	}
	return nil
}

// MoralGraph returns the "moralized" gate graph of the circuit: one vertex
// per gate, with the scope of every gate ({gate} ∪ inputs) turned into a
// clique, so a tree decomposition of it has a bag holding every gate
// together with its inputs. pdb.PCC.JointGraph builds Theorem 2's joint
// graph from it.
func (c *Circuit) MoralGraph() *treedec.Graph {
	g := treedec.NewGraph(len(c.nodes))
	for i, n := range c.nodes {
		scope := make([]int, 0, len(n.inputs)+1)
		scope = append(scope, i)
		for _, in := range n.inputs {
			scope = append(scope, int(in))
		}
		g.AddClique(scope)
	}
	return g
}

// Binarize returns the part of c reachable from roots as a new circuit,
// with every And and Or gate of more than two inputs rewritten as a
// balanced binary tree of gates of its kind, together with the gates of
// roots in the copy. Every gate of the copy then shares a moral clique of
// at most three gates with its inputs. The variable gates come first, in
// gate order, so the copy's first k gates are its k variables; the other
// gates follow in topological order. Nothing is folded: each kept gate
// computes the function it computed in c.
func (c *Circuit) Binarize(roots []Gate) (*Circuit, []Gate) {
	live := make([]bool, len(c.nodes))
	for _, r := range roots {
		live[r] = true
	}
	for g := len(c.nodes) - 1; g >= 0; g-- {
		if live[g] {
			for _, in := range c.nodes[g].inputs {
				live[in] = true
			}
		}
	}
	out := New()
	to := make([]Gate, len(c.nodes))
	for g, n := range c.nodes {
		if live[g] && n.kind == KindVar {
			to[g] = out.Var(n.event)
		}
	}
	for g, n := range c.nodes {
		if !live[g] || n.kind == KindVar {
			continue
		}
		ins := make([]Gate, len(n.inputs))
		for i, in := range n.inputs {
			ins[i] = to[in]
		}
		if len(ins) > 2 {
			ins = []Gate{out.balanced(n.kind, ins[:len(ins)/2]), out.balanced(n.kind, ins[len(ins)/2:])}
		}
		to[g] = out.add(node{kind: n.kind, value: n.value, inputs: ins})
	}
	mapped := make([]Gate, len(roots))
	for i, r := range roots {
		mapped[i] = to[r]
	}
	return out, mapped
}

// balanced returns a balanced binary tree of gates of the given kind over
// ins, or ins' only gate.
func (c *Circuit) balanced(kind Kind, ins []Gate) Gate {
	if len(ins) == 1 {
		return ins[0]
	}
	mid := len(ins) / 2
	return c.add(node{kind: kind, inputs: []Gate{c.balanced(kind, ins[:mid]), c.balanced(kind, ins[mid:])}})
}
