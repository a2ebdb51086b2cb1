package logic

import (
	"slices"
	"strings"
)

// Formula is a propositional formula over events. Formulas annotate the facts
// of c-instances: a fact is present in the world selected by a valuation v
// iff its annotation evaluates to true under v.
//
// Formulas are immutable; all operations return new formulas.
type Formula interface {
	// Eval returns the truth value of the formula under v.
	Eval(v Valuation) bool
	// appendVars appends every occurrence of an event in the formula to dst.
	appendVars(dst []Event) []Event
	// write renders the formula into sb; prec is the precedence of the
	// enclosing operator, used to decide parenthesization.
	write(sb *strings.Builder, prec int)
}

// Operator precedences for printing (higher binds tighter).
const (
	precOr  = 1
	precAnd = 2
	precNot = 3
)

type constFormula bool

type varFormula Event

type notFormula struct{ f Formula }

type andFormula struct{ fs []Formula }

type orFormula struct{ fs []Formula }

// True is the formula that holds in every world.
var True Formula = constFormula(true)

// False is the formula that holds in no world.
var False Formula = constFormula(false)

// Var returns the formula consisting of the single event e.
func Var(e Event) Formula { return varFormula(e) }

// Not returns the negation of f, simplifying constants and double negation.
func Not(f Formula) Formula {
	switch g := f.(type) {
	case constFormula:
		return constFormula(!bool(g))
	case notFormula:
		return g.f
	}
	return notFormula{f}
}

// And returns the conjunction of fs, flattening nested conjunctions and
// simplifying constants. And() is True.
func And(fs ...Formula) Formula {
	var flat []Formula
	for _, f := range fs {
		switch g := f.(type) {
		case constFormula:
			if !bool(g) {
				return False
			}
		case andFormula:
			flat = append(flat, g.fs...)
		default:
			flat = append(flat, f)
		}
	}
	switch len(flat) {
	case 0:
		return True
	case 1:
		return flat[0]
	}
	return andFormula{flat}
}

// Or returns the disjunction of fs, flattening nested disjunctions and
// simplifying constants. Or() is False.
func Or(fs ...Formula) Formula {
	var flat []Formula
	for _, f := range fs {
		switch g := f.(type) {
		case constFormula:
			if bool(g) {
				return True
			}
		case orFormula:
			flat = append(flat, g.fs...)
		default:
			flat = append(flat, f)
		}
	}
	switch len(flat) {
	case 0:
		return False
	case 1:
		return flat[0]
	}
	return orFormula{flat}
}

// Implies returns the formula ¬a ∨ b.
func Implies(a, b Formula) Formula { return Or(Not(a), b) }

// Xor returns the formula (a ∧ ¬b) ∨ (¬a ∧ b).
func Xor(a, b Formula) Formula { return Or(And(a, Not(b)), And(Not(a), b)) }

func (c constFormula) Eval(Valuation) bool { return bool(c) }
func (e varFormula) Eval(v Valuation) bool { return v.Get(Event(e)) }
func (n notFormula) Eval(v Valuation) bool { return !n.f.Eval(v) }

func (a andFormula) Eval(v Valuation) bool {
	for _, f := range a.fs {
		if !f.Eval(v) {
			return false
		}
	}
	return true
}

func (o orFormula) Eval(v Valuation) bool {
	for _, f := range o.fs {
		if f.Eval(v) {
			return true
		}
	}
	return false
}

func (constFormula) appendVars(dst []Event) []Event { return dst }
func (e varFormula) appendVars(dst []Event) []Event { return append(dst, Event(e)) }
func (n notFormula) appendVars(dst []Event) []Event { return n.f.appendVars(dst) }
func (a andFormula) appendVars(dst []Event) []Event {
	for _, f := range a.fs {
		dst = f.appendVars(dst)
	}
	return dst
}
func (o orFormula) appendVars(dst []Event) []Event {
	for _, f := range o.fs {
		dst = f.appendVars(dst)
	}
	return dst
}

// AppendVars appends the events occurring in f to dst, in occurrence order
// and with repeats, and returns the extended slice: the allocation-free form
// of Vars for callers that reuse one buffer across many formulas.
func AppendVars(dst []Event, f Formula) []Event { return f.appendVars(dst) }

// Vars returns the sorted list of events occurring in the formulas.
func Vars(fs ...Formula) []Event {
	var events []Event
	for _, f := range fs {
		events = f.appendVars(events)
	}
	slices.Sort(events)
	return slices.Clone(slices.Compact(events)) // exactly sized: callers keep it
}

func (c constFormula) write(sb *strings.Builder, _ int) {
	if bool(c) {
		sb.WriteString("true")
	} else {
		sb.WriteString("false")
	}
}

func (e varFormula) write(sb *strings.Builder, _ int) { sb.WriteString(string(e)) }

func (n notFormula) write(sb *strings.Builder, _ int) {
	sb.WriteString("!")
	n.f.write(sb, precNot)
}

func writeNary(sb *strings.Builder, fs []Formula, op string, myPrec, outerPrec int) {
	paren := myPrec < outerPrec
	if paren {
		sb.WriteString("(")
	}
	for i, f := range fs {
		if i > 0 {
			sb.WriteString(op)
		}
		f.write(sb, myPrec)
	}
	if paren {
		sb.WriteString(")")
	}
}

func (a andFormula) write(sb *strings.Builder, prec int) {
	writeNary(sb, a.fs, " & ", precAnd, prec)
}

func (o orFormula) write(sb *strings.Builder, prec int) {
	writeNary(sb, o.fs, " | ", precOr, prec)
}

// String renders f with & for conjunction, | for disjunction and ! for
// negation, parenthesizing only where precedence requires.
func String(f Formula) string {
	var sb strings.Builder
	f.write(&sb, 0)
	return sb.String()
}

// Restrict returns f with event e fixed to the value b, simplified.
func Restrict(f Formula, e Event, b bool) Formula {
	switch g := f.(type) {
	case constFormula:
		return g
	case varFormula:
		if Event(g) == e {
			return constFormula(b)
		}
		return g
	case notFormula:
		return Not(Restrict(g.f, e, b))
	case andFormula:
		parts := make([]Formula, 0, len(g.fs))
		for _, h := range g.fs {
			parts = append(parts, Restrict(h, e, b))
		}
		return And(parts...)
	case orFormula:
		parts := make([]Formula, 0, len(g.fs))
		for _, h := range g.fs {
			parts = append(parts, Restrict(h, e, b))
		}
		return Or(parts...)
	}
	panic("logic: unknown formula type")
}

// RestrictAll applies every assignment in v to f.
func RestrictAll(f Formula, v Valuation) Formula {
	events := make([]Event, 0, len(v))
	for e := range v {
		events = append(events, e)
	}
	SortEvents(events)
	for _, e := range events {
		f = Restrict(f, e, v[e])
	}
	return f
}

// IsConst reports whether f is a constant, and which one.
func IsConst(f Formula) (value, isConst bool) {
	c, ok := f.(constFormula)
	return bool(c), ok
}

// Probability computes the exact probability that f holds under the
// independent event distribution p, by Shannon expansion on the variables of
// f. This is exponential in the number of distinct events of f and serves as
// the exact baseline for tractable algorithms.
func Probability(f Formula, p Prob) float64 {
	vars := Vars(f)
	return shannonProb(f, vars, p)
}

func shannonProb(f Formula, vars []Event, p Prob) float64 {
	if value, isConst := IsConst(f); isConst {
		if value {
			return 1
		}
		return 0
	}
	// Expand on the first variable still present.
	e := vars[0]
	rest := vars[1:]
	pe := p.P(e)
	res := 0.0
	if pe > 0 {
		res += pe * shannonProb(Restrict(f, e, true), rest, p)
	}
	if pe < 1 {
		res += (1 - pe) * shannonProb(Restrict(f, e, false), rest, p)
	}
	return res
}

// CountModels returns the number of valuations of the formula's own variables
// satisfying f. Exponential in the variable count.
func CountModels(f Formula) uint64 {
	vars := Vars(f)
	if len(vars) > 62 {
		panic("logic: too many variables to count models")
	}
	var count uint64
	EnumerateValuations(vars, func(v Valuation) {
		if f.Eval(v) {
			count++
		}
	})
	return count
}

// Satisfiable reports whether some valuation makes f true (exponential).
func Satisfiable(f Formula) bool {
	vars := Vars(f)
	sat := false
	EnumerateValuations(vars, func(v Valuation) {
		if !sat && f.Eval(v) {
			sat = true
		}
	})
	return sat
}

// Tautology reports whether every valuation makes f true (exponential).
func Tautology(f Formula) bool { return !Satisfiable(Not(f)) }

// Equivalent reports whether f and g agree on every valuation of their
// combined variables (exponential).
func Equivalent(f, g Formula) bool {
	vars := Vars(f, g)
	eq := true
	EnumerateValuations(vars, func(v Valuation) {
		if eq && f.Eval(v) != g.Eval(v) {
			eq = false
		}
	})
	return eq
}

// Literal is an event with a polarity, the building block of event
// conjunctions on PrXML cie nodes and of DNF clauses.
type Literal struct {
	Event   Event
	Negated bool
}

// Formula returns the literal as a Formula.
func (l Literal) Formula() Formula {
	f := Var(l.Event)
	if l.Negated {
		return Not(f)
	}
	return f
}

// String renders the literal, e.g. "x" or "!x".
func (l Literal) String() string {
	if l.Negated {
		return "!" + string(l.Event)
	}
	return string(l.Event)
}

// Conjunction returns the conjunction of the literals, the annotation
// language of cie nodes ("conjunction of independent events").
func Conjunction(lits []Literal) Formula {
	parts := make([]Formula, len(lits))
	for i, l := range lits {
		parts[i] = l.Formula()
	}
	return And(parts...)
}
