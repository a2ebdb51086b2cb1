package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
)

func TestBuilderFolding(t *testing.T) {
	c := New()
	a := c.Var("a")
	if c.Var("a") != a {
		t.Error("Var must deduplicate")
	}
	if c.And(a, c.Const(true)) != a {
		t.Error("And with true must collapse")
	}
	if g := c.And(a, c.Const(false)); c.KindOf(g) != KindConst || c.ConstValue(g) {
		t.Error("And with false must be const false")
	}
	if c.Or(a, c.Const(false)) != a {
		t.Error("Or with false must collapse")
	}
	if g := c.Or(a, c.Const(true)); c.KindOf(g) != KindConst || !c.ConstValue(g) {
		t.Error("Or with true must be const true")
	}
	if c.Not(c.Not(a)) != a {
		t.Error("double negation must collapse")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEval(t *testing.T) {
	c := New()
	a, b, d := c.Var("a"), c.Var("b"), c.Var("d")
	root := c.Or(c.And(a, b), c.And(c.Not(a), d))
	cases := []struct {
		v    logic.Valuation
		want bool
	}{
		{logic.Valuation{"a": true, "b": true}, true},
		{logic.Valuation{"a": true, "b": false, "d": true}, false},
		{logic.Valuation{"a": false, "d": true}, true},
		{logic.Valuation{"a": false, "d": false}, false},
	}
	for _, tc := range cases {
		if got := c.Eval(root, tc.v); got != tc.want {
			t.Errorf("Eval(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestFromFormulaAgreesWithFormula(t *testing.T) {
	f := logic.Or(
		logic.And(logic.Var("x"), logic.Not(logic.Var("y"))),
		logic.And(logic.Var("y"), logic.Var("z")),
	)
	c := New()
	root := c.FromFormula(f)
	logic.EnumerateValuations(logic.Vars(f), func(v logic.Valuation) {
		if c.Eval(root, v) != f.Eval(v) {
			t.Errorf("circuit and formula disagree on %v", v)
		}
	})
}

func TestStats(t *testing.T) {
	c := New()
	a, b := c.Var("a"), c.Var("b")
	c.Or(c.And(a, b), c.Not(a))
	s := c.Stat()
	if s.Vars != 2 || s.Ands != 1 || s.Ors != 1 || s.Nots != 1 {
		t.Errorf("Stats = %+v", s)
	}
}

func TestEnumerationProbabilityMatchesFormula(t *testing.T) {
	f := logic.Or(logic.And(logic.Var("a"), logic.Var("b")), logic.Var("c"))
	p := logic.Prob{"a": 0.2, "b": 0.7, "c": 0.1}
	c := New()
	root := c.FromFormula(f)
	got := c.EnumerationProbability(root, p)
	want := logic.Probability(f, p)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("enum = %v, formula = %v", got, want)
	}
}

// TestBinarizeKeepsFunctions checks Binarize on random circuits with wide
// And and Or gates: every kept gate has at most two inputs, the variable
// gates come first, gates no root reaches are dropped, and each root
// computes its original function on every valuation.
func TestBinarizeKeepsFunctions(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		c := New()
		gates := []Gate{c.Const(r.Intn(2) == 0)}
		for i := 0; i < 2+r.Intn(4); i++ {
			gates = append(gates, c.Var(logic.Event(fmt.Sprintf("e%d", i))))
		}
		for i := 0; i < 3+r.Intn(10); i++ {
			ins := make([]Gate, 1+r.Intn(6))
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
		roots := []Gate{gates[len(gates)-1], gates[r.Intn(len(gates))]}
		b, broots := c.Binarize(roots)
		if err := b.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		vars := true
		for g := 0; g < b.NumGates(); g++ {
			if len(b.Inputs(Gate(g))) > 2 {
				t.Fatalf("trial %d: gate %d keeps %d inputs", trial, g, len(b.Inputs(Gate(g))))
			}
			isVar := b.KindOf(Gate(g)) == KindVar
			if isVar && !vars {
				t.Fatalf("trial %d: variable gate %d after a non-variable gate", trial, g)
			}
			vars = vars && isVar
		}
		reached := map[Gate]bool{}
		var mark func(Gate)
		mark = func(g Gate) {
			reached[g] = true
			for _, in := range b.Inputs(g) {
				mark(in)
			}
		}
		for _, g := range broots {
			mark(g)
		}
		if len(reached) != b.NumGates() {
			t.Fatalf("trial %d: %d of %d gates reachable from the roots", trial, len(reached), b.NumGates())
		}
		logic.EnumerateValuations(c.Events(), func(v logic.Valuation) {
			for i, root := range roots {
				if c.Eval(root, v) != b.Eval(broots[i], v) {
					t.Fatalf("trial %d: root %d differs on %v", trial, i, v)
				}
			}
		})
	}
}
