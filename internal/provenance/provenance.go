// Package provenance implements semiring provenance (Green–Karvounarakis–
// Tannen) evaluated over the lineage circuits of internal/core.
//
// Section 2.2 of the paper shows that for monotone queries the lineage
// circuits produced by the automaton run are provenance circuits matching
// the standard definition of semiring provenance for absorptive semirings.
// core.CQLineage builds its circuit from the plan's d-DNNF lineage with
// every negative literal set to true. The d-DNNF is decomposable, so a
// variable occurs at most once in each monomial, and deterministic, so each
// monomial is the fact set of a distinct world the query holds on: the
// circuit's polynomial is the sum over the satisfying worlds. Absorption
// (a ⊕ a⊗b = a) collapses that sum to the minimal witnesses. Agreeing with a
// CQ's match-based provenance polynomial also takes multiplicative
// idempotence (a ⊗ a = a), since a match that uses one fact twice
// contributes its square. Semirings satisfying both — Boolean,
// Viterbi-style max-min, access-control levels, why-provenance — evaluate
// correctly. The counting semiring, which is neither, is intentionally not
// provided.
package provenance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Semiring is a commutative semiring that is absorptive and multiplicatively
// idempotent, the class for which lineage circuits compute semiring
// provenance.
type Semiring[T any] interface {
	Zero() T
	One() T
	Plus(a, b T) T
	Times(a, b T) T
}

// EvalCircuit evaluates a monotone circuit in the semiring, mapping each
// variable gate through tag. Or gates become ⊕, And gates ⊗. Negation is
// rejected: semiring provenance is defined for monotone queries.
func EvalCircuit[T any](sr Semiring[T], c *circuit.Circuit, root circuit.Gate, tag func(logic.Event) T) (T, error) {
	var zero T
	if !c.Monotone() {
		return zero, fmt.Errorf("provenance: circuit contains negation; semiring provenance requires monotone lineage")
	}
	vals := make([]T, c.NumGates())
	for g := circuit.Gate(0); int(g) < c.NumGates(); g++ {
		switch c.KindOf(g) {
		case circuit.KindConst:
			if c.ConstValue(g) {
				vals[g] = sr.One()
			} else {
				vals[g] = sr.Zero()
			}
		case circuit.KindVar:
			vals[g] = tag(c.EventOf(g))
		case circuit.KindAnd:
			acc := sr.One()
			for _, in := range c.Inputs(g) {
				acc = sr.Times(acc, vals[in])
			}
			vals[g] = acc
		case circuit.KindOr:
			acc := sr.Zero()
			for _, in := range c.Inputs(g) {
				acc = sr.Plus(acc, vals[in])
			}
			vals[g] = acc
		}
	}
	return vals[root], nil
}

// Bool is the Boolean semiring ({false, true}, ∨, ∧): provenance evaluates
// to query possibility.
type Bool struct{}

func (Bool) Zero() bool           { return false }
func (Bool) One() bool            { return true }
func (Bool) Plus(a, b bool) bool  { return a || b }
func (Bool) Times(a, b bool) bool { return a && b }

// MaxMin is the fuzzy/Viterbi-style semiring ([0,1], max, min): the result
// is the best over derivations of the weakest fact used — e.g. the
// confidence of the most credible proof. Absorptive and ⊗-idempotent.
type MaxMin struct{}

func (MaxMin) Zero() float64 { return 0 }
func (MaxMin) One() float64  { return 1 }
func (MaxMin) Plus(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
func (MaxMin) Times(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Level is a totally ordered access-control/clearance semiring over the
// levels 0 (public) .. N (top secret): Plus = min (most permissive proof),
// Times = max (a proof is as classified as its most classified fact).
type Level struct{ Top int }

func (l Level) Zero() int { return l.Top + 1 } // "unavailable"
func (Level) One() int    { return 0 }
func (Level) Plus(a, b int) int {
	if a < b {
		return a
	}
	return b
}
func (Level) Times(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Witness is a set of fact identifiers: one minimal proof.
type Witness []string

// WhySet is an antichain of witnesses (absorption keeps only minimal sets):
// the why-provenance of the query.
type WhySet []Witness

// Why is the why-provenance semiring: sets of witnesses with union as ⊕ and
// pairwise union as ⊗, normalized by absorption (supersets of another
// witness are dropped), which makes it absorptive and ⊗-idempotent.
type Why struct{}

func (Why) Zero() WhySet { return nil }
func (Why) One() WhySet  { return WhySet{Witness{}} }

func (Why) Plus(a, b WhySet) WhySet { return normalize(append(append(WhySet{}, a...), b...)) }

func (Why) Times(a, b WhySet) WhySet {
	var out WhySet
	for _, wa := range a {
		for _, wb := range b {
			out = append(out, mergeWitness(wa, wb))
		}
	}
	return normalize(out)
}

// Tag returns the singleton why-annotation for a fact identifier.
func (Why) Tag(id string) WhySet { return WhySet{Witness{id}} }

func mergeWitness(a, b Witness) Witness {
	set := map[string]struct{}{}
	for _, x := range a {
		set[x] = struct{}{}
	}
	for _, x := range b {
		set[x] = struct{}{}
	}
	out := make(Witness, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// normalize sorts, deduplicates, and applies absorption: any witness that
// is a superset of another is removed.
func normalize(ws WhySet) WhySet {
	seen := map[string]Witness{}
	for _, w := range ws {
		seen[strings.Join(w, ",")] = w
	}
	uniq := make(WhySet, 0, len(seen))
	for _, w := range seen {
		uniq = append(uniq, w)
	}
	sort.Slice(uniq, func(i, j int) bool {
		if len(uniq[i]) != len(uniq[j]) {
			return len(uniq[i]) < len(uniq[j])
		}
		return strings.Join(uniq[i], ",") < strings.Join(uniq[j], ",")
	})
	var out WhySet
	for _, w := range uniq {
		absorbed := false
		for _, kept := range out {
			if isSubset(kept, w) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, w)
		}
	}
	return out
}

func isSubset(a, b Witness) bool {
	set := map[string]struct{}{}
	for _, x := range b {
		set[x] = struct{}{}
	}
	for _, x := range a {
		if _, ok := set[x]; !ok {
			return false
		}
	}
	return true
}

// String renders a why-set canonically, e.g. "{f0,f1} {f2}".
func (ws WhySet) String() string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = "{" + strings.Join(w, ",") + "}"
	}
	return strings.Join(parts, " ")
}
