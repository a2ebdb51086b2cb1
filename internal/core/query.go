// Package core implements the paper's primary contribution: exact query
// evaluation on tree-decomposed uncertain instances.
//
// Queries are presented to the engine as nondeterministic bag automata over
// nice tree decompositions (the Query interface below). This mirrors the
// paper's approach of compiling queries to tree automata that read tree
// encodings of bounded-treewidth instances: we implement the automaton *run*
// generically and compile conjunctive queries (CQQuery) and an MSO query
// beyond CQs, s-t connectivity (ReachQuery), to it.
//
// Two engines consume a Query:
//
//   - Probability (engine.go) runs the determinized automaton over a nice
//     decomposition of the joint instance+event graph, propagating exact
//     probabilities. This is the algorithm of Theorems 1 and 2: linear in
//     the instance for fixed query and width. It can simultaneously emit the
//     lineage as a deterministic, decomposable circuit (d-DNNF style), whose
//     probability is recomputable in linear time.
//
//   - MonotoneLineage (lineage.go) runs the nondeterministic automaton and
//     emits a monotone lineage circuit over per-fact variables — the
//     provenance circuit of the Section 2.2 semiring-provenance connection,
//     evaluable in any absorptive commutative semiring (internal/provenance)
//     and supporting O(gates) possibility and certainty checks.
package core

import (
	"sort"

	"repro/internal/rel"
)

func sortStrings(ss []string) { sort.Strings(ss) }

// Query is a nondeterministic bag automaton: the compiled form of a Boolean
// query, run bottom-up over a nice tree decomposition of the instance's
// Gaifman graph. States are opaque strings managed by the implementation.
//
// The automaton never sees a domain element. The engine colours the
// decomposition's domain vertices (treedec.Nice.Colour) so that the members
// of every bag carry pairwise distinct colours, 0 up to the widest bag's
// domain size, and the automaton reads colours: a colour names exactly one
// member of the current bag, which is all a run needs, since an element that
// leaves the bag never returns. Facts are read through their signatures
// (FactSignature): a dense id for what the query can read from a fact — for
// a CQ, the atoms it can witness and the colours its arguments carry — but
// not the fact's identity. States, state sets and every determinization memo
// therefore depend only on the query and the decomposition width, never on
// the instance: the paper's tree-encoding automaton over k+1 element names
// (Theorem 1).
//
// Runs are existential: the query holds on a possible world iff some run
// over that world reaches an accepting state at the (empty-bag) root. The
// engine applies the subset construction to determinize, so implementations
// only describe single-run transitions.
//
// The engine assumes monotone queries: processing a fact offers the
// transitions of FactTransitions when the fact is present, and only the
// implicit identity transition when it is absent. (All queries in the paper
// — CQs, tree patterns, guarded fragments — are preserved under adding
// facts; extending the interface with absence-transitions would support
// non-monotone MSO at no change to the engines.)
type Query interface {
	// Start returns the states at an empty leaf bag.
	Start() []string

	// Introduce returns all successor states when the domain element of
	// colour c joins the bag. Implementations must include the "no change"
	// successor explicitly if the state survives (it almost always does).
	Introduce(st string, c int) []string

	// Forget returns the successor states when the domain element of colour
	// c leaves the bag, or nil if the run dies (e.g. a pending obligation on
	// it can no longer be met).
	Forget(st string, c int) []string

	// Join merges the states of two runs from sibling subtrees whose bags
	// are equal. ok is false when the runs are inconsistent.
	Join(a, b string) (merged string, ok bool)

	// FactSignature returns the dense id of the signature of fact f, whose
	// argument f.Args[i] carries colour argColours[i] in the bag the fact
	// is read at. Facts with equal signatures must have equal transitions
	// from every state. Ids are allocated on first use, so the same
	// signature always gets the same id from one Query value.
	FactSignature(f rel.Fact, argColours []int) int

	// FactTransitions returns the extra successor states available when a
	// fact of signature sig is present in the world. The identity
	// transition is implicit.
	FactTransitions(st string, sig int) []string

	// Accept reports whether a state at the empty-bag root is accepting.
	Accept(st string) bool
}

// SetPruner is an optional Query extension: PruneSet may drop states from a
// determinized state set when their presence can never change acceptance —
// typically states dominated by another state in the set, or everything
// else once an absorbing accepting state is present. Pruning keeps the
// probability computation exact (worlds whose pruned sets coincide are
// accepted identically) while collapsing the table sizes that drive the
// engine's constant factor.
type SetPruner interface {
	PruneSet(set []string) []string
}

// factSignature returns q's signature id of fact f read in a bag of the
// decomposition coloured by colour (indexed by the domain vertex of di). buf
// is reusable scratch for the argument colours.
func factSignature(q Query, f rel.Fact, di *rel.DomainIndex, colour []int, buf *[]int) int {
	cs := (*buf)[:0]
	for _, a := range f.Args {
		cs = append(cs, colour[di.ByName[a]])
	}
	*buf = cs
	return q.FactSignature(f, cs)
}

func prune(q Query, set []string) []string {
	if p, ok := q.(SetPruner); ok {
		return p.PruneSet(set)
	}
	return set
}

// detStep applies the subset construction for a single-state transition
// function: the deterministic successor of a state set is the union of the
// successors of its members.
func detStep(q Query, set []string, step func(string) []string) []string {
	out := make(map[string]struct{})
	for _, st := range set {
		for _, succ := range step(st) {
			out[succ] = struct{}{}
		}
	}
	return prune(q, sortedKeys(out))
}

// detFact applies a fact of signature sig to a state set: every state
// survives (identity) and contributes its fact transitions.
func detFact(set []string, q Query, sig int) []string {
	out := make(map[string]struct{}, len(set))
	for _, st := range set {
		out[st] = struct{}{}
		for _, succ := range q.FactTransitions(st, sig) {
			out[succ] = struct{}{}
		}
	}
	return prune(q, sortedKeys(out))
}

// detJoin merges two state sets across a join node.
func detJoin(a, b []string, q Query) []string {
	out := make(map[string]struct{})
	for _, sa := range a {
		for _, sb := range b {
			if m, ok := q.Join(sa, sb); ok {
				out[m] = struct{}{}
			}
		}
	}
	return prune(q, sortedKeys(out))
}

// acceptsAny reports whether the set contains an accepting state.
func acceptsAny(set []string, q Query) bool {
	for _, st := range set {
		if q.Accept(st) {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}
