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
// One engine consumes a Query. Prepare (plan.go) determinizes the automaton
// over a nice decomposition of the joint instance+event graph and compiles
// the dynamic program into a row program (rowprog.go); PreparePCC (pcc.go)
// compiles a pcc-instance through the same body, its circuit's gates as bag
// bits. Every query semantics is read off that program:
//
//   - probability: one run of the program propagates exact probability mass
//     per row (Theorems 1 and 2), linear in the instance for fixed query and
//     width;
//   - lineage: a walk over the program emits a deterministic, decomposable
//     circuit (d-DNNF style) whose probability is recomputable in linear
//     time, and, with its negative literals set to true, the monotone
//     lineage over per-fact variables (CQLineage) — the provenance circuit
//     of the Section 2.2 semiring-provenance connection, evaluable in any
//     absorptive commutative semiring (internal/provenance);
//   - possibility and certainty: a reachability pass over the program marks
//     the rows some valuation allowed by the probabilities reaches
//     ((*Plan).PossibleCertain).
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rel"
)

func sortStrings(ss []string) { sort.Strings(ss) }

// Query is a nondeterministic bag automaton: the compiled form of a Boolean
// query, run bottom-up over a nice tree decomposition of the instance's
// Gaifman graph. States are opaque strings managed by the implementation;
// the engine interns each distinct state once and works on integer ids, so
// a state should be a compact canonical key (CQQuery's are binary, one byte
// per variable plus the witness mask).
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
// non-monotone MSO at no change to the engine.)
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

// SetPruner is an optional Query extension that keeps determinized state
// sets small without changing which worlds are accepted. PruneKey describes
// one state:
//
//   - a non-empty collapse names an absorbing accepting state: a set holding
//     a state with a collapse becomes the one-state set {collapse};
//   - otherwise a state is dominated, and dropped, when the set holds
//     another state of the same class whose mask is a strict superset of its
//     own — any continuation accepting from the dominated state accepts from
//     the dominating one.
//
// Pruning keeps the probability computation exact (worlds whose pruned sets
// coincide are accepted identically) while collapsing the table sizes that
// drive the engine's constant factor. The description is per state, so a
// plan's automaton records it once when the state is interned and prunes
// sets of state ids with integer compares (see pruneSet).
type SetPruner interface {
	PruneKey(st string) (class string, mask uint32, collapse string)
}

// ErrTooManyColours reports a decomposition whose colouring needs more
// colours than the query's state keys can name: a bag with more domain
// elements than that. Test for it with errors.Is.
var ErrTooManyColours = errors.New("core: a bag holds more domain elements than the query's states can name")

// checkColours rejects a colouring q's states cannot represent, before any
// state is built: a CQQuery state names a colour in one byte.
func checkColours(q Query, colour []int) error {
	if _, ok := q.(*CQQuery); !ok {
		return nil
	}
	need := 0
	for _, c := range colour {
		need = max(need, c+1)
	}
	if need > maxCQColours {
		return fmt.Errorf("%w: %d colours, at most %d", ErrTooManyColours, need, maxCQColours)
	}
	return nil
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

// pruneKey is one state's SetPruner description with its class in a
// comparable form: the class string on the string path, an interned class id
// on the automaton's id path.
type pruneKey[C comparable] struct {
	class C
	mask  uint32
}

// keepUndominated is the SetPruner domination rule, shared by both paths:
// it appends to out the indices of the keys that no other key of the same
// class strictly covers. A dominated key's dominator is itself kept or
// dominated by a kept one, so one pass decides every key.
func keepUndominated[C comparable](keys []pruneKey[C], out []int) []int {
	for i, ki := range keys {
		dominated := false
		for _, kj := range keys {
			if kj.class == ki.class && ki.mask&^kj.mask == 0 && ki.mask != kj.mask {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// prune applies q's SetPruner (if any) to a sorted, deduplicated set of
// state strings; the result stays sorted.
func prune(q Query, set []string) []string {
	p, ok := q.(SetPruner)
	if !ok {
		return set
	}
	keys := make([]pruneKey[string], len(set))
	for i, st := range set {
		class, mask, collapse := p.PruneKey(st)
		if collapse != "" {
			return []string{collapse}
		}
		keys[i] = pruneKey[string]{class, mask}
	}
	kept := keepUndominated(keys, nil)
	out := make([]string, len(kept))
	for i, k := range kept {
		out[i] = set[k]
	}
	return out
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
