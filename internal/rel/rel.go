// Package rel implements the relational substrate: schemas, facts,
// instances, conjunctive queries and their evaluation on certain (i.e.
// non-probabilistic) instances, and the Gaifman graph whose treewidth is the
// structural parameter of Theorems 1 and 2.
package rel

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/treedec"
)

// Fact is a ground atom R(a1, ..., ak). Constants are strings.
type Fact struct {
	Rel  string
	Args []string
}

// NewFact builds a fact.
func NewFact(rel string, args ...string) Fact {
	return Fact{Rel: rel, Args: append([]string(nil), args...)}
}

// Key returns a canonical string identifying the fact, usable as a map key.
func (f Fact) Key() string {
	return f.Rel + "(" + strings.Join(f.Args, ",") + ")"
}

// String renders the fact, e.g. "R(a,b)".
func (f Fact) String() string { return f.Key() }

// Equal reports whether two facts are identical.
func (f Fact) Equal(g Fact) bool {
	if f.Rel != g.Rel || len(f.Args) != len(g.Args) {
		return false
	}
	for i := range f.Args {
		if f.Args[i] != g.Args[i] {
			return false
		}
	}
	return true
}

// Instance is a finite relational instance: a set of facts. The zero value
// is an empty instance ready for use.
type Instance struct {
	facts []Fact
	keys  []string       // keys[i] = facts[i].Key(), cached at insertion
	index map[string]int // fact key -> position in facts
	byRel map[string][]int
}

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{index: map[string]int{}, byRel: map[string][]int{}}
}

func (in *Instance) ensureInit() {
	if in.index == nil {
		in.index = map[string]int{}
		in.byRel = map[string][]int{}
	}
}

// Add inserts the fact if not already present and returns its index.
func (in *Instance) Add(f Fact) int {
	return in.addKeyed(f, f.Key())
}

// AddFrom inserts fact i of src, reusing src's cached canonical key so the
// key string is not re-rendered — the world-materialization hot path of the
// samplers, where every kept fact comes from the candidate instance.
func (in *Instance) AddFrom(src *Instance, i int) int {
	return in.addKeyed(src.facts[i], src.keys[i])
}

func (in *Instance) addKeyed(f Fact, key string) int {
	in.ensureInit()
	if i, ok := in.index[key]; ok {
		return i
	}
	i := len(in.facts)
	in.facts = append(in.facts, f)
	in.keys = append(in.keys, key)
	in.index[key] = i
	in.byRel[f.Rel] = append(in.byRel[f.Rel], i)
	return i
}

// AddFact is a convenience wrapper: Add(NewFact(rel, args...)).
func (in *Instance) AddFact(rel string, args ...string) int {
	return in.Add(NewFact(rel, args...))
}

// Reset empties the instance while retaining its allocated capacity (the
// fact slice, the index map, and the per-relation index slices), so tight
// loops — e.g. Monte Carlo samplers materializing one world per draw — can
// reuse a single instance instead of allocating one per iteration.
func (in *Instance) Reset() {
	in.ensureInit()
	in.facts = in.facts[:0]
	in.keys = in.keys[:0]
	clear(in.index)
	for r, ids := range in.byRel {
		in.byRel[r] = ids[:0]
	}
}

// Has reports whether the instance contains the fact.
func (in *Instance) Has(f Fact) bool {
	in.ensureInit()
	_, ok := in.index[f.Key()]
	return ok
}

// IndexOf returns the index of f, or -1.
func (in *Instance) IndexOf(f Fact) int {
	in.ensureInit()
	if i, ok := in.index[f.Key()]; ok {
		return i
	}
	return -1
}

// NumFacts returns the number of facts.
func (in *Instance) NumFacts() int { return len(in.facts) }

// Fact returns the i-th fact.
func (in *Instance) Fact(i int) Fact { return in.facts[i] }

// Facts returns all facts in insertion order (copy).
func (in *Instance) Facts() []Fact { return append([]Fact(nil), in.facts...) }

// FactsOf returns the indices of the facts of the given relation.
func (in *Instance) FactsOf(rel string) []int {
	in.ensureInit()
	return in.byRel[rel]
}

// Relations returns the sorted relation names present in the instance.
func (in *Instance) Relations() []string {
	in.ensureInit()
	rels := make([]string, 0, len(in.byRel))
	for r, ids := range in.byRel {
		if len(ids) > 0 { // Reset keeps emptied per-relation entries around
			rels = append(rels, r)
		}
	}
	sort.Strings(rels)
	return rels
}

// Domain returns the sorted active domain (all constants used by facts).
func (in *Instance) Domain() []string {
	set := map[string]struct{}{}
	for _, f := range in.facts {
		for _, a := range f.Args {
			set[a] = struct{}{}
		}
	}
	dom := make([]string, 0, len(set))
	for a := range set {
		dom = append(dom, a)
	}
	sort.Strings(dom)
	return dom
}

// Clone returns a deep copy.
func (in *Instance) Clone() *Instance {
	out := NewInstance()
	for _, f := range in.facts {
		out.Add(f)
	}
	return out
}

// String renders the instance deterministically, one fact per line.
func (in *Instance) String() string {
	keys := make([]string, len(in.facts))
	for i, f := range in.facts {
		keys[i] = f.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// DomainIndex maps the active domain to contiguous integers, the vertex
// space of the Gaifman graph and of tree decompositions.
type DomainIndex struct {
	ByName map[string]int
	Names  []string
}

// IndexDomain builds a DomainIndex for the instance.
func (in *Instance) IndexDomain() *DomainIndex {
	dom := in.Domain()
	di := &DomainIndex{ByName: make(map[string]int, len(dom)), Names: dom}
	for i, a := range dom {
		di.ByName[a] = i
	}
	return di
}

// GaifmanGraph returns the Gaifman (primal) graph of the instance: vertices
// are domain elements, with an edge between any two constants co-occurring
// in a fact. The treewidth of a TID instance is defined as the treewidth of
// this graph (Theorem 1), since the tuple of each fact forms a clique, every
// fact fits inside a single bag of any valid tree decomposition.
func (in *Instance) GaifmanGraph(di *DomainIndex) *treedec.Graph {
	if di == nil {
		di = in.IndexDomain()
	}
	return treedec.NewGraphFromCliques(len(di.Names), in.FactScopes(di))
}

// FactScopes returns, for each fact, its argument vertices under di
// (deduplicated). These are the clique scopes handed to
// treedec.Nice.AssignScopes.
func (in *Instance) FactScopes(di *DomainIndex) [][]int {
	n := 0
	for _, f := range in.facts {
		n += len(f.Args)
	}
	slab := make([]int, 0, n)
	scopes := make([][]int, len(in.facts))
	for i, f := range in.facts {
		start := len(slab)
		for _, a := range f.Args {
			if v := di.ByName[a]; !slices.Contains(slab[start:], v) {
				slab = append(slab, v)
			}
		}
		if len(slab) > start {
			slices.Sort(slab[start:])
			scopes[i] = slab[start:len(slab):len(slab)]
		}
	}
	return scopes
}

// Treewidth returns a heuristic upper bound on the instance's treewidth.
func (in *Instance) Treewidth() int {
	if in.NumFacts() == 0 {
		return -1
	}
	return treedec.Treewidth(in.GaifmanGraph(nil))
}

// Term is a variable or a constant in a query atom.
type Term struct {
	Name  string
	IsVar bool
}

// V returns a variable term.
func V(name string) Term { return Term{Name: name, IsVar: true} }

// C returns a constant term.
func C(name string) Term { return Term{Name: name} }

func (t Term) String() string {
	if t.IsVar {
		return "?" + t.Name
	}
	return t.Name
}

// Atom is a relational atom R(t1, ..., tk) of a conjunctive query.
type Atom struct {
	Rel   string
	Terms []Term
}

// NewAtom builds an atom.
func NewAtom(rel string, terms ...Term) Atom {
	return Atom{Rel: rel, Terms: append([]Term(nil), terms...)}
}

func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ",") + ")"
}

// CQ is a Boolean conjunctive query: an existentially quantified conjunction
// of atoms. The paper's running example is ∃x∃y R(x) ∧ S(x,y) ∧ T(y), whose
// probability evaluation is #P-hard on unrestricted TIDs.
type CQ struct {
	Atoms []Atom
}

// NewCQ builds a conjunctive query.
func NewCQ(atoms ...Atom) CQ {
	return CQ{Atoms: append([]Atom(nil), atoms...)}
}

// HardQuery returns the intro's #P-hard query ∃xy R(x) S(x,y) T(y).
func HardQuery() CQ {
	return NewCQ(
		NewAtom("R", V("x")),
		NewAtom("S", V("x"), V("y")),
		NewAtom("T", V("y")),
	)
}

// Vars returns the sorted variable names of the query.
func (q CQ) Vars() []string {
	set := map[string]struct{}{}
	for _, a := range q.Atoms {
		for _, t := range a.Terms {
			if t.IsVar {
				set[t.Name] = struct{}{}
			}
		}
	}
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

func (q CQ) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " & ")
}

// Holds reports whether the Boolean query q is satisfied by the instance,
// i.e. whether a homomorphism from q's atoms into the facts exists. Simple
// backtracking join; exponential in the query, polynomial in the data.
// Newly bound variables are tracked on a shared trail rather than per-fact
// slices, so a Holds call allocates only the binding map and the trail —
// this is the per-sample hot path of internal/sampling.
func (q CQ) Holds(in *Instance) bool {
	trail := make([]string, 0, 2*len(q.Atoms))
	return q.matchFrom(in, 0, make(map[string]string, 2*len(q.Atoms)), &trail)
}

func (q CQ) matchFrom(in *Instance, ai int, binding map[string]string, trail *[]string) bool {
	if ai == len(q.Atoms) {
		return true
	}
	atom := q.Atoms[ai]
	for _, fi := range in.FactsOf(atom.Rel) {
		f := in.Fact(fi)
		if len(f.Args) != len(atom.Terms) {
			continue
		}
		mark := len(*trail)
		ok := true
		for i, t := range atom.Terms {
			arg := f.Args[i]
			if !t.IsVar {
				if t.Name != arg {
					ok = false
					break
				}
				continue
			}
			if bound, has := binding[t.Name]; has {
				if bound != arg {
					ok = false
					break
				}
				continue
			}
			binding[t.Name] = arg
			*trail = append(*trail, t.Name)
		}
		if ok && q.matchFrom(in, ai+1, binding, trail) {
			return true
		}
		for _, v := range (*trail)[mark:] {
			delete(binding, v)
		}
		*trail = (*trail)[:mark]
	}
	return false
}

// Matches returns all homomorphisms from q into the instance, as bindings
// from variable names to constants. Used by the Datalog engine and by
// lineage cross-checks.
func (q CQ) Matches(in *Instance) []map[string]string {
	var out []map[string]string
	var rec func(ai int, binding map[string]string)
	rec = func(ai int, binding map[string]string) {
		if ai == len(q.Atoms) {
			m := make(map[string]string, len(binding))
			for k, v := range binding {
				m[k] = v
			}
			out = append(out, m)
			return
		}
		atom := q.Atoms[ai]
		for _, fi := range in.FactsOf(atom.Rel) {
			f := in.Fact(fi)
			if len(f.Args) != len(atom.Terms) {
				continue
			}
			var newVars []string
			ok := true
			for i, t := range atom.Terms {
				arg := f.Args[i]
				if !t.IsVar {
					if t.Name != arg {
						ok = false
						break
					}
					continue
				}
				if bound, has := binding[t.Name]; has {
					if bound != arg {
						ok = false
						break
					}
					continue
				}
				binding[t.Name] = arg
				newVars = append(newVars, t.Name)
			}
			if ok {
				rec(ai+1, binding)
			}
			for _, v := range newVars {
				delete(binding, v)
			}
		}
	}
	rec(0, map[string]string{})
	return out
}

// MatchingFactSets returns, for every homomorphism of q into the instance,
// the set of fact indices used (deduplicated, sorted). The disjunction over
// these sets of the conjunction of fact presences is the query's lineage by
// definition — the ground truth that internal/core's DP is tested against.
func (q CQ) MatchingFactSets(in *Instance) [][]int {
	var out [][]int
	seen := map[string]bool{}
	for _, binding := range q.Matches(in) {
		set := map[int]struct{}{}
		okAll := true
		for _, atom := range q.Atoms {
			args := make([]string, len(atom.Terms))
			for i, t := range atom.Terms {
				if t.IsVar {
					args[i] = binding[t.Name]
				} else {
					args[i] = t.Name
				}
			}
			fi := in.IndexOf(NewFact(atom.Rel, args...))
			if fi < 0 {
				okAll = false
				break
			}
			set[fi] = struct{}{}
		}
		if !okAll {
			continue
		}
		ids := make([]int, 0, len(set))
		for fi := range set {
			ids = append(ids, fi)
		}
		sort.Ints(ids)
		key := fmt.Sprint(ids)
		if !seen[key] {
			seen[key] = true
			out = append(out, ids)
		}
	}
	return out
}
