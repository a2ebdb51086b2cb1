package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rel"
)

// NormalizeCQ returns a canonical form of q: atoms reordered
// deterministically and variables renamed to x0, x1, ... in order of first
// use by the reordered atoms. Normalization preserves the query's semantics
// exactly — reordering a conjunction and renaming bound variables never
// changes the Boolean query — so a plan prepared for the normalized query
// answers the original, and two queries that differ only in atom order,
// variable names or whitespace normalize to the same value.
//
// Atoms are placed one at a time, each time the atom minimal under the
// current partial renaming (atomSortKey). When several atoms tie, every
// tied candidate is explored and the lexicographically smallest complete
// rendering wins, so the result does not depend on the input order: the
// set of explored renderings is the same for every atom permutation and
// variable renaming of q. Literally identical atoms are interchangeable and
// explored once. The search is bounded by normalizeLeaves complete
// renderings — enough for every query of up to five atoms — and past the
// bound a tie is broken greedily by input order. That loses canonicity only
// for large, highly symmetric queries, and is sound for caching: distinct
// normal forms only cost a duplicate plan, never a wrong answer.
func NormalizeCQ(q rel.CQ) rel.CQ {
	nz := normalizer{atoms: q.Atoms, leaves: 1}
	nz.extend(make(map[string]string, 8), make([]bool, len(q.Atoms)), make([]rel.Atom, 0, len(q.Atoms)))
	return rel.NewCQ(nz.best...)
}

// normalizeLeaves bounds NormalizeCQ's tie search: the number of complete
// renderings it may compare (5! = 120 covers five mutually tied atoms).
const normalizeLeaves = 128

// normalizer is the state of one NormalizeCQ search.
type normalizer struct {
	atoms   []rel.Atom
	leaves  int // complete renderings the search has committed to
	best    []rel.Atom
	bestKey string // rendering of best; "" until a second leaf competes
}

// extend completes the partial normal form out (placed marks the atoms in
// it, rename the canonical names given so far), branching at every tie the
// leaf budget allows, and offers each completion to nz.best.
func (nz *normalizer) extend(rename map[string]string, placed []bool, out []rel.Atom) {
	var ties []int
	for len(out) < len(nz.atoms) {
		ties = ties[:0]
		bestKey := ""
		for i, a := range nz.atoms {
			if placed[i] {
				continue
			}
			key := atomSortKey(a, rename)
			switch {
			case len(ties) == 0 || key < bestKey:
				ties, bestKey = append(ties[:0], i), key
			case key == bestKey && !nz.hasIdentical(ties, a):
				ties = append(ties, i)
			}
		}
		if len(ties) > 1 && nz.leaves+len(ties)-1 <= normalizeLeaves {
			nz.leaves += len(ties) - 1
			for _, i := range ties {
				r := make(map[string]string, len(rename)+len(nz.atoms[i].Terms))
				for k, v := range rename {
					r[k] = v
				}
				p := append([]bool(nil), placed...)
				o := append(make([]rel.Atom, 0, len(nz.atoms)), out...)
				nz.extend(r, p, place(nz.atoms, i, r, p, o))
			}
			return
		}
		out = place(nz.atoms, ties[0], rename, placed, out)
	}
	switch {
	case nz.best == nil:
		nz.best = out
	default:
		if nz.bestKey == "" {
			nz.bestKey = renderAtoms(nz.best)
		}
		if key := renderAtoms(out); key < nz.bestKey {
			nz.best, nz.bestKey = out, key
		}
	}
}

// hasIdentical reports whether some atom among the candidates is literally
// a (same relation, same terms): such atoms are interchangeable, so the
// search explores one of them.
func (nz *normalizer) hasIdentical(cands []int, a rel.Atom) bool {
	for _, c := range cands {
		if b := nz.atoms[c]; b.Rel == a.Rel && slices.Equal(b.Terms, a.Terms) {
			return true
		}
	}
	return false
}

// place appends atom i to out with its variables renamed canonically,
// naming variables first seen here x<n> in order.
func place(atoms []rel.Atom, i int, rename map[string]string, placed []bool, out []rel.Atom) []rel.Atom {
	a := atoms[i]
	placed[i] = true
	terms := make([]rel.Term, len(a.Terms))
	for j, t := range a.Terms {
		if !t.IsVar {
			terms[j] = t
			continue
		}
		name, ok := rename[t.Name]
		if !ok {
			name = "x" + strconv.Itoa(len(rename))
			rename[t.Name] = name
		}
		terms[j] = rel.V(name)
	}
	return append(out, rel.NewAtom(a.Rel, terms...))
}

// renderAtoms renders a complete normal form for the tie-break comparison.
func renderAtoms(atoms []rel.Atom) string {
	var b strings.Builder
	for _, a := range atoms {
		b.WriteString(a.String())
		b.WriteByte('&')
	}
	return b.String()
}

// atomSortKey renders an atom for the normalization ordering: relation name,
// arity, then per term either the constant, the already-assigned canonical
// variable name, or a name-independent placeholder describing where an
// unnamed variable first occurred within this atom (so repeated variables
// compare equal across renamings).
func atomSortKey(a rel.Atom, rename map[string]string) string {
	var b strings.Builder
	b.WriteString(a.Rel)
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(len(a.Terms)))
	local := map[string]int{}
	for _, t := range a.Terms {
		b.WriteByte('\x1f')
		switch {
		case !t.IsVar:
			b.WriteString("c:")
			b.WriteString(t.Name)
		default:
			if name, ok := rename[t.Name]; ok {
				b.WriteString("v:")
				b.WriteString(name)
			} else {
				j, ok := local[t.Name]
				if !ok {
					j = len(local)
					local[t.Name] = j
				}
				b.WriteString("n:")
				b.WriteString(strconv.Itoa(j))
			}
		}
	}
	return b.String()
}

// FingerprintCQ returns a canonical string identifying q's normalized shape,
// usable as a map key: two conjunctive queries that differ only in atom
// order or variable naming fingerprint identically, so they can share one
// compiled plan (the plan-cache key of the query service).
func FingerprintCQ(q rel.CQ) string {
	return FingerprintNormalized(NormalizeCQ(q))
}

// FingerprintNormalized renders the fingerprint of an already-normalized
// query (a NormalizeCQ result), skipping the re-normalization FingerprintCQ
// would pay — the hot-path form for callers that need both the normal form
// and its key.
func FingerprintNormalized(nq rel.CQ) string {
	parts := make([]string, len(nq.Atoms))
	for i, a := range nq.Atoms {
		parts[i] = a.String()
	}
	// Atom multiset semantics: duplicate atoms are harmless to keep, but
	// sorting the rendered atoms once more guards against pathological
	// orderings of equal keys.
	sort.Strings(parts)
	return strings.Join(parts, "&")
}
