package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/rel"
)

func TestNormalizeCQRenamesAndReorders(t *testing.T) {
	a := rel.NewCQ(
		rel.NewAtom("R", rel.V("x")),
		rel.NewAtom("S", rel.V("x"), rel.V("y")),
		rel.NewAtom("T", rel.V("y")),
	)
	b := rel.NewCQ(
		rel.NewAtom("T", rel.V("q")),
		rel.NewAtom("S", rel.V("p"), rel.V("q")),
		rel.NewAtom("R", rel.V("p")),
	)
	if FingerprintCQ(a) != FingerprintCQ(b) {
		t.Fatalf("isomorphic queries fingerprint differently:\n  %s\n  %s", FingerprintCQ(a), FingerprintCQ(b))
	}
	if got, want := NormalizeCQ(a).String(), NormalizeCQ(b).String(); got != want {
		t.Fatalf("normal forms differ: %s vs %s", got, want)
	}
}

func TestNormalizeCQDistinguishesShapes(t *testing.T) {
	// Same atoms, different join structure: must not collide.
	joined := rel.NewCQ(
		rel.NewAtom("S", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("y"), rel.V("z")),
	)
	split := rel.NewCQ(
		rel.NewAtom("S", rel.V("x"), rel.V("y")),
		rel.NewAtom("S", rel.V("u"), rel.V("v")),
	)
	if FingerprintCQ(joined) == FingerprintCQ(split) {
		t.Fatalf("join structure lost: both fingerprint to %s", FingerprintCQ(joined))
	}
	// Constants are preserved verbatim.
	c1 := rel.NewCQ(rel.NewAtom("R", rel.C("a")))
	c2 := rel.NewCQ(rel.NewAtom("R", rel.C("b")))
	if FingerprintCQ(c1) == FingerprintCQ(c2) {
		t.Fatal("constants collapsed by normalization")
	}
}

func TestNormalizeCQRepeatedVariables(t *testing.T) {
	// R(x,x) vs R(x,y): the repeated-variable pattern must survive renaming.
	diag := rel.NewCQ(rel.NewAtom("R", rel.V("x"), rel.V("x")))
	free := rel.NewCQ(rel.NewAtom("R", rel.V("x"), rel.V("y")))
	if FingerprintCQ(diag) == FingerprintCQ(free) {
		t.Fatal("repeated-variable pattern lost")
	}
	if FingerprintCQ(diag) != FingerprintCQ(rel.NewCQ(rel.NewAtom("R", rel.V("w"), rel.V("w")))) {
		t.Fatal("renamed diagonal query fingerprints differently")
	}
}

// TestNormalizeCQPreservesSemantics checks the load-bearing property of the
// plan cache: a plan prepared for the normalized query answers the original
// query — the normalized CQ has the same probability on random instances.
func TestNormalizeCQPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	queries := []rel.CQ{
		rel.HardQuery(),
		rel.NewCQ(
			rel.NewAtom("S", rel.V("b"), rel.V("a")),
			rel.NewAtom("R", rel.V("b")),
		),
		rel.NewCQ(
			rel.NewAtom("T", rel.V("z")),
			rel.NewAtom("S", rel.V("x"), rel.V("z")),
			rel.NewAtom("S", rel.V("x"), rel.V("x")),
		),
	}
	for _, q := range queries {
		nq := NormalizeCQ(q)
		for trial := 0; trial < 5; trial++ {
			tid := gen.RSTChain(3+r.Intn(5), 0.3+0.4*r.Float64())
			pl, p, err := PrepareTID(tid, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := pl.Probability(p)
			if err != nil {
				t.Fatal(err)
			}
			npl, np, err := PrepareTID(tid, nq, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := npl.Probability(np)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("query %s normalized to %s: probability %v vs %v", q, nq, want, got)
			}
		}
	}
}

// TestNormalizeCQShuffleInvariance: the fingerprint of a query is invariant
// under every atom permutation combined with a random variable renaming —
// for a fixed four-atom query and for random queries of up to five atoms
// over few relations and variables, where atoms tie on their sort keys
// (S(?y,?z) & S(?x,?y) against S(?x,?y) & S(?y,?z), say) and only the tie
// search makes the normal form canonical.
func TestNormalizeCQShuffleInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	queries := []rel.CQ{rel.NewCQ(
		rel.NewAtom("R", rel.V("a")),
		rel.NewAtom("S", rel.V("a"), rel.V("b")),
		rel.NewAtom("S", rel.V("b"), rel.V("c")),
		rel.NewAtom("T", rel.V("c"), rel.C("k")),
	)}
	for len(queries) < 150 {
		atoms := make([]rel.Atom, 1+r.Intn(5))
		for i := range atoms {
			term := func() rel.Term {
				if r.Intn(8) == 0 {
					return rel.C("k")
				}
				return rel.V(string(rune('a' + r.Intn(4))))
			}
			if r.Intn(4) == 0 {
				atoms[i] = rel.NewAtom("R", term())
			} else {
				atoms[i] = rel.NewAtom("S", term(), term())
			}
		}
		queries = append(queries, rel.NewCQ(atoms...))
	}
	names := []string{"u", "v", "w", "z", "a", "b", "c", "d", "q0", "q1", "zz"}
	for qi, base := range queries {
		want := FingerprintCQ(base)
		forEachPerm(len(base.Atoms), func(perm []int) {
			ren := map[string]string{}
			for i, n := range r.Perm(len(names))[:len(base.Vars())] {
				ren[base.Vars()[i]] = names[n]
			}
			atoms := make([]rel.Atom, len(base.Atoms))
			for i, pi := range perm {
				a := base.Atoms[pi]
				terms := make([]rel.Term, len(a.Terms))
				for j, tm := range a.Terms {
					if tm.IsVar {
						terms[j] = rel.V(ren[tm.Name])
					} else {
						terms[j] = tm
					}
				}
				atoms[i] = rel.NewAtom(a.Rel, terms...)
			}
			if got := FingerprintCQ(rel.NewCQ(atoms...)); got != want {
				t.Fatalf("query %d %s as %s: fingerprint %s != %s", qi, base, rel.NewCQ(atoms...), got, want)
			}
		})
	}
}

// forEachPerm calls fn with every permutation of 0..n-1 (Heap's algorithm;
// fn must not keep the slice).
func forEachPerm(n int, fn func([]int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			fn(perm)
			return
		}
		for i := 0; i < k-1; i++ {
			gen(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
		gen(k - 1)
	}
	gen(n)
}
