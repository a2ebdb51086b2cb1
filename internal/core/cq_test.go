package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/pdb"
	"repro/internal/rel"
)

// cqKey builds a CQ state key by hand: one code per variable of c (in c.vars
// order, looked up by name; unnamed variables stay unassigned), then mask.
func cqKey(c *CQQuery, codes map[string]byte, mask uint32) string {
	buf := make([]byte, len(c.vars)+4)
	for v, code := range codes {
		buf[c.varIdx[v]] = code
	}
	binary.LittleEndian.PutUint32(buf[len(c.vars):], mask)
	return string(buf)
}

func col(c int) byte { return cqColour0 + byte(c) }

// TestCQTransitionsOnKeys drives Join, Forget and FactTransitions on
// hand-built keys of R(x)·S(x,y)·T(y)·U(z), whose atoms are bits 0–3 of the
// witness mask.
func TestCQTransitionsOnKeys(t *testing.T) {
	q, err := NewCQQuery(rel.NewCQ(
		rel.NewAtom("R", rel.V("x")),
		rel.NewAtom("S", rel.V("x"), rel.V("y")),
		rel.NewAtom("T", rel.V("y")),
		rel.NewAtom("U", rel.V("z")),
	))
	if err != nil {
		t.Fatal(err)
	}
	const rBit, sBit, tBit, uBit = 1, 2, 4, 8
	k := func(codes map[string]byte, mask uint32) string { return cqKey(q, codes, mask) }
	sig := q.FactSignature(rel.Fact{Rel: "S", Args: []string{"a", "b"}}, []int{0, 1})

	joins := []struct {
		name   string
		a, b   string
		want   string
		wantOK bool
	}{
		{"disjoint commitments merge masks",
			k(map[string]byte{"x": col(0)}, rBit), k(map[string]byte{"y": col(1)}, tBit),
			k(map[string]byte{"x": col(0), "y": col(1)}, rBit|tBit), true},
		{"equal colours agree",
			k(map[string]byte{"x": col(2)}, 0), k(map[string]byte{"x": col(2), "z": cqForgotten}, uBit),
			k(map[string]byte{"x": col(2), "z": cqForgotten}, uBit), true},
		{"colour clash",
			k(map[string]byte{"x": col(0)}, 0), k(map[string]byte{"x": col(1)}, 0), "", false},
		{"two forgotten variables clash",
			k(map[string]byte{"z": cqForgotten}, uBit), k(map[string]byte{"z": cqForgotten}, uBit), "", false},
		{"forgotten against a colour clashes",
			k(map[string]byte{"x": cqForgotten}, rBit|sBit), k(map[string]byte{"x": col(0)}, 0), "", false},
		{"absorbed on the left", cqDone, k(map[string]byte{"x": col(0)}, 0), cqDone, true},
		{"absorbed on the right", k(nil, 0), cqDone, cqDone, true},
	}
	for _, tc := range joins {
		got, ok := q.Join(tc.a, tc.b)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("Join %s: got (%q, %v), want (%q, %v)", tc.name, got, ok, tc.want, tc.wantOK)
		}
	}

	forgets := []struct {
		name   string
		key    string
		colour int
		want   []string
	}{
		{"witnessed variable is forgotten",
			k(map[string]byte{"x": col(0), "y": col(1)}, rBit|sBit), 0,
			[]string{k(map[string]byte{"x": cqForgotten, "y": col(1)}, rBit|sBit)}},
		{"two variables forgotten at once",
			k(map[string]byte{"x": col(3), "y": col(3)}, rBit|sBit|tBit), 3,
			[]string{k(map[string]byte{"x": cqForgotten, "y": cqForgotten}, rBit|sBit|tBit)}},
		{"dead forget: S(x,y) still unwitnessed",
			k(map[string]byte{"x": col(0)}, rBit), 0, nil},
		{"colour not held by any variable",
			k(map[string]byte{"x": col(0)}, 0), 1, []string{k(map[string]byte{"x": col(0)}, 0)}},
		{"absorbing state survives", cqDone, 0, []string{cqDone}},
	}
	for _, tc := range forgets {
		if got := q.Forget(tc.key, tc.colour); !slices.Equal(got, tc.want) {
			t.Errorf("Forget %s: got %q, want %q", tc.name, got, tc.want)
		}
	}

	facts := []struct {
		name string
		key  string
		want []string
	}{
		{"matching colours witness S",
			k(map[string]byte{"x": col(0), "y": col(1)}, rBit), []string{k(map[string]byte{"x": col(0), "y": col(1)}, rBit|sBit)}},
		{"wrong colour witnesses nothing", k(map[string]byte{"x": col(0), "y": col(2)}, 0), nil},
		{"already witnessed is the identity", k(map[string]byte{"x": col(0), "y": col(1)}, sBit), nil},
		{"last atom absorbs into the accepting state",
			k(map[string]byte{"x": col(0), "y": col(1), "z": cqForgotten}, rBit|tBit|uBit), []string{cqDone}},
		{"absorbing state has no fact transition", cqDone, nil},
	}
	for _, tc := range facts {
		if got := q.FactTransitions(tc.key, sig); !slices.Equal(got, tc.want) {
			t.Errorf("FactTransitions %s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// bruteForcePrune is the CQ pruning rule by definition: a set holding cqDone
// or a full-mask state collapses to cqDone; otherwise a state is dropped when
// another state has the same assignment and a strictly larger mask.
func bruteForcePrune(c *CQQuery, set []string) []string {
	for _, s := range set {
		if s == cqDone || c.keyMask(s) == c.fullMask() {
			return []string{cqDone}
		}
	}
	var out []string
	for _, s := range set {
		dominated := false
		for _, o := range set {
			ms, mo := c.keyMask(s), c.keyMask(o)
			if s[:len(c.vars)] == o[:len(c.vars)] && ms&mo == ms && ms != mo {
				dominated = true
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	return out
}

// randomCQ draws a connected-or-not CQ of one to four atoms over R/1, S/2
// and T/1 with variables from {x, y, z}.
func randomCQ(r *rand.Rand) rel.CQ {
	vars := []string{"x", "y", "z"}
	v := func() rel.Term { return rel.V(vars[r.Intn(len(vars))]) }
	atoms := make([]rel.Atom, 1+r.Intn(4))
	for i := range atoms {
		switch r.Intn(3) {
		case 0:
			atoms[i] = rel.NewAtom("R", v())
		case 1:
			atoms[i] = rel.NewAtom("S", v(), v())
		default:
			atoms[i] = rel.NewAtom("T", v())
		}
	}
	return rel.NewCQ(atoms...)
}

// TestPruneSetMatchesBruteForce checks the automaton's id-level prune, and
// the string-level prune helper, against the rule's definition on the
// states that Prepares of random CQs over random partial k-trees reach: on
// every interned set's members and on random subsets of all reached states.
func TestPruneSetMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, _ := gen.PartialKTree(8+r.Intn(10), 1+r.Intn(2), 0.8, r)
		q, err := NewCQQuery(randomCQ(r))
		if err != nil {
			t.Fatal(err)
		}
		c, _ := gen.RSTOverGraph(g, 0.2, 0.8, r).ToCInstance()
		pl, err := Prepare(c, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		strs := pl.states.strs
		var sets [][]int32
		for _, m := range pl.sets.members {
			sets = append(sets, slices.Clone(m))
		}
		for i := 0; i < 200; i++ {
			var ids []int32
			for s := range strs {
				if r.Intn(3) == 0 {
					ids = append(ids, int32(s))
				}
			}
			sets = append(sets, ids)
		}
		dp := newDetPass(q, &pl.structure, &pl.automaton, false)
		for _, ids := range sets {
			set := make([]string, len(ids))
			for i, id := range ids {
				set[i] = strs[id]
			}
			want := bruteForcePrune(q, set)
			var got []string
			for _, id := range dp.pruneSet(slices.Clone(ids)) {
				got = append(got, strs[id])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, %v: id-level prune of %q = %q, want %q", seed, q.Q, set, got, want)
			}
			if got := prune(q, set); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %v: string prune of %q = %q, want %q", seed, q.Q, set, got, want)
			}
		}
	}
}

// TestTooManyColoursIsTyped prepares an instance whose one fact spans more
// domain elements than a CQ state key has colours for: Prepare must refuse
// it with ErrTooManyColours rather than alias colours.
func TestTooManyColoursIsTyped(t *testing.T) {
	tid := pdb.NewTID()
	args := make([]string, maxCQColours+1)
	for i := range args {
		args[i] = fmt.Sprintf("a%d", i)
	}
	tid.AddFact(0.5, "Wide", args...)
	tid.AddFact(0.5, "R", "a0")
	_, _, err := PrepareTID(tid, rel.NewCQ(rel.NewAtom("R", rel.V("x"))), Options{})
	if !errors.Is(err, ErrTooManyColours) {
		t.Fatalf("Prepare on a %d-element bag: err = %v, want ErrTooManyColours", len(args), err)
	}
}
