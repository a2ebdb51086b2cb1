package provenance

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
)

func lineageOf(t *testing.T, inst *rel.Instance, q rel.CQ) (*circuit.Circuit, circuit.Gate) {
	t.Helper()
	c, root, err := core.CQLineage(inst, q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, root
}

func TestBoolSemiringIsPossibility(t *testing.T) {
	inst := rel.NewInstance()
	inst.AddFact("R", "a")
	inst.AddFact("S", "a", "b")
	inst.AddFact("T", "b")
	c, root := lineageOf(t, inst, rel.HardQuery())
	got, err := EvalCircuit[bool](Bool{}, c, root, func(logic.Event) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("possibility should hold with all facts available")
	}
	// Mark the T fact unavailable.
	got, err = EvalCircuit[bool](Bool{}, c, root, func(e logic.Event) bool { return e != core.FactEvent(2) })
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("possibility should fail without the T fact")
	}
}

func TestWhyProvenanceMatchesMinimalWitnesses(t *testing.T) {
	// Two witnesses for the hard query sharing the R fact.
	inst := rel.NewInstance()
	inst.AddFact("R", "a")      // f0
	inst.AddFact("S", "a", "b") // f1
	inst.AddFact("T", "b")      // f2
	inst.AddFact("S", "a", "c") // f3
	inst.AddFact("T", "c")      // f4
	q := rel.HardQuery()
	c, root := lineageOf(t, inst, q)
	why := Why{}
	got, err := EvalCircuit[WhySet](why, c, root, func(e logic.Event) WhySet { return why.Tag(string(e)) })
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "{f0,f1,f2} {f0,f3,f4}" {
		t.Errorf("why-provenance = %s", got)
	}
	// Cross-check against the brute-force minimal witness sets.
	sets := q.MatchingFactSets(inst)
	if len(sets) != len(got) {
		t.Errorf("witness count %d vs %d", len(got), len(sets))
	}
}

// TestPropertyWhyMatchesBruteForce compares the why-provenance of the hard
// query with its minimal matching fact sets, on small random instances and
// on R·S·T instances over width-2 partial k-trees, whose decompositions have
// join nodes and fused unary chains.
func TestPropertyWhyMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst := rel.NewInstance()
		if r.Intn(2) == 0 {
			g, _ := gen.PartialKTree(3+r.Intn(3), 2, 0.7, r)
			inst = gen.RSTOverGraph(g, 0.5, 0.5, r).Inst
		} else {
			names := []string{"a", "b", "c"}
			for i := 0; i < 1+r.Intn(7); i++ {
				switch r.Intn(3) {
				case 0:
					inst.AddFact("R", names[r.Intn(3)])
				case 1:
					inst.AddFact("S", names[r.Intn(3)], names[r.Intn(3)])
				default:
					inst.AddFact("T", names[r.Intn(3)])
				}
			}
		}
		q := rel.HardQuery()
		c, root, err := core.CQLineage(inst, q, core.Options{})
		if err != nil {
			return false
		}
		why := Why{}
		got, err := EvalCircuit[WhySet](why, c, root, func(e logic.Event) WhySet { return why.Tag(string(e)) })
		if err != nil {
			return false
		}
		// Brute force: minimal matching fact sets, absorbed.
		var brute WhySet
		for _, set := range q.MatchingFactSets(inst) {
			w := make(Witness, len(set))
			for i, fi := range set {
				w[i] = string(core.FactEvent(fi))
			}
			slices.Sort(w) // witnesses list their tags in string order
			brute = append(brute, w)
		}
		brute = normalize(brute)
		if got.String() != brute.String() {
			t.Logf("seed %d: circuit %s, brute %s", seed, got, brute)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestMaxMinBestWeakestLink(t *testing.T) {
	inst := rel.NewInstance()
	inst.AddFact("R", "a")      // conf 0.9
	inst.AddFact("S", "a", "b") // conf 0.5
	inst.AddFact("T", "b")      // conf 0.8
	inst.AddFact("S", "a", "c") // conf 0.7
	inst.AddFact("T", "c")      // conf 0.6
	conf := map[string]float64{"f0": 0.9, "f1": 0.5, "f2": 0.8, "f3": 0.7, "f4": 0.6}
	c, root := lineageOf(t, inst, rel.HardQuery())
	got, err := EvalCircuit[float64](MaxMin{}, c, root, func(e logic.Event) float64 { return conf[string(e)] })
	if err != nil {
		t.Fatal(err)
	}
	// Witness 1: min(0.9, 0.5, 0.8) = 0.5; witness 2: min(0.9, 0.7, 0.6) =
	// 0.6; best = 0.6.
	if got != 0.6 {
		t.Errorf("max-min = %v, want 0.6", got)
	}
}

func TestLevelSemiring(t *testing.T) {
	inst := rel.NewInstance()
	inst.AddFact("R", "a")
	inst.AddFact("S", "a", "b")
	inst.AddFact("T", "b")
	levels := map[string]int{"f0": 0, "f1": 2, "f2": 1}
	c, root := lineageOf(t, inst, rel.HardQuery())
	lv := Level{Top: 3}
	got, err := EvalCircuit[int](lv, c, root, func(e logic.Event) int { return levels[string(e)] })
	if err != nil {
		t.Fatal(err)
	}
	// The only proof needs clearance max(0,2,1) = 2.
	if got != 2 {
		t.Errorf("level = %d, want 2", got)
	}
}

func TestEvalRejectsNonMonotone(t *testing.T) {
	c := circuit.New()
	root := c.Not(c.Var("x"))
	if _, err := EvalCircuit[bool](Bool{}, c, root, func(logic.Event) bool { return true }); err == nil {
		t.Error("expected error on negation")
	}
}

func TestWhyAbsorption(t *testing.T) {
	why := Why{}
	a := WhySet{Witness{"x"}}
	ab := WhySet{Witness{"x", "y"}}
	sum := why.Plus(a, ab)
	if sum.String() != "{x}" {
		t.Errorf("absorption failed: %s", sum)
	}
	// ⊗-idempotence: a ⊗ a = a.
	prod := why.Times(a, a)
	if prod.String() != "{x}" {
		t.Errorf("idempotence failed: %s", prod)
	}
}

func TestUnsatisfiableQueryProvenanceIsZero(t *testing.T) {
	inst := rel.NewInstance()
	inst.AddFact("R", "a")
	c, root := lineageOf(t, inst, rel.HardQuery())
	why := Why{}
	got, err := EvalCircuit[WhySet](why, c, root, func(e logic.Event) WhySet { return why.Tag(string(e)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("provenance of impossible query = %s, want empty", got)
	}
}

func TestTagNamesAreFactEvents(t *testing.T) {
	if !strings.HasPrefix(string(core.FactEvent(3)), "f") {
		t.Error("fact event naming changed; update provenance tags")
	}
	_ = pdb.NewTID() // keep pdb linked for the documentation example below
}
