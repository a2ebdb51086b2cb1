package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pdb"
	"repro/internal/rel"
)

// connectedBF reports s-t connectivity in a certain world by breadth-first
// search: the reference semantics for ReachQuery.
func connectedBF(world *rel.Instance, edge, s, t string) bool {
	if s == t {
		return true
	}
	adj := map[string][]string{}
	for _, f := range world.Facts() {
		if f.Rel != edge || len(f.Args) != 2 {
			continue
		}
		adj[f.Args[0]] = append(adj[f.Args[0]], f.Args[1])
		adj[f.Args[1]] = append(adj[f.Args[1]], f.Args[0])
	}
	seen := map[string]bool{s: true}
	queue := []string{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == t {
			return true
		}
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return false
}

func randomEdgeTID(r *rand.Rand, n int, names []string) *pdb.TID {
	t := pdb.NewTID()
	for i := 0; i < n; i++ {
		a := names[r.Intn(len(names))]
		b := names[r.Intn(len(names))]
		t.AddFact(float64(r.Intn(11))/10, "E", a, b)
	}
	return t
}

func TestReachChainExact(t *testing.T) {
	// s - m - t chain, each edge present with probability 0.5 and a direct
	// edge s-t with probability 0.5: P(connected) = P(direct) +
	// P(!direct) * P(both chain edges) = 0.5 + 0.5*0.25 = 0.625.
	tid := pdb.NewTID()
	tid.AddFact(0.5, "E", "s", "m")
	tid.AddFact(0.5, "E", "m", "t")
	tid.AddFact(0.5, "E", "s", "t")
	res, err := ReachProbabilityTID(tid, "E", "s", "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probability-0.625) > 1e-12 {
		t.Errorf("P = %v, want 0.625", res.Probability)
	}
}

func TestReachSourceEqualsTarget(t *testing.T) {
	tid := pdb.NewTID()
	tid.AddFact(0.5, "E", "a", "b")
	res, err := ReachProbabilityTID(tid, "E", "a", "a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability != 1 {
		t.Errorf("P(a~a) = %v, want 1", res.Probability)
	}
}

func TestReachDisconnected(t *testing.T) {
	tid := pdb.NewTID()
	tid.AddFact(0.9, "E", "a", "b")
	tid.AddFact(0.9, "E", "c", "d")
	res, err := ReachProbabilityTID(tid, "E", "a", "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability != 0 {
		t.Errorf("P = %v, want 0", res.Probability)
	}
}

func TestPropertyReachMatchesEnumeration(t *testing.T) {
	cfg := &quick.Config{MaxCount: 80}
	names := []string{"s", "a", "b", "t"}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tid := randomEdgeTID(r, 1+r.Intn(7), names)
		want := 0.0
		tid.EnumerateWorlds(func(w *rel.Instance, p float64) {
			if connectedBF(w, "E", "s", "t") {
				want += p
			}
		})
		res, err := ReachProbabilityTID(tid, "E", "s", "t", Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if math.Abs(res.Probability-want) > 1e-9 {
			t.Logf("seed %d: engine %v, enum %v on %s", seed, res.Probability, want, tid.Inst)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestPropertyReachRunOnWorldMatchesBFS(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	names := []string{"s", "a", "b", "c", "t"}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tid := randomEdgeTID(r, 1+r.Intn(9), names)
		inst := tid.Inst
		q := NewReachQuery("E", "s", "t")
		present := make([]bool, inst.NumFacts())
		for i := range present {
			present[i] = r.Intn(2) == 0
		}
		got, err := runOnWorld(inst, present, q)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		world := rel.NewInstance()
		for i, keep := range present {
			if keep {
				world.Add(inst.Fact(i))
			}
		}
		want := connectedBF(world, "E", "s", "t")
		if got != want {
			t.Logf("seed %d: automaton %v, BFS %v on %s", seed, got, want, world)
		}
		return got == want
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestReachLongPathLinearScale(t *testing.T) {
	// A 50-edge path: connectivity probability is the product of the edge
	// probabilities; enumeration would need 2^50 worlds.
	tid := pdb.NewTID()
	for i := 0; i < 50; i++ {
		tid.AddFact(0.95, "E", nodeName(i), nodeName(i+1))
	}
	res, err := ReachProbabilityTID(tid, "E", nodeName(0), nodeName(50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(0.95, 50)
	if math.Abs(res.Probability-want) > 1e-9 {
		t.Errorf("P = %v, want %v", res.Probability, want)
	}
}

func TestReachMissingEndpoints(t *testing.T) {
	tid := pdb.NewTID()
	tid.AddFact(0.5, "E", "a", "b")
	res, err := ReachProbabilityTID(tid, "E", "a", "zzz", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability != 0 {
		t.Errorf("P to absent vertex = %v, want 0", res.Probability)
	}
}

func TestReachCycleRedundantPaths(t *testing.T) {
	// 4-cycle s-a-t-b-s with all edges p=0.5: s~t iff a path survives.
	tid := pdb.NewTID()
	tid.AddFact(0.5, "E", "s", "a")
	tid.AddFact(0.5, "E", "a", "t")
	tid.AddFact(0.5, "E", "t", "b")
	tid.AddFact(0.5, "E", "b", "s")
	want := 0.0
	tid.EnumerateWorlds(func(w *rel.Instance, p float64) {
		if connectedBF(w, "E", "s", "t") {
			want += p
		}
	})
	res, err := ReachProbabilityTID(tid, "E", "s", "t", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Probability-want) > 1e-12 {
		t.Errorf("P = %v, want %v", res.Probability, want)
	}
}
