package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/rel"
)

// TestPlanConcurrentMixedEvaluations hammers one Plan from 8 goroutines
// with interleaved Probability and ProbabilityBatch calls and checks every
// answer against serial references. Run under -race (CI does) this is the
// proof that a plan's program, automaton and pooled evaluation states are
// safe for parallel readers.
func TestPlanConcurrentMixedEvaluations(t *testing.T) {
	tid := gen.RSTChain(40, 0.5)
	q := rel.HardQuery()
	pl, p, err := PrepareTID(tid, q, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Serial references, computed before the plan is shared.
	r := rand.New(rand.NewSource(31))
	maps := append([]logic.Prob{p}, randomProbMaps(r, p, 3)...)
	want := make([]float64, len(maps))
	for i, m := range maps {
		if want[i], err = pl.Probability(m); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			check := func(got, want float64) bool {
				// Row tables are hash maps, so only the float summation
				// order — the last ulp — may differ between runs.
				return math.Abs(got-want) <= 1e-12
			}
			for it := 0; it < iters; it++ {
				if (g+it)%2 == 0 {
					i := (g + it) % len(maps)
					got, err := pl.Probability(maps[i])
					if err != nil {
						errs <- err
						return
					}
					if !check(got, want[i]) {
						t.Errorf("goroutine %d: serial %v, want %v", g, got, want[i])
						return
					}
				} else {
					got, err := pl.ProbabilityBatch(maps)
					if err != nil {
						errs <- err
						return
					}
					for i := range maps {
						if !check(got[i], want[i]) {
							t.Errorf("goroutine %d lane %d: batch %v, want %v", g, i, got[i], want[i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanEvaluatesWhileViewAttaches evaluates a plan from several
// goroutines — Probability, ProbabilityBatch and lineage Result — while a
// view of the same plan grows by AttachFact and takes SetEventProb updates.
// The plan's answers must stay bit-identical to its answers before the
// first attach, and the view must end where a plan freshly prepared on the
// grown instance is. Under -race this is the evidence that no view writes to
// its plan.
func TestPlanEvaluatesWhileViewAttaches(t *testing.T) {
	tid := gen.RSTChain(24, 0.5)
	c, p := tid.ToCInstance()
	q := rel.HardQuery()
	pl, err := PrepareCQ(c, q, Options{EmitLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	// The readers get their own maps: p goes on to track the view's
	// instance.
	r := rand.New(rand.NewSource(11))
	base := logic.Prob{}
	for e, v := range p {
		base[e] = v
	}
	maps := append([]logic.Prob{base}, randomProbMaps(r, p, 3)...)
	want := make([]float64, len(maps))
	for i, m := range maps {
		if want[i], err = pl.Probability(m); err != nil {
			t.Fatal(err)
		}
	}
	wantBatch, err := pl.ProbabilityBatch(maps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Result(base)
	if err != nil {
		t.Fatal(err)
	}
	gates := res.Lineage.NumGates()
	m, err := pl.Materialize(p)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-done:
					return
				default:
				}
				switch (g + it) % 3 {
				case 0:
					i := it % len(maps)
					got, err := pl.Probability(maps[i])
					if err != nil || got != want[i] {
						t.Errorf("Probability = %v, %v; want %v", got, err, want[i])
						return
					}
				case 1:
					got, err := pl.ProbabilityBatch(maps)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range maps {
						if got[i] != wantBatch[i] {
							t.Errorf("lane %d = %v, want %v", i, got[i], wantBatch[i])
							return
						}
					}
				case 2:
					res, err := pl.Result(base)
					if err != nil || res.Probability != want[0] || res.Lineage.NumGates() != gates {
						t.Errorf("Result = %+v, %v; want %v over %d gates", res, err, want[0], gates)
						return
					}
				}
			}
		}()
	}

	// Reversed S edges share a bag with the forward ones, so each attaches.
	for i := 0; i < 12; i++ {
		f := rel.NewFact("S", fmt.Sprintf("v%d", 2*i+1), fmt.Sprintf("v%d", 2*i))
		e := logic.Event(fmt.Sprintf("att%d", i))
		pr := float64(1+i%9) / 10
		c.Add(f, logic.Var(e))
		p[e] = pr
		if _, err := m.AttachFact(f, e, pr); err != nil {
			t.Fatal(err)
		}
		ev := tid.EventOf(3 * i)
		p[ev] = float64(i%5) / 4
		if _, err := m.SetEventProb(ev, p[ev]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	fresh, err := PrepareCQ(c, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantView, err := fresh.Probability(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Probability()-wantView) > 1e-12 {
		t.Errorf("view %v, fresh plan on the grown instance %v", m.Probability(), wantView)
	}
}
