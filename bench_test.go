// Package repro's benchmarks: one testing.B benchmark per experiment of
// EXPERIMENTS.md (E1–E10). cmd/benchtab prints the full tables with
// cross-checks; these benchmarks measure the same code paths under the
// standard Go harness so regressions are caught by `go test -bench`.
package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/cond"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/incr"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/porder"
	"repro/internal/prxml"
	"repro/internal/rel"
	"repro/internal/rules"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/treedec"
	"repro/internal/wal"
)

// BenchmarkE1TIDScaling measures Theorem 1: the tractable engine on
// treewidth-1 TID chains of growing size (expected: ns/op grows linearly
// with n).
func BenchmarkE1TIDScaling(b *testing.B) {
	q := rel.HardQuery()
	for _, n := range []int{50, 200, 800} {
		tid := gen.RSTChain(n, 0.5)
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ProbabilityTID(tid, q, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The exponential baseline, at the largest size it can stand.
	for _, n := range []int{3, 5} {
		tid := gen.RSTChain(n, 0.5)
		b.Run(fmt.Sprintf("enumeration/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tid.QueryProbabilityEnumeration(q)
			}
		})
	}
}

// BenchmarkE1TIDScalingPrepared measures the amortized path of the
// Prepare/Evaluate split on the E1 instances: the plan is compiled once and
// only (*Plan).Probability runs per iteration, as in a server answering
// repeated probability requests for the same query and structure.
func BenchmarkE1TIDScalingPrepared(b *testing.B) {
	q := rel.HardQuery()
	for _, n := range []int{50, 200, 800} {
		tid := gen.RSTChain(n, 0.5)
		b.Run(fmt.Sprintf("evaluate/n=%d", n), func(b *testing.B) {
			pl, p, err := core.PrepareTID(tid, q, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pl.Probability(p); err != nil { // warm the transition tables
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Probability(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepareCold measures the cold one-shot path a fresh request pays
// when no plan can be reused: ProbabilityTID on a random partial k-tree
// instance — joint graph, decomposition, nice form, the structural pass that
// determinizes the automaton and compiles the row program, and one program
// run. Sizes, widths and the three CQ shapes follow the plan-cold mix of
// pdbbench, so this is its library-level counterpart.
func BenchmarkPrepareCold(b *testing.B) {
	shapes := []struct {
		name string
		q    rel.CQ
	}{
		{"RST", rel.HardQuery()},
		{"RS", rel.NewCQ(rel.NewAtom("R", rel.V("x")), rel.NewAtom("S", rel.V("x"), rel.V("y")))},
		{"ST", rel.NewCQ(rel.NewAtom("S", rel.V("x"), rel.V("y")), rel.NewAtom("T", rel.V("y")))},
	}
	for _, sh := range shapes {
		for _, k := range []int{1, 2} {
			for _, n := range []int{16, 28, 40} {
				r := rand.New(rand.NewSource(int64(100*k + n)))
				g, _ := gen.PartialKTree(n, k, 0.8, r)
				tid := gen.RSTOverGraph(g, 0.01, 0.1, r)
				b.Run(fmt.Sprintf("%s/w=%d/n=%d", sh.name, k, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := core.ProbabilityTID(tid, sh.q, core.Options{}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// layerSink keeps BenchmarkPrepareLayers' results live, so no stage call can
// be optimized away.
var layerSink any

// BenchmarkPrepareLayers times Prepare's structure stages one by one on the
// plan-cold instance shape (R·S·T over a random partial k-tree, as in
// BenchmarkPrepareCold): the joint instance+event graph, its elimination
// decomposition, the nice form, and the whole PrepareCQ those stages feed
// (homing, colouring, determinization and the row-program compile
// included). Each stage reads the previous stage's output, built once
// outside the timed loop.
func BenchmarkPrepareLayers(b *testing.B) {
	q := rel.HardQuery()
	for _, k := range []int{1, 2} {
		n := 40
		r := rand.New(rand.NewSource(int64(100*k + n)))
		g, _ := gen.PartialKTree(n, k, 0.8, r)
		c, _ := gen.RSTOverGraph(g, 0.01, 0.1, r).ToCInstance()
		joint, _, _ := core.JointEventGraph(c, nil)
		d := treedec.Decompose(joint, core.Options{}.Heuristic)
		suffix := fmt.Sprintf("w=%d/n=%d", k, n)
		b.Run("joint/"+suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layerSink, _, _ = core.JointEventGraph(c, nil)
			}
		})
		b.Run("decompose/"+suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layerSink = treedec.Decompose(joint, core.Options{}.Heuristic)
			}
		})
		b.Run("nice/"+suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layerSink = treedec.MakeNice(d)
			}
		})
		b.Run("prepare/"+suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl, err := core.PrepareCQ(c, q, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				layerSink = pl
			}
		})
	}
}

// sweepMaps builds b probability maps over the plan events of tid, varying
// every event away from its base value — the parameter-sweep workload of the
// batched and parallel benchmarks.
func sweepMaps(tid *pdb.TID, b int) []logic.Prob {
	out := make([]logic.Prob, b)
	for i := range out {
		m := make(logic.Prob, tid.NumFacts())
		for f := 0; f < tid.NumFacts(); f++ {
			m[tid.EventOf(f)] = 0.1 + 0.8*float64((i+f)%16)/15
		}
		out[i] = m
	}
	return out
}

// BenchmarkE1Batched measures the multi-lane batch path on E1 n=800: one
// ProbabilityBatch call with B lanes per iteration. The per-assignment
// metric is what a parameter sweep pays per parameter setting; compare
// lanes=1 against lanes=64 for the amortization of the row DP.
func BenchmarkE1Batched(b *testing.B) {
	q := rel.HardQuery()
	tid := gen.RSTChain(800, 0.5)
	pl, _, err := core.PrepareTID(tid, q, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, lanes := range []int{1, 8, 16, 64, 256} {
		ps := sweepMaps(tid, lanes)
		b.Run(fmt.Sprintf("lanes=%d/n=800", lanes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pl.ProbabilityBatch(ps); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/assign")
		})
	}
}

// BenchmarkE1Parallel measures concurrent serving of one shared plan
// on E1 n=800: b.N independent evaluations split over g goroutines. ns/op is
// wall-clock per evaluation, so ideal scaling divides it by g.
func BenchmarkE1Parallel(b *testing.B) {
	q := rel.HardQuery()
	tid := gen.RSTChain(800, 0.5)
	pl, p, err := core.PrepareTID(tid, q, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d/n=800", g), func(b *testing.B) {
			b.SetParallelism(1) // we manage the fan-out ourselves
			var wg sync.WaitGroup
			share := b.N / g
			b.ResetTimer()
			for w := 0; w < g; w++ {
				n := share
				if w == g-1 {
					n = b.N - share*(g-1)
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := pl.Probability(p); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
		})
	}
}

// BenchmarkE1Update measures incremental maintenance on E1 n=800: a
// single-tuple SetProb plus the refreshed probability through a live
// materialized view (internal/incr), against re-Prepare + evaluate as the
// baseline a snapshot engine would pay. The ns/update metric lands in
// BENCH_BASELINE.json as ns_per_update.
func BenchmarkE1Update(b *testing.B) {
	q := rel.HardQuery()
	tid := gen.RSTChain(800, 0.5)
	b.Run("incremental/n=800", func(b *testing.B) {
		s, err := incr.NewStore(tid)
		if err != nil {
			b.Fatal(err)
		}
		v, err := s.RegisterView(q, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Period-7 weights are coprime to the id cycle: every SetProb
			// writes a real change (an unchanged weight commits as a no-op).
			if err := s.SetProb((i*37)%s.Len(), float64(i%7+1)/10); err != nil {
				b.Fatal(err)
			}
			_ = v.Probability()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/update")
	})
	// In-place structure growth: every Insert is a fresh fact whose
	// arguments share a bag (a reversed S edge), so the owning shard's view
	// splices an introduce/forget pair and recommits its root path. One op
	// is a full cycle of n inserts, one per reversed edge, on a store built
	// off the clock, so every op does the same work whatever b.N is. The
	// edges are visited with a stride coprime to n, so the spine an attach
	// recommits varies along the cycle. ns/update and allocs/update are per
	// insert.
	b.Run("attach/n=800", func(b *testing.B) {
		const n = 800
		var ms runtime.MemStats
		var mallocs uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := incr.NewStore(tid)
			if err != nil {
				b.Fatal(err)
			}
			v, err := s.RegisterView(q, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			mallocs -= ms.Mallocs
			b.StartTimer()
			for k := 0; k < n; k++ {
				j := k * 337 % n
				f := rel.NewFact("S", fmt.Sprintf("v%d", j+1), fmt.Sprintf("v%d", j))
				before := s.Stats().Attached
				if _, err := s.Insert(f, 0.5); err != nil {
					b.Fatal(err)
				}
				if s.Stats().Attached != before+1 {
					b.Fatalf("insert of %s was not absorbed in place", f)
				}
				_ = v.Probability()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/update")
		b.ReportMetric(float64(mallocs)/float64(b.N*n), "allocs/update")
	})
	b.Run("reprepare/n=800", func(b *testing.B) {
		work := gen.RSTChain(800, 0.5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			work.Probs[(i*37)%work.NumFacts()] = 0.3 + 0.4*float64(i%2)
			pl, p, err := core.PrepareTID(work, q, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pl.Probability(p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/update")
	})
	// The amortized batch path: 64 staged SetProbs, one commit.
	b.Run("batch64/n=800", func(b *testing.B) {
		s, err := incr.NewStore(tid)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RegisterView(q, core.Options{}); err != nil {
			b.Fatal(err)
		}
		us := make([]incr.Update, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range us {
				us[j] = incr.Update{Op: incr.OpSet, ID: (i + j*37) % s.Len(), P: 0.3 + 0.4*float64(j%2)}
			}
			if err := s.ApplyBatch(us); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(us)), "ns/update")
	})
	// Net-zero churn: every staged change is staged back to the committed
	// weight inside the same batch, so the delta commit recomputes only the
	// touched leaves, finds each table unchanged, and short-circuits instead
	// of walking the spine — the low-impact floor of change propagation.
	// Compare against batch64 (every update propagates to the root).
	b.Run("churn-batch64/n=800", func(b *testing.B) {
		s, err := incr.NewStore(tid)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RegisterView(q, core.Options{}); err != nil {
			b.Fatal(err)
		}
		us := make([]incr.Update, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < len(us); j += 2 {
				id := (i + j*37) % s.Len()
				us[j] = incr.Update{Op: incr.OpSet, ID: id, P: 0.9}
				us[j+1] = incr.Update{Op: incr.OpSet, ID: id, P: 0.5}
			}
			if err := s.ApplyBatch(us); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(us)), "ns/update")
	})
	// Several live views over the same store, refreshed by one batched
	// commit: the shard-major sweep recomputes every view's dirty spine
	// back-to-back through the compiled row programs.
	b.Run("multiview-batch64/n=800", func(b *testing.B) {
		s, err := incr.NewStore(tid)
		if err != nil {
			b.Fatal(err)
		}
		for _, vq := range []rel.CQ{
			q,
			rel.NewCQ(rel.NewAtom("R", rel.V("x"))),
			rel.NewCQ(rel.NewAtom("T", rel.V("x"))),
		} {
			if _, err := s.RegisterView(vq, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		us := make([]incr.Update, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range us {
				us[j] = incr.Update{Op: incr.OpSet, ID: (i + j*37) % s.Len(), P: float64((i+j)%7+1) / 10}
			}
			if err := s.ApplyBatch(us); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(us)), "ns/update")
	})
}

// BenchmarkE1JoinHeavy is the join-merge regression guard: a partial 3-tree
// instance whose branching decomposition is dense in NiceJoin nodes,
// evaluated through the compiled row program (the "dp" entry once measured
// the map-keyed DP an earlier engine ran; both entries now run the same
// program and are kept for the baseline's trajectory). The quadratic all-pairs join scan the
// compiler's bits-indexed merge replaced made this shape superlinearly
// slower.
func BenchmarkE1JoinHeavy(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	g, _ := gen.PartialKTree(120, 3, 0.6, r)
	tid := gen.RSTOverGraph(g, 0.05, 0.3, r)
	q := rel.HardQuery()
	pl, p, err := core.PrepareTID(tid, q, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dp/n=120", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pl.Probability(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prog/n=120", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pl.Probability(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE1ShardedUpdate measures update routing in the sharded store:
// the instance is K disjoint chains, 720 facts in total, served through one
// live hard-query view. A SetProb dirties only its owning shard's spine, so
// ns/update falls as K grows while the instance size stays fixed; shards=1
// is the unsharded baseline on the same fact count. The ns/update metric
// lands in BENCH_BASELINE.json as ns_per_update (with the shard count as
// "shards"), which is the recorded evidence that sharded update cost scales
// with the dirty shard, not the instance.
func BenchmarkE1ShardedUpdate(b *testing.B) {
	q := rel.HardQuery()
	const links = 240 // 3 facts per link
	for _, k := range []int{1, 4, 16} {
		tid := gen.RSTChains(k, links/k, 0.5)
		b.Run(fmt.Sprintf("shards=%d/facts=720", k), func(b *testing.B) {
			s, err := incr.NewStore(tid)
			if err != nil {
				b.Fatal(err)
			}
			v, err := s.RegisterView(q, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The weight cycle (period 7) is coprime to the id cycle, so
				// every visit writes a genuinely different weight — a SetProb
				// that matches the current value would commit as a no-op.
				if err := s.SetProb((i*37)%s.Len(), float64(i%7+1)/10); err != nil {
					b.Fatal(err)
				}
				_ = v.Probability()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/update")
			b.ReportMetric(float64(k), "shards")
		})
	}
}

// BenchmarkE2WidthSweep measures Theorem 2: cost vs planted width on
// partial k-tree TIDs of fixed size, plus correlated pc-instances.
func BenchmarkE2WidthSweep(b *testing.B) {
	q := rel.HardQuery()
	for _, k := range []int{1, 2, 3} {
		r := rand.New(rand.NewSource(42))
		g, _ := gen.PartialKTree(30, k, 0.6, r)
		tid := gen.RSTOverGraph(g, 0.05, 0.3, r)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ProbabilityTID(tid, q, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	r := rand.New(rand.NewSource(42))
	c, p := gen.CorrelatedPC(200, 4, r)
	qp := rel.NewCQ(
		rel.NewAtom("E", rel.V("x"), rel.V("y")),
		rel.NewAtom("E", rel.V("y"), rel.V("z")),
	)
	b.Run("correlated/n=200", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ProbabilityPC(c, p, qp, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pccChain builds the E2PCC pcc-instance: the R·S·T chain of gen.RSTChain
// over n+1 elements, its facts annotated by gates of one circuit over two
// events per link. Adjacent facts share gates, negations included: R(v_i)
// takes x_i, S(v_i, v_i+1) takes x_i ∧ y_i ∧ ¬x_i+1, and T(v_i+1) takes
// ¬x_i+1 ∨ y_i. Its joint width stays fixed as n grows.
func pccChain(n int) *pdb.PCC {
	p := pdb.NewPCC()
	c := p.Circ
	x := func(i int) circuit.Gate {
		e := logic.Event(fmt.Sprintf("x%d", i))
		p.P[e] = 0.2 + 0.15*float64(i%5)
		return c.Var(e)
	}
	for i := 0; i < n; i++ {
		y := logic.Event(fmt.Sprintf("y%d", i))
		p.P[y] = 0.5
		notNext := c.Not(x(i + 1))
		a, b := fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1)
		p.Add(rel.NewFact("R", a), x(i))
		p.Add(rel.NewFact("S", a, b), c.And(x(i), c.Var(y), notNext))
		p.Add(rel.NewFact("T", b), c.Or(notNext, c.Var(y)))
	}
	return p
}

// BenchmarkE2PCC measures Theorem 2 on pcc-instances: PreparePCC plus one
// evaluation on pccChain, whose joint width is fixed. It reports the row
// program's edges (join edges included) per fact, the evaluation work
// Theorem 2 bounds: it stays flat as n grows.
func BenchmarkE2PCC(b *testing.B) {
	q := rel.HardQuery()
	for _, n := range []int{200, 800, 3200} {
		pcc := pccChain(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var pl *core.Plan
			for i := 0; i < b.N; i++ {
				var err error
				if pl, err = core.PreparePCC(pcc, q, core.Options{}); err != nil {
					b.Fatal(err)
				}
				if _, err := pl.Probability(pcc.P); err != nil {
					b.Fatal(err)
				}
			}
			_, edges := pl.ProgramSize()
			b.ReportMetric(float64(edges)/float64(pcc.NumFacts()), "edges/fact")
		})
	}
}

// TestE2PCCWorkIsLinear checks Theorem 2's linear time on pccChain by
// counting work, not time: the row program's edges per fact at n=3200 stay
// within 1.25× of n=200. On a short chain the plan must also agree with
// enumeration.
func TestE2PCCWorkIsLinear(t *testing.T) {
	q := rel.HardQuery()
	small := pccChain(3)
	pl, err := core.PreparePCC(small, q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pl.Probability(small.P)
	if err != nil {
		t.Fatal(err)
	}
	if want := small.QueryProbabilityEnumeration(q); math.Abs(got-want) > 1e-12 {
		t.Fatalf("pccChain(3): engine %v, enumeration %v", got, want)
	}
	perFact := map[int]float64{}
	for _, n := range []int{200, 3200} {
		pcc := pccChain(n)
		pl, err := core.PreparePCC(pcc, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, edges := pl.ProgramSize()
		perFact[n] = float64(edges) / float64(pcc.NumFacts())
	}
	t.Logf("edges per fact: n=200 %.2f, n=3200 %.2f", perFact[200], perFact[3200])
	if perFact[3200] > 1.25*perFact[200] {
		t.Errorf("edges per fact grew from %.2f at n=200 to %.2f at n=3200", perFact[200], perFact[3200])
	}
}

// BenchmarkE3PrXMLLocal measures tree-pattern probability on local
// (ind/mux) documents: linear in document size.
func BenchmarkE3PrXMLLocal(b *testing.B) {
	pattern := prxml.NewPattern("item").WithDescendant(prxml.NewPattern("value"))
	for _, n := range []int{100, 400, 1600} {
		r := rand.New(rand.NewSource(7))
		doc := gen.LocalDoc(n, 3, r)
		b.Run(fmt.Sprintf("n=%d", doc.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := doc.MatchProbability(pattern); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4ScopeSweep measures event documents of fixed size with growing
// scope bound: exponential in the bound only.
func BenchmarkE4ScopeSweep(b *testing.B) {
	pattern := prxml.NewPattern("entry").WithChild(prxml.NewPattern("payload"))
	for _, scope := range []int{1, 2, 4, 6, 8} {
		r := rand.New(rand.NewSource(int64(scope)))
		doc := gen.ScopedEventDoc(20, scope, r)
		b.Run(fmt.Sprintf("scope=%d", scope), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := doc.MatchProbability(pattern); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5HardQuery contrasts the intro's #P-hard query on tree-shaped
// vs bipartite instances.
func BenchmarkE5HardQuery(b *testing.B) {
	q := rel.HardQuery()
	cases := map[string]*pdb.TID{
		"engine/chain200":    gen.RSTChain(200, 0.5),
		"engine/bipartite5":  gen.RSTBipartite(5, 5, 0.5),
		"enumeration/chain3": gen.RSTChain(3, 0.5),
	}
	for name, tid := range cases {
		tid := tid
		if name == "enumeration/chain3" {
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tid.QueryProbabilityEnumeration(q)
				}
			})
			continue
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ProbabilityTID(tid, q, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5HardQueryPrepared measures the prepare-once/evaluate-many
// variant of E5: the #P-hard query on the chain and bipartite instances
// with all structural work hoisted into Prepare.
func BenchmarkE5HardQueryPrepared(b *testing.B) {
	q := rel.HardQuery()
	cases := []struct {
		name string
		tid  *pdb.TID
	}{
		{"evaluate/chain200", gen.RSTChain(200, 0.5)},
		{"evaluate/bipartite5", gen.RSTBipartite(5, 5, 0.5)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			pl, p, err := core.PrepareTID(tc.tid, q, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pl.Probability(p); err != nil { // warm the transition tables
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Probability(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Linext measures linear-extension counting: the downset DP on
// random posets vs the closed form on series-parallel ones.
func BenchmarkE6Linext(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{12, 18, 24} {
		l := gen.RandomDAGPoset(n, 0.15, 3, r)
		b.Run(fmt.Sprintf("downsetDP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := l.CountLinearExtensions(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{100, 1000, 10000} {
		sp := gen.RandomSP(n, r)
		b.Run(fmt.Sprintf("seriesParallel/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp.CountLinearExtensions()
			}
		})
	}
}

// BenchmarkE7OrderAlgebra measures the algebra operators on merged logs.
func BenchmarkE7OrderAlgebra(b *testing.B) {
	merged := gen.InterleavedLogs(3, 60)
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			porder.Select(merged, func(t porder.Tuple) bool { return t[0] == "m0" })
		}
	})
	b.Run("unionParallel", func(b *testing.B) {
		a := gen.InterleavedLogs(1, 60)
		c := gen.InterleavedLogs(1, 60)
		for i := 0; i < b.N; i++ {
			porder.UnionParallel(a, c)
		}
	})
	var world []porder.Tuple
	for j := 0; j < 60; j++ {
		for m := 0; m < 3; m++ {
			world = append(world, porder.Tuple{fmt.Sprintf("m%d", m), fmt.Sprintf("evt%d", j)})
		}
	}
	b.Run("membership", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, err := merged.IsPossibleWorld(world); err != nil || !ok {
				b.Fatal("membership failed")
			}
		}
	})
	b.Run("productLex20x20", func(b *testing.B) {
		x := gen.InterleavedLogs(1, 20)
		y := gen.InterleavedLogs(1, 20)
		for i := 0; i < b.N; i++ {
			porder.ProductLex(x, y)
		}
	})
}

// BenchmarkE8Chase measures the probabilistic chase on uncertain chains
// with soft transitivity.
func BenchmarkE8Chase(b *testing.B) {
	prog := rules.NewProgram(
		rules.NewRule(rel.NewAtom("T", rel.V("x"), rel.V("y")), rel.NewAtom("E", rel.V("x"), rel.V("y"))),
		rules.NewSoftRule(0.9, rel.NewAtom("T", rel.V("x"), rel.V("z")),
			rel.NewAtom("T", rel.V("x"), rel.V("y")), rel.NewAtom("T", rel.V("y"), rel.V("z"))),
	)
	for _, n := range []int{2, 3, 4} {
		base := pdb.NewCInstance()
		prob := logic.Prob{}
		for i := 0; i < n; i++ {
			e := logic.Event(fmt.Sprintf("e%d", i))
			base.AddFact(logic.Var(e), "E", fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1))
			prob[e] = 0.8
		}
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := prog.Chase(base, prob, rules.ChaseOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Conditioning measures posterior computation after a fact
// observation, engine vs enumeration.
func BenchmarkE9Conditioning(b *testing.B) {
	c := pdb.NewCInstance()
	p := logic.Prob{}
	for u := 0; u < 8; u++ {
		e := logic.Event(fmt.Sprintf("u%d", u))
		p[e] = 0.6
		c.AddFact(logic.Var(e), "Claim", fmt.Sprintf("s%d", u), fmt.Sprintf("o%d", u%2))
	}
	c.AddFact(logic.True, "Good", "o0")
	q := rel.NewCQ(rel.NewAtom("Claim", rel.V("x"), rel.V("y")), rel.NewAtom("Good", rel.V("y")))
	cd, err := cond.NewConditioned(c, p).ObserveFact(c.Inst.Fact(0), true)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cd.Probability(q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cd.ProbabilityEnumeration(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE10Sampling measures Monte Carlo estimation against the exact
// engine on the same instance.
func BenchmarkE10Sampling(b *testing.B) {
	tid := gen.RSTChain(50, 0.5)
	q := rel.HardQuery()
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ProbabilityTID(tid, q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				sampling.QueryTID(tid, q, n, 0.99, r)
			}
		})
	}
}

// BenchmarkE13Service measures the query service end to end over HTTP:
// clients hammering /query on one shared normalized query shape (answered by
// a cached live view after a single Prepare), swept over the number of
// concurrent clients. req/s is the serving throughput number the service
// layer exists to move.
func BenchmarkE13Service(b *testing.B) {
	tid := gen.RSTChain(200, 0.5)
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("query/clients=%d", clients), func(b *testing.B) {
			s, err := server.New(tid, server.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Preregister("R(?x) & S(?x,?y) & T(?y)"); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s)
			defer ts.Close()
			body := []byte(`{"query": "T(?b) & S(?a,?b) & R(?a)"}`)
			b.ResetTimer()
			var wg sync.WaitGroup
			var next atomic.Int64
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					client := &http.Client{}
					for next.Add(1) <= int64(b.N) {
						resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			// Server-side latency quantiles from the /query histogram — the
			// same numbers /statsz and /metrics expose.
			if sn, ok := s.LatencySnapshot("query"); ok && sn.Count > 0 {
				b.ReportMetric(sn.Quantile(0.50)*1e6, "p50_us")
				b.ReportMetric(sn.Quantile(0.99)*1e6, "p99_us")
			}
			st := s.Stats()
			if st.Prepares != 1 {
				b.Fatalf("prepares = %d, want 1 (cache must absorb the load)", st.Prepares)
			}
		})
	}

	// The batched sweep path: one request carrying 64 assignment lanes
	// through one override-lane pass over the live view.
	b.Run("batch/lanes=64", func(b *testing.B) {
		s, err := server.New(tid, server.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		lanes := make([]map[string]float64, 64)
		for i := range lanes {
			lanes[i] = map[string]float64{"0": float64(i+1) / 65}
		}
		body, err := json.Marshal(map[string]any{
			"query":       "R(?x) & S(?x,?y) & T(?y)",
			"assignments": lanes,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lanes)), "ns/assign")
	})
}

// BenchmarkE15Mixed is the mixed read/write serving benchmark: concurrent
// /query readers and /update writers share one server, with the ingest
// batcher off (every write commits alone) and on (concurrent writes
// coalesce into merged commits). Reported p50/p99 are the server-side
// /query latency quantiles — the read tail a dashboard watches while writes
// stream in; the batcher's job is to keep it flat under write pressure.
func BenchmarkE15Mixed(b *testing.B) {
	tid := gen.RSTChain(200, 0.5)
	const readers, writers = 6, 2
	for _, tc := range []struct {
		name        string
		ingestBatch int
		maxWait     time.Duration
	}{
		{"readers=6/writers=2/ingest=none", 0, 0},
		// The sub-millisecond window is what makes two writers actually
		// share commits at benchmark scale (with maxWait=0 a commit on this
		// chain finishes before the next request arrives).
		{"readers=6/writers=2/ingest=256", 256, 500 * time.Microsecond},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := server.New(tid, server.Config{IngestBatch: tc.ingestBatch, IngestMaxWait: tc.maxWait})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Preregister("R(?x) & S(?x,?y) & T(?y)"); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s)
			defer ts.Close()
			queryBody := []byte(`{"query": "R(?x) & S(?x,?y) & T(?y)"}`)
			b.ResetTimer()
			var wg sync.WaitGroup
			var next atomic.Int64
			for c := 0; c < readers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					client := &http.Client{}
					for next.Add(1) <= int64(b.N) {
						resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(queryBody))
						if err != nil {
							b.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}()
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					client := &http.Client{}
					for i := 0; next.Add(1) <= int64(b.N); i++ {
						// Each writer walks its own fact ids so merged
						// commits never collapse two writers' updates into
						// one staged weight.
						body := fmt.Sprintf(`{"updates":[{"op":"set","id":%d,"p":%g}]}`,
							(w*263+i*37)%tid.NumFacts(), float64(i%7+1)/10)
						resp, err := client.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			if sn, ok := s.LatencySnapshot("query"); ok && sn.Count > 0 {
				b.ReportMetric(sn.Quantile(0.50)*1e6, "p50_us")
				b.ReportMetric(sn.Quantile(0.99)*1e6, "p99_us")
			}
		})
	}
}

// BenchmarkE14DurableUpdate is BenchmarkE1Update with the write-ahead log
// attached: every SetProb is acknowledged only after its record is durable
// under the named fsync policy, with concurrent committers sharing the
// group-commit pipeline (batch + single fsync). The paper's serving claim
// extends to durability when fsync=always stays within ~an order of
// magnitude of the in-memory ns/update.
func BenchmarkE14DurableUpdate(b *testing.B) {
	q := rel.HardQuery()
	tid := gen.RSTChain(800, 0.5)
	for _, pol := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncOff} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			be, err := wal.NewDirBackend(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			// MaxWait 0: the accumulation window is the in-flight flush
			// itself (commits queue up behind it and the next flush takes
			// them all), which adds no artificial latency when committers
			// are scarce.
			w, _, err := wal.Open(wal.Options{
				Backend:   be,
				BatchSize: 64,
				MaxWait:   0,
				Sync:      pol,
				SyncEvery: 10 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			s, err := incr.NewStore(tid)
			if err != nil {
				b.Fatal(err)
			}
			v, err := s.RegisterView(q, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			w.Attach(s, nil)
			var next atomic.Int64
			b.SetParallelism(8) // concurrent committers share flushes and fsyncs
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1)
					if err := s.SetProb(int(i*37)%s.Len(), float64(i%7+1)/10); err != nil {
						b.Error(err)
						return
					}
					_ = v.Probability()
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/durable_update")
			st := w.Stats()
			if st.Err != "" {
				b.Fatalf("WAL failed during benchmark: %s", st.Err)
			}
			b.ReportMetric(float64(st.Appends)/float64(st.Flushes), "appends/flush")
			w.Kill()
		})
	}
}

// BenchmarkE14Recovery measures warm-restart latency: rebuilding the store
// from a snapshot plus a 1000-record log tail (the worst planned case —
// crash just before the next snapshot would have truncated).
func BenchmarkE14Recovery(b *testing.B) {
	mem := wal.NewMemBackend()
	w, _, err := wal.Open(wal.Options{Backend: mem, BatchSize: 64, MaxWait: 0, Sync: wal.SyncOff})
	if err != nil {
		b.Fatal(err)
	}
	s, err := incr.NewStore(gen.RSTChain(800, 0.5))
	if err != nil {
		b.Fatal(err)
	}
	w.Attach(s, nil)
	if err := w.Snapshot(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := s.SetProb((i*37)%s.Len(), float64(i%7+1)/10); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	wantSeq := s.Seq()
	w.Kill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := wal.Replay(mem)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Seq != wantSeq {
			b.Fatalf("recovered seq %d, want %d", rec.Seq, wantSeq)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "recovery_ms")
}
