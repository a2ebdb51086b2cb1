// Command quickstart shows the core workflow on the paper's running
// example: build a tuple-independent instance, ask the #P-hard query
// ∃xy R(x) S(x,y) T(y), and compute its probability three ways — the
// tractable tree-decomposition engine (Theorem 1), exhaustive possible-
// worlds enumeration, and Monte Carlo sampling — plus possibility,
// certainty, and the lineage circuit.
//
// Tip for parameter sweeps: evaluate the prepared plan with
// core.(*Plan).ProbabilityBatch — on amd64, building with GOAMD64=v3
// enables FMA/AVX code in its lane kernels (internal/core/kernel).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/sampling"
)

func main() {
	// An uncertain instance: R(a) and T(b) are fairly sure, the S link and
	// an alternative path through c are not.
	tid := pdb.NewTID()
	tid.AddFact(0.9, "R", "a")
	tid.AddFact(0.5, "S", "a", "b")
	tid.AddFact(0.8, "T", "b")
	tid.AddFact(0.6, "S", "a", "c")
	tid.AddFact(0.3, "T", "c")

	q := rel.HardQuery()
	fmt.Printf("instance (%d uncertain facts, treewidth %d):\n%s\n\n", tid.NumFacts(), tid.Treewidth(), tid.Inst)
	fmt.Printf("query: %s\n\n", q)

	// 1. Exact probability by the structural engine (linear data
	// complexity on bounded treewidth).
	res, err := core.ProbabilityTID(tid, q, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine probability:      %.6f (joint width %d, %d nice nodes)\n",
		res.Probability, res.Width, res.NiceNodes)

	// 2. Exhaustive enumeration over 2^5 worlds (the baseline the engine
	// replaces; exponential in general).
	fmt.Printf("enumeration probability: %.6f\n", tid.QueryProbabilityEnumeration(q))

	// 3. Monte Carlo sampling (the approximation the paper wants to avoid
	// needing).
	est := sampling.QueryTID(tid, q, 100000, 0.99, rand.New(rand.NewSource(1)))
	fmt.Printf("sampled probability:     %s\n\n", est)

	// Possibility and certainty via the monotone lineage fast path.
	possible, err := core.PossibleTID(tid, q)
	if err != nil {
		log.Fatal(err)
	}
	certain, err := core.CertainTID(tid, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("possible: %v   certain: %v\n\n", possible, certain)

	// The lineage as a deterministic, decomposable circuit: probability is
	// recomputable in one linear pass for any fact probabilities.
	c, p := tid.ToCInstance()
	cq, err := core.NewCQQuery(q)
	if err != nil {
		log.Fatal(err)
	}
	lin, err := core.EvaluatePC(c, p, cq, core.Options{EmitLineage: true})
	if err != nil {
		log.Fatal(err)
	}
	stats := lin.Lineage.Stat()
	fmt.Printf("lineage circuit: %d gates (%d and, %d or, %d var)\n", stats.Gates, stats.Ands, stats.Ors, stats.Vars)
	fmt.Printf("d-DNNF probability pass: %.6f\n\n", lin.Lineage.DDNNFProbability(lin.Root, p))

	// The Prepare/Evaluate split: compile the plan once (decomposition,
	// fact homing, automaton tables), then answer repeated probability
	// requests — here a what-if sweep over the S(a,b) link's reliability —
	// with only the cheap numeric pass. The sweep runs as ONE multi-lane
	// batched evaluation: the row dynamic program executes once and carries
	// a weight lane per sweep value (see also core.Serve for fanning
	// independent requests over a worker pool against the same plan).
	plan, probs, err := core.PrepareTID(tid, q, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sweep := []float64{0.1, 0.5, 0.9}
	lanes := make([]logic.Prob, len(sweep))
	for i, ps := range sweep {
		m := logic.Prob{}
		for e, pr := range probs {
			m[e] = pr
		}
		m["f1"] = ps // fact 1 is S(a,b); its event is f1
		lanes[i] = m
	}
	fmt.Println("prepared plan, sweeping P(S(a,b)) in one batched evaluation:")
	swept, err := plan.ProbabilityBatch(lanes)
	if err != nil {
		log.Fatal(err)
	}
	for i, ps := range sweep {
		fmt.Printf("  P(S(a,b))=%.1f  ->  P(q)=%.6f\n", ps, swept[i])
	}
}
