package core

import (
	"slices"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// Options configures the engine.
type Options struct {
	// Heuristic selects the decomposition heuristic when no decomposition
	// is supplied. MinDegree (default) is fast on large inputs; MinFill
	// usually gives tighter widths.
	Heuristic treedec.Heuristic
	// Joint optionally supplies a precomputed tree decomposition of the
	// joint instance+event graph (see JointEventGraph). Generators that
	// plant a known decomposition pass it here so that evaluation time is
	// not dominated by the decomposition heuristic.
	Joint *treedec.Decomposition
	// EmitLineage additionally builds the lineage as a deterministic,
	// decomposable circuit over the events (d-DNNF style).
	EmitLineage bool
}

// Result is the outcome of an engine run.
type Result struct {
	// Probability is the exact probability that the query holds.
	Probability float64
	// TotalMass is the total probability processed; it equals 1 up to
	// floating error and is exposed as a self-check.
	TotalMass float64
	// Width is the width of the joint decomposition actually used.
	Width int
	// NiceNodes is the size of the nice decomposition traversed.
	NiceNodes int
	// Lineage and Root hold the emitted d-DNNF lineage when requested.
	// Probability equals Lineage.DDNNFProbability(Root, p).
	Lineage *circuit.Circuit
	Root    circuit.Gate
}

// JointEventGraph builds the graph whose treewidth is the structural
// parameter of Theorem 2, in event form: vertices are the instance's domain
// elements followed by the annotation events; every fact contributes a
// clique over its arguments together with the events of its annotation.
//
// For a TID translated via ToCInstance this adds one pendant event per fact,
// so the joint width is at most the instance treewidth plus one — Theorem 1
// is the special case.
func JointEventGraph(c *pdb.CInstance, di *rel.DomainIndex) (g *treedec.Graph, events []logic.Event, eventVertex map[logic.Event]int) {
	if di == nil {
		di = c.Inst.IndexDomain()
	}
	j := buildJoint(c, di)
	eventVertex = make(map[logic.Event]int, len(j.events))
	for e, i := range j.eventIdx {
		eventVertex[e] = j.nDom + i
	}
	return j.g, j.events, eventVertex
}

// jointGraph is the joint graph a plan is compiled against, together with
// what building it computed per scope, so Prepare reads each fact's scope
// and annotation once. Vertices are the domain elements, then the bag bits:
// the weighted events first, then (on a pcc-instance) the gates that carry
// no weight.
type jointGraph struct {
	g        *treedec.Graph
	nDom     int
	events   []logic.Event       // event i is vertex nDom+i, forgotten with its weight
	eventIdx map[logic.Event]int // event -> index into events
	// scopes[i] is the clique of a homed scope: a fact's argument vertices,
	// then the bit vertices of its annotation, or (past the facts) the bit
	// vertices of a pcc gate and its inputs. Every scope is sorted; a
	// pc-instance's share one backing array.
	scopes [][]int
	// anns[i] is scope i's formula over bag bits: a fact's annotation, or
	// past the facts a gate's consistency rule, which drops the rows that
	// violate it.
	anns []logic.Formula
	// gateVars reports that the formulas' variables name pcc gates by
	// number (gateVar) rather than events.
	gateVars bool
}

// vertexOf resolves a formula variable of j.anns to its vertex.
func (j *jointGraph) vertexOf(e logic.Event) (int, bool) {
	if j.gateVars {
		g, err := strconv.Atoi(string(e))
		return j.nDom + g, err == nil
	}
	i, ok := j.eventIdx[e]
	return j.nDom + i, ok
}

// buildJoint builds the joint graph of c over the domain index di.
func buildJoint(c *pdb.CInstance, di *rel.DomainIndex) jointGraph {
	j := jointGraph{nDom: len(di.Names), events: c.Events(), anns: c.Ann}
	j.eventIdx = make(map[logic.Event]int, len(j.events))
	for i, e := range j.events {
		j.eventIdx[e] = i
	}
	args := c.Inst.FactScopes(di)
	// One entry per argument and, for a TID's single-event annotations, one
	// per fact: exact there, and a starting size elsewhere.
	size := len(args)
	for _, a := range args {
		size += len(a)
	}
	slab := make([]int, 0, size)
	j.scopes = make([][]int, len(args))
	var vars []logic.Event
	for fi, a := range args {
		start := len(slab)
		slab = append(slab, a...)
		mid := len(slab)
		vars = logic.AppendVars(vars[:0], c.Ann[fi])
		for _, e := range vars {
			if v := j.nDom + j.eventIdx[e]; !slices.Contains(slab[mid:], v) {
				slab = append(slab, v)
			}
		}
		slices.Sort(slab[mid:])
		if len(slab) > start {
			j.scopes[fi] = slab[start:len(slab):len(slab)]
		}
	}
	j.g = treedec.NewGraphFromCliques(j.nDom+len(j.events), j.scopes)
	return j
}

// EvaluatePC runs the determinized automaton q over the pc-instance (c, p)
// and returns the exact query probability (Theorem 2; Theorem 1 via the TID
// translation). Linear in the instance for a fixed query and joint width;
// exponential in the query size and in the joint width.
//
// EvaluatePC is the one-shot form of the Prepare/Evaluate split: it compiles
// a Plan and evaluates it once. Callers issuing repeated probability
// requests against the same structure should Prepare once and call
// (*Plan).Probability per request instead.
func EvaluatePC(c *pdb.CInstance, p logic.Prob, q Query, opts Options) (*Result, error) {
	pl, err := Prepare(c, q, opts)
	if err != nil {
		return nil, err
	}
	return pl.Result(p)
}

// ProbabilityTID evaluates q on a TID instance by the Theorem 1 algorithm:
// translate to a pc-instance (one fresh event per fact, a pendant vertex in
// the joint graph) and run the determinized automaton.
func ProbabilityTID(t *pdb.TID, q rel.CQ, opts Options) (*Result, error) {
	pl, p, err := PrepareTID(t, q, opts)
	if err != nil {
		return nil, err
	}
	return pl.Result(p)
}

// ProbabilityPC evaluates the conjunctive query q on a pc-instance.
func ProbabilityPC(c *pdb.CInstance, p logic.Prob, q rel.CQ, opts Options) (*Result, error) {
	pl, err := PrepareCQ(c, q, opts)
	if err != nil {
		return nil, err
	}
	return pl.Result(p)
}
