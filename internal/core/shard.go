package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core/kernel"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// ShardedPlan is a compiled query plan split along the connected components
// of the joint instance+event graph. The dynamic program over a disconnected
// graph factors into one independent program per component, so Prepare-ing a
// sub-plan per component gives the same answers as the monolithic Prepare
// while unlocking locality: each shard's tables depend only on its own
// events, shards evaluate in parallel over a worker pool (the Serve
// machinery), and — through internal/incr — an update to one fact touches
// one shard's spine instead of the whole structure.
//
// The per-shard results are combined at the empty root bag: each shard
// contributes a small distribution over determinized automaton state sets,
// and the fold multiplies row probabilities across shards while joining
// their state sets through the query — exactly the join chain the monolithic
// plan runs over its decomposition forest, so disconnected queries (whose
// matches span components) are still answered exactly. The fold's transition
// structure depends only on the compiled shards, never on the probabilities,
// so it is compiled once at Prepare time and evaluations run it as pure
// float arithmetic.
//
// Probability, ProbabilityBatch and Result mirror *Plan: a sharded plan is
// immutable once PrepareSharded returns, so any number of goroutines may
// evaluate it concurrently, each call fanning its shards over a worker pool.
type ShardedPlan struct {
	q     rel.CQ
	combQ Query // join/accept oracle for the cross-shard fold

	shards     []*Plan
	subC       []*pdb.CInstance
	factShard  []int // instance fact index -> shard
	eventShard map[logic.Event]int
	width      int
	nodes      int

	// The precompiled fold over the shards' root distributions.
	prog foldProgram
}

// foldProgram is a compiled cross-shard combine: keys[s] lays out shard s's
// root state sets as a vector, steps[s] multiplies the running distribution
// with shard s's vector, and accepts flags the final rows containing an
// accepting state. The program depends only on the shards' compiled
// structure — row keys are probability-independent — so it is compiled once
// and every evaluation runs it as pure float arithmetic.
type foldProgram struct {
	keys    [][]int32
	steps   []foldStep
	accepts []bool
	final   int
}

// foldStep combines the running cross-shard distribution with one shard's
// root vector: every edge multiplies running row a with shard row b into
// output row out (rows whose joined state sets coincide share an output row).
type foldStep struct {
	edges []foldEdge
	rows  int
}

type foldEdge struct{ a, b, out int32 }

// shardRoots is one shard's root distribution layout handed to the fold
// compiler: the interned set ids (the vector order) and their member state
// strings.
type shardRoots struct {
	keys []int32
	sets [][]string
}

// compileFold builds the fold program over the given shard root layouts:
// the fold starts from the query's start set (the join identity for CQ
// automata) and absorbs one shard per step, joining state sets through q.
// Because root bags are empty, the state sets carry no colours (every
// variable is unassigned or forgotten), so joining them through any one
// CQQuery instance is sound even when every shard compiled its own.
func compileFold(q Query, shards []shardRoots) foldProgram {
	prog := foldProgram{
		keys:  make([][]int32, len(shards)),
		steps: make([]foldStep, len(shards)),
	}
	cur := [][]string{append([]string(nil), q.Start()...)}
	for si, sh := range shards {
		prog.keys[si] = sh.keys
		var outSets [][]string
		outIdx := map[string]int32{}
		step := foldStep{}
		for a, A := range cur {
			for b, B := range sh.sets {
				m := detJoin(A, B, q)
				key := strings.Join(m, "\x1f")
				o, ok := outIdx[key]
				if !ok {
					o = int32(len(outSets))
					outIdx[key] = o
					outSets = append(outSets, m)
				}
				step.edges = append(step.edges, foldEdge{a: int32(a), b: int32(b), out: o})
			}
		}
		step.rows = len(outSets)
		prog.steps[si] = step
		cur = outSets
	}
	prog.final = len(cur)
	prog.accepts = make([]bool, len(cur))
	for i, set := range cur {
		prog.accepts[i] = acceptsAny(set, q)
	}
	return prog
}

// newScratch returns per-step output buffers sized for fold, so a
// single-writer caller (ShardCombiner) folds with zero allocations.
func (fp *foldProgram) newScratch() [][]float64 {
	out := make([][]float64, len(fp.steps))
	for i := range fp.steps {
		out[i] = make([]float64, fp.steps[i].rows)
	}
	return out
}

// fold runs the program over the per-shard root vectors and returns the
// accepting and total probability mass. Pure float arithmetic; with a nil
// scratch it allocates its stage buffers (safe for concurrent callers),
// with a newScratch buffer set it is allocation-free (single-writer).
func (fp *foldProgram) fold(vecs, scratch [][]float64) (prob, mass float64) {
	var one [1]float64
	one[0] = 1
	cur := one[:]
	for si := range fp.steps {
		step := &fp.steps[si]
		var next []float64
		if scratch != nil {
			next = scratch[si]
			clear(next)
		} else {
			next = make([]float64, step.rows)
		}
		sv := vecs[si]
		for _, e := range step.edges {
			next[e.out] += cur[e.a] * sv[e.b]
		}
		cur = next
	}
	for i, w := range cur {
		mass += w
		if fp.accepts[i] {
			prob += w
		}
	}
	return prob, mass
}

// PrepareSharded compiles one plan per connected component of the joint
// instance+event graph of c and returns the sharded plan answering q over
// their combination. Options are honoured as in PrepareCQ, except that a
// pinned Joint decomposition is rejected (it describes the union graph, not
// the shards) and EmitLineage is unsupported.
func PrepareSharded(c *pdb.CInstance, q rel.CQ, opts Options) (*ShardedPlan, error) {
	if opts.Joint != nil {
		return nil, fmt.Errorf("core: a sharded plan cannot pin a joint decomposition")
	}
	if opts.EmitLineage {
		return nil, fmt.Errorf("core: sharded plans do not emit lineage")
	}

	di := c.Inst.IndexDomain()
	j := buildJoint(c, di)
	part := treedec.Components(j.g)

	// Assign every fact to the component of its full scope (arguments plus
	// annotation events — one clique, hence one component). Facts with an
	// empty scope (0-ary, event-free) anchor to no vertex; they share one
	// extra shard of their own.
	factComp := make([]int, c.NumFacts())
	floating := false
	for fi, scope := range j.scopes {
		comp := -1
		if len(scope) > 0 {
			comp = part.Comp[scope[0]]
		} else {
			floating = true
		}
		factComp[fi] = comp
	}

	// Renumber the components actually carrying facts densely, in order of
	// their first fact, and build the per-shard sub-instances.
	shardOf := map[int]int{}
	sp := &ShardedPlan{q: q, eventShard: map[logic.Event]int{}, factShard: make([]int, c.NumFacts())}
	for fi := range factComp {
		comp := factComp[fi]
		if comp < 0 {
			continue
		}
		k, ok := shardOf[comp]
		if !ok {
			k = len(sp.subC)
			shardOf[comp] = k
			sp.subC = append(sp.subC, pdb.NewCInstance())
		}
		sp.subC[k].Add(c.Inst.Fact(fi), c.Ann[fi])
		sp.factShard[fi] = k
		for _, v := range j.scopes[fi] {
			if v >= j.nDom {
				sp.eventShard[j.events[v-j.nDom]] = k
			}
		}
	}
	if floating {
		k := len(sp.subC)
		sp.subC = append(sp.subC, pdb.NewCInstance())
		for fi := range factComp {
			if factComp[fi] < 0 {
				sp.subC[k].Add(c.Inst.Fact(fi), c.Ann[fi])
				sp.factShard[fi] = k
			}
		}
	}

	// An instance where no component carries facts (empty, or every fact
	// tombstoned away upstream) compiles to zero shards; the fold below then
	// starts from the query's start set and folds nothing, which is exactly
	// the query-on-the-empty-instance distribution. Width keeps the
	// empty-decomposition convention of the monolithic path (-1).
	sp.width = -1
	for _, sub := range sp.subC {
		pl, err := PrepareCQ(sub, q, opts)
		if err != nil {
			return nil, err
		}
		sp.shards = append(sp.shards, pl)
		if pl.width > sp.width {
			sp.width = pl.width
		}
		sp.nodes += len(pl.nodes)
	}

	combQ, err := NewCQQuery(q)
	if err != nil {
		return nil, err
	}
	sp.combQ = combQ
	roots := make([]shardRoots, len(sp.shards))
	for si, pl := range sp.shards {
		// Root bags are empty, so every root row is a bare state set.
		keys := slices.Clone(pl.prog.rootSets)
		slices.Sort(keys)
		sets := make([][]string, len(keys))
		for j, set := range keys {
			sets[j] = append([]string(nil), pl.setStrings(set, nil)...)
		}
		roots[si] = shardRoots{keys: keys, sets: sets}
	}
	sp.prog = compileFold(sp.combQ, roots)
	return sp, nil
}

// PrepareShardedTID compiles a sharded plan for a conjunctive query on a TID
// instance via the Theorem 1 translation, returning the plan together with
// the event probability map of the translation.
func PrepareShardedTID(t *pdb.TID, q rel.CQ, opts Options) (*ShardedPlan, logic.Prob, error) {
	c, p := t.ToCInstance()
	sp, err := PrepareSharded(c, q, opts)
	if err != nil {
		return nil, nil, err
	}
	return sp, p, nil
}

// NumShards returns the number of connected components the plan was split
// into.
func (sp *ShardedPlan) NumShards() int { return len(sp.shards) }

// Width returns the largest joint width across the shards — the structural
// parameter that bounds every shard's table sizes. It never exceeds the
// monolithic plan's width.
func (sp *ShardedPlan) Width() int { return sp.width }

// NumNiceNodes returns the total nice-node count across the shards.
func (sp *ShardedPlan) NumNiceNodes() int { return sp.nodes }

// ShardStats returns the shape statistics of every shard's decomposition.
func (sp *ShardedPlan) ShardStats() []treedec.Stats {
	out := make([]treedec.Stats, len(sp.shards))
	for i, pl := range sp.shards {
		out[i] = pl.Shape()
	}
	return out
}

// ShardOfFact returns the shard holding fact fi of the prepared instance.
func (sp *ShardedPlan) ShardOfFact(fi int) int { return sp.factShard[fi] }

// ShardOfEvent returns the shard whose tables depend on event e, and whether
// the event belongs to the plan at all. It is the routing map of the update
// path: a probability change to e dirties exactly this shard.
func (sp *ShardedPlan) ShardOfEvent(e logic.Event) (int, bool) {
	k, ok := sp.eventShard[e]
	return k, ok
}

// evalShards computes every shard's root probability vector under p,
// fanning the shards over a worker pool.
func (sp *ShardedPlan) evalShards(p logic.Prob) ([][]float64, error) {
	vecs := make([][]float64, len(sp.shards))
	errs := make([]error, len(sp.shards))
	runPool(len(sp.shards), 0, func(i int) {
		vecs[i] = make([]float64, len(sp.prog.keys[i]))
		errs[i] = sp.shards[i].rootVec(p, sp.prog.keys[i], vecs[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
	}
	return vecs, nil
}

// Probability evaluates every shard under p and combines the per-shard root
// distributions into the exact query probability, matching what the
// monolithic Prepare path returns. Safe for concurrent calls.
func (sp *ShardedPlan) Probability(p logic.Prob) (float64, error) {
	res, err := sp.Result(p)
	if err != nil {
		return 0, err
	}
	return res.Probability, nil
}

// Result evaluates the sharded plan under p. Width is the largest shard
// width, NiceNodes the total across shards; sharded plans do not emit
// lineage. Safe for concurrent calls.
func (sp *ShardedPlan) Result(p logic.Prob) (*Result, error) {
	vecs, err := sp.evalShards(p)
	if err != nil {
		return nil, err
	}
	prob, mass := sp.prog.fold(vecs, nil)
	if massDrifted(mass) {
		return nil, errMassDrift(mass)
	}
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	return &Result{Probability: prob, TotalMass: mass, Width: sp.width, NiceNodes: sp.nodes}, nil
}

// ProbabilityBatch evaluates the sharded plan under B = len(ps) probability
// maps: every shard runs its row program once over B lanes, and the fold
// carries one weight lane per assignment. Lane failures are independent, as
// in (*Plan).ProbabilityBatch: bad lanes come back NaN under a LaneErrors
// while healthy lanes keep their values. Safe for concurrent calls.
func (sp *ShardedPlan) ProbabilityBatch(ps []logic.Prob) ([]float64, error) {
	B := len(ps)
	if B == 0 {
		return nil, nil
	}
	clean, lerrs := sanitizeLanes(ps)
	if nan := allLanesNaN(lerrs); nan != nil {
		return nan, LaneErrors(lerrs)
	}

	vecs := make([][]float64, len(sp.shards))
	runPool(len(sp.shards), 0, func(i int) {
		pl := sp.shards[i]
		st := pl.getState()
		pe, _ := pl.fillLaneWeights(st, clean)
		vec := make([]float64, len(sp.prog.keys[i])*B)
		prog := pl.prog
		root := pl.runBatchProg(st, prog, pe, B)
		for j, set := range sp.prog.keys[i] {
			if r, ok := prog.rootRow[set]; ok {
				copy(vec[j*B:(j+1)*B], root[int(r)*B:int(r)*B+B])
			}
		}
		st.arena.Put(root)
		pl.putState(st)
		vecs[i] = vec
	})

	cur := make([]float64, B)
	for l := range cur {
		cur[l] = 1
	}
	rows := 1
	for si := range sp.prog.steps {
		step := &sp.prog.steps[si]
		next := make([]float64, step.rows*B)
		sv := vecs[si]
		for _, e := range step.edges {
			kernel.MulAdd(next[int(e.out)*B:int(e.out)*B+B], cur[int(e.a)*B:int(e.a)*B+B], sv[int(e.b)*B:int(e.b)*B+B])
		}
		cur = next
		rows = step.rows
	}

	out := make([]float64, B)
	totals := make([]float64, B)
	for r := 0; r < rows; r++ {
		row := cur[r*B : r*B+B]
		kernel.AddTo(totals, row)
		if sp.prog.accepts[r] {
			kernel.AddTo(out, row)
		}
	}
	finishLanes(out, totals, &lerrs)
	return out, laneError(lerrs)
}

// ShardCombiner is the commit-time recombination step of sharded live
// stores (internal/incr): it folds the root tables of per-shard
// Materialized views into the combined query probability. The fold program
// is compiled once from the shards' (probability-independent) root row
// structure and rerun as pure float arithmetic on every call, so a commit
// that dirtied one shard pays only a few multiplies per shard to refresh
// the combined answer; the combiner recompiles itself automatically when a
// shard view's structure changes (StageAttach bumps its generation).
//
// Every view must be a Materialized of a shard plan compiled for the same
// conjunctive query; q supplies the (instance-independent) join of root
// state sets, e.g. a CQQuery of that query over any instance. A
// ShardCombiner is single-writer, like the Materialized views it reads: the
// caller serializes, as incr.Store does under its write lock.
type ShardCombiner struct {
	q       Query
	ms      []*Materialized
	gens    []uint64  // structure generations: a mismatch forces a recompile
	seen    []uint64  // commit generations: a match skips re-extraction
	extract [][]int32 // per shard: root-table row index of each fold key
	prog    foldProgram
	vecs    [][]float64
	scratch [][]float64
}

// NewShardCombiner compiles the fold over the given shard views. Every view
// must have been committed at least once (Materialize does this).
func NewShardCombiner(q Query, ms []*Materialized) *ShardCombiner {
	sc := &ShardCombiner{q: q, ms: ms}
	sc.compile()
	return sc
}

func (sc *ShardCombiner) compile() {
	sc.gens = make([]uint64, len(sc.ms))
	sc.seen = make([]uint64, len(sc.ms))
	sc.vecs = make([][]float64, len(sc.ms))
	sc.extract = make([][]int32, len(sc.ms))
	roots := make([]shardRoots, len(sc.ms))
	var buf []string
	for i, m := range sc.ms {
		sc.gens[i] = m.structGen
		layout := m.layouts[m.st.root]
		keys := make([]int32, 0, len(layout))
		rowOf := make(map[int32]int32, len(layout))
		for j, k := range layout {
			keys = append(keys, k.set)
			rowOf[k.set] = int32(j)
		}
		sortInt32(keys)
		sets := make([][]string, len(keys))
		ext := make([]int32, len(keys))
		for j, set := range keys {
			buf = m.au.setStrings(set, buf)
			sets[j] = append([]string(nil), buf...)
			ext[j] = rowOf[set]
		}
		roots[i] = shardRoots{keys: keys, sets: sets}
		sc.extract[i] = ext
		sc.vecs[i] = make([]float64, len(keys))
	}
	sc.prog = compileFold(sc.q, roots)
	sc.scratch = sc.prog.newScratch()
}

// Probability extracts the root probabilities of every shard whose tables
// changed since the last call and folds the shards into the combined query
// probability — O(dirty shards) table reads plus a few float operations per
// shard. Call after the shards' Materialized views have committed.
func (sc *ShardCombiner) Probability() (float64, error) {
	for i, m := range sc.ms {
		if m.structGen != sc.gens[i] {
			sc.compile()
			break
		}
	}
	for i, m := range sc.ms {
		if m.commitGen == sc.seen[i] {
			continue // unchanged since the last fold
		}
		sc.seen[i] = m.commitGen
		rootVals := m.vals[m.st.root]
		vec := sc.vecs[i]
		for j, r := range sc.extract[i] {
			vec[j] = rootVals[r]
		}
	}
	prob, mass := sc.prog.fold(sc.vecs, sc.scratch)
	if massDrifted(mass) {
		return 0, fmt.Errorf("core: combined probability mass %v drifted from 1", mass)
	}
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	return prob, nil
}
