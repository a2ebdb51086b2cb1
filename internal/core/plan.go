package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/core/kernel"
	"repro/internal/logic"
	"repro/internal/pdb"
	"repro/internal/rel"
	"repro/internal/treedec"
)

// massEps bounds the tolerated floating-point drift of a root distribution's
// total probability mass from 1. Every summary path — scalar, batch, sharded
// fold, materialized commit — rejects through the same massDrifted check, so
// an instance that trips the guard fails identically everywhere.
const massEps = 1e-6

// massDrifted reports whether a total probability mass violates the shared
// drift tolerance.
func massDrifted(total float64) bool { return total < 1-massEps || total > 1+massEps }

func errMassDrift(total float64) error {
	return fmt.Errorf("core: probability mass %v drifted from 1", total)
}

// Plan is a compiled query plan: the Prepare/Evaluate split of the Theorem
// 1/2 engine. Prepare hoists every probability-independent stage out of the
// per-call path — domain indexing, the joint instance+event graph, its tree
// decomposition, the nice decomposition, fact homing, compiled annotation
// evaluators, and the determinized automaton itself. The row keys of every
// node table depend only on that structure, never on the probabilities, so
// Prepare runs one structural pass (detPass) that determinizes every
// reachable transition and compiles the whole dynamic program into the row
// program (rowprog.go). Every evaluation — Probability, Result (lineage
// included), ProbabilityBatch, the sharded root vectors — runs that program:
// pure kernel arithmetic over dense row blocks, with no interning and no map
// traffic.
//
// The pass keeps its pair-level scratch to itself; the plan retains only the
// program, its structure, and the automaton (interned states and sets, and
// the set-level transition memos that a Materialized view's per-node
// compiles look up).
//
// # Concurrency
//
// A plan is immutable once Prepare returns. All per-evaluation state (weight
// buffers, row blocks) lives in pooled evaluation states, so any number of
// goroutines may evaluate a plan and Materialize it concurrently. Structural
// change belongs to the Materialized view that asks for it: StageAttach
// splices a private copy of the structure and automaton, never the plan's.
// Each view has one writer, and two views of one plan must not attach at the
// same moment, because both call the plan's Query, whose caches are not safe
// for concurrent use.
type Plan struct {
	q           Query
	emitLineage bool
	nDom        int
	di          *rel.DomainIndex
	colour      []int // colour of every domain vertex (treedec.Nice.Colour): what the automaton reads

	structure
	automaton

	// prog is the compiled row program (see rowprog.go), built by Prepare.
	prog *rowProgram

	// evalPool recycles per-evaluation state (weight buffers, row blocks);
	// each Probability/ProbabilityBatch/Result call checks one out, so
	// concurrent evaluations never share scratch.
	evalPool sync.Pool
}

// structure is the compiled shape of a plan: the nodes, their topology, the
// nice decomposition they were compiled from (an AttachIndex searches it), the
// forget node applying each event's weight, and the event index. A plan
// never changes its own; a view that attaches facts splices a clone.
type structure struct {
	events   []logic.Event
	eventIdx map[logic.Event]int
	width    int
	nodes    []planNode
	post     []int
	root     int
	nice     *treedec.Nice
	parents  []int
	forgetAt []int
}

// clone copies what a splice writes: the event list and index, the compiled
// nodes and the nice nodes (one parent's child pointer is rewired). The
// topology slices are rebuilt wholesale by every splice, and a node's facts,
// bag and children are never written through, so they stay shared.
func (st *structure) clone() *structure {
	c := *st
	c.events = slices.Clone(st.events)
	c.eventIdx = maps.Clone(st.eventIdx)
	c.nodes = slices.Clone(st.nodes)
	c.nice = &treedec.Nice{Nodes: slices.Clone(st.nice.Nodes), Root: st.nice.Root}
	return &c
}

// automaton is the determinized query automaton over a structure: the
// interned states (with what the set-level rules read of each) and sets, and
// the set-level determinization memos.
//
// The memos are written only by structural passes (Prepare's, and the
// per-node recompiles of a view that owns its automaton). Keys are integers:
// the query's string states are touched only on the first encounter of a
// state, and sets are pruned on per-state integers. Transitions are
// addressed by colour and fact signature, never by vertex or fact, so the
// memos depend only on the query and the width: after the first few bags
// almost every lookup hits. Prepare's pass visits every transition the
// plan's structure can reach, so a pass over the unchanged structure hits
// every lookup and never writes.
type automaton struct {
	startSet int32
	states   stateInterner
	sets     setInterner
	accept   []bool // accept[setID]: does the set contain an accepting state?

	setTrans  map[uint64]int32   // transKey(op, operand, set) -> successor set
	joinCache map[uint64]int32   // (left set, right set) -> joined set
	stepCache map[uint64][]int32 // transKey(op, operand, state) -> successor states
}

func newAutomaton() automaton {
	return automaton{
		states:    stateInterner{ids: map[string]int32{}, classes: map[string]int32{}},
		sets:      setInterner{ids: map[string]int32{}},
		setTrans:  map[uint64]int32{},
		joinCache: map[uint64]int32{},
		stepCache: map[uint64][]int32{},
	}
}

// clone copies the automaton's interners and memos. Interned member lists
// and memoized successor lists are never written after creation, so they
// stay shared.
func (au *automaton) clone() *automaton {
	return &automaton{
		startSet: au.startSet,
		states: stateInterner{
			ids:     maps.Clone(au.states.ids),
			strs:    slices.Clone(au.states.strs),
			info:    slices.Clone(au.states.info),
			classes: maps.Clone(au.states.classes),
		},
		sets:      setInterner{ids: maps.Clone(au.sets.ids), members: slices.Clone(au.sets.members)},
		accept:    slices.Clone(au.accept),
		setTrans:  maps.Clone(au.setTrans),
		joinCache: maps.Clone(au.joinCache),
		stepCache: maps.Clone(au.stepCache),
	}
}

// evalState is the per-evaluation mutable state of a Plan: everything a
// program run writes to. It is pooled per plan, so steady-state serial
// evaluation reuses one state with no allocation, while concurrent
// evaluations each get their own.
type evalState struct {
	peBuf []float64

	// Row-program state: the lane-block arena and the per-node block
	// pointers of runBatchProg (see rowprog.go).
	arena  kernel.Arena
	blocks [][]float64

	// one adapts a single probability map to the lane-major weight fill.
	one [1]logic.Prob
}

func (pl *Plan) getState() *evalState {
	if st, ok := pl.evalPool.Get().(*evalState); ok {
		return st
	}
	return &evalState{}
}

func (pl *Plan) putState(st *evalState) { pl.evalPool.Put(st) }

// planNode is the compiled form of one nice-decomposition node.
type planNode struct {
	kind     treedec.NiceKind
	colour   int  // colour of the introduced/forgotten domain vertex
	child0   int  // first child, -1 if none
	child1   int  // second child, -1 if none
	isEvent  bool // the vertex is an event vertex
	pos      int  // bit position of the event within the child bag's events
	eventIdx int  // index into events for forget-event nodes
	facts    []planFact
}

// planFact is a fact homed at a node, addressed by its query signature (see
// Query.FactSignature), with its annotation compiled against the bag's event
// bit layout: the annotation evaluates directly over a row's bits word.
type planFact struct {
	sig int
	cf  *logic.CompiledFormula
}

// rowKey is one determinized table row key: an interned automaton state set
// and the valuation of the in-bag events.
type rowKey struct {
	set  int32
	bits uint64
}

// Transition operations, the op of a transKey.
const (
	opIntroduce uint8 = iota
	opForget
	opFact
)

// transKey packs a memoized transition's address into one word for the
// integer map fast path: the operation, its operand (a colour for
// introduce/forget, a fact signature id for fact application; both bounded
// by the query and the width, far below 2^30) and the state or set id it
// applies to.
func transKey(op uint8, arg int, x int32) uint64 {
	return uint64(op)<<62 | uint64(arg)<<32 | uint64(uint32(x))
}

// stateInterner assigns dense int32 ids to automaton state strings and
// records, per state id, what the set-level rules read: acceptance and the
// query's SetPruner description, with the class interned to a dense id.
type stateInterner struct {
	ids     map[string]int32
	strs    []string
	info    []stateInfo
	classes map[string]int32
}

// stateInfo is one interned state's acceptance and pruning description.
type stateInfo struct {
	accept   bool
	class    int32
	mask     uint32
	collapse int32 // the state a set holding this one collapses to, or -1
}

// id interns state s of query q, describing it on first sight.
func (si *stateInterner) id(q Query, s string) int32 {
	if id, ok := si.ids[s]; ok {
		return id
	}
	id := int32(len(si.strs))
	si.strs = append(si.strs, s)
	si.ids[s] = id
	si.info = append(si.info, stateInfo{accept: q.Accept(s), collapse: -1})
	if p, ok := q.(SetPruner); ok {
		class, mask, collapse := p.PruneKey(s)
		c, ok := si.classes[class]
		if !ok {
			c = int32(len(si.classes))
			si.classes[class] = c
		}
		si.info[id].class, si.info[id].mask = c, mask
		if collapse != "" {
			to := si.id(q, collapse) // may intern and append: index afterwards
			si.info[id].collapse = to
		}
	}
	return id
}

// setInterner assigns dense int32 ids to sets of state ids. The key is the
// little-endian byte image of the sorted member ids, looked up without
// allocating via the map[string] index-expression optimization.
type setInterner struct {
	ids     map[string]int32
	members [][]int32
}

// Prepare compiles a query plan for the pc-instance structure c and the
// query automaton q. Everything that does not depend on the event
// probabilities is computed here, ending in one structural pass that
// determinizes the automaton over the decomposition and compiles the row
// program; the returned plan answers repeated probability requests via
// (*Plan).Probability or (*Plan).Result by running that program.
//
// Options are honoured as in EvaluatePC: a supplied joint decomposition is
// validated and used, the heuristic picks the decomposition otherwise, and
// EmitLineage makes (*Plan).Result build the d-DNNF lineage on every call.
func Prepare(c *pdb.CInstance, q Query, opts Options) (*Plan, error) {
	di := c.Inst.IndexDomain()
	j := buildJoint(c, di)
	d := opts.Joint
	if d == nil {
		d = treedec.Decompose(j.g, opts.Heuristic)
	} else if err := d.Validate(j.g); err != nil {
		return nil, fmt.Errorf("core: supplied joint decomposition invalid: %w", err)
	}
	nice := treedec.MakeNice(d)
	nDom := j.nDom
	colour := nice.Colour(nDom)
	if err := checkColours(q, colour); err != nil {
		return nil, err
	}

	// Event valuations are tracked in a 64-bit mask per table row.
	for _, nd := range nice.Nodes {
		if evs := countEvents(nd.Bag, nDom); evs > 60 {
			return nil, fmt.Errorf("core: a bag holds %d events; the joint width is too large for exact evaluation", evs)
		}
	}

	pl := &Plan{
		q:           q,
		emitLineage: opts.EmitLineage,
		nDom:        nDom,
		di:          di,
		colour:      colour,
		structure: structure{
			events:   j.events,
			eventIdx: j.eventIdx,
			width:    d.Width(),
			post:     nice.PostOrder(),
			root:     nice.Root,
			nice:     nice,
		},
		automaton: newAutomaton(),
	}

	// Home every fact at a nice node covering its args and events.
	assign, err := nice.AssignScopes(j.scopes)
	if err != nil {
		return nil, fmt.Errorf("core: cannot home facts in decomposition: %w", err)
	}

	// Compile the nodes: event bit positions, homed facts with annotation
	// evaluators over the bag's event bit layout.
	pl.nodes = make([]planNode, nice.NumNodes())
	for t := range nice.Nodes {
		nd := &nice.Nodes[t]
		pn := planNode{kind: nd.Kind, colour: -1, child0: -1, child1: -1, eventIdx: -1}
		if len(nd.Children) > 0 {
			pn.child0 = nd.Children[0]
		}
		if len(nd.Children) > 1 {
			pn.child1 = nd.Children[1]
		}
		switch nd.Kind {
		case treedec.NiceIntroduce, treedec.NiceForget:
			if nd.Vertex >= nDom {
				pn.isEvent = true
				pn.pos = eventPosition(nice.Nodes[nd.Children[0]].Bag, nDom, nd.Vertex, nd.Kind == treedec.NiceIntroduce)
				if nd.Kind == treedec.NiceForget {
					pn.eventIdx = nd.Vertex - nDom
				}
			} else {
				pn.colour = colour[nd.Vertex]
			}
		}
		pl.nodes[t] = pn
	}
	pl.homeFacts(c, j, assign)
	pl.rebuildTopology()
	dp := newDetPass(q, &pl.structure, &pl.automaton, true)
	pl.startSet = dp.internStrings(detStep(q, q.Start(), func(s string) []string { return []string{s} }))
	pl.prog = dp.compileProgram()
	return pl, nil
}

// homeFacts gives every node the facts assign homes there, in instance
// order, carved from one slice: each fact's signature under the plan's
// colouring and its annotation compiled against the node bag's event bits.
func (pl *Plan) homeFacts(c *pdb.CInstance, j jointGraph, assign []int) {
	facts := make([]planFact, len(assign))
	var colourBuf []int
	start := csr32(nil, len(pl.nodes), len(assign),
		func(fi int) int32 { return int32(assign[fi]) },
		func(fi, slot int) {
			bag := pl.nice.Nodes[assign[fi]].Bag
			// All annotation events are in the bag by the homing invariant.
			bit := func(e logic.Event) (int, bool) {
				i, ok := j.eventIdx[e]
				if !ok {
					return 0, false
				}
				return eventPosition(bag, j.nDom, j.nDom+i, false), true
			}
			facts[slot] = planFact{
				sig: factSignature(pl.q, c.Inst.Fact(fi), pl.di, pl.colour, &colourBuf),
				cf:  logic.CompileMaskFunc(c.Ann[fi], bit),
			}
		})
	for t := range pl.nodes {
		if lo, hi := start[t], start[t+1]; hi > lo {
			pl.nodes[t].facts = facts[lo:hi:hi]
		}
	}
}

// rebuildTopology derives fresh parent pointers and the per-event
// forget-node index from the compiled nodes. Called by Prepare and again
// after a view splices new nodes in.
func (st *structure) rebuildTopology() {
	st.parents = make([]int, len(st.nodes))
	for i := range st.parents {
		st.parents[i] = -1
	}
	st.forgetAt = make([]int, len(st.events))
	for i := range st.forgetAt {
		st.forgetAt[i] = -1
	}
	for t := range st.nodes {
		nd := &st.nodes[t]
		if nd.child0 >= 0 {
			st.parents[nd.child0] = t
		}
		if nd.child1 >= 0 {
			st.parents[nd.child1] = t
		}
		if nd.kind == treedec.NiceForget && nd.isEvent {
			st.forgetAt[nd.eventIdx] = t
		}
	}
}

// PrepareCQ compiles a plan for a Boolean conjunctive query on the
// pc-instance structure c. A query the CQ automaton cannot compile fails
// with NewCQQuery's error (ErrTooManyAtoms).
func PrepareCQ(c *pdb.CInstance, q rel.CQ, opts Options) (*Plan, error) {
	cq, err := NewCQQuery(q)
	if err != nil {
		return nil, err
	}
	return Prepare(c, cq, opts)
}

// PrepareTID compiles a plan for a conjunctive query on a TID instance via
// the Theorem 1 translation, returning the plan together with the event
// probability map of the translation (pass it to Probability, or substitute
// any other map over the same events).
func PrepareTID(t *pdb.TID, q rel.CQ, opts Options) (*Plan, logic.Prob, error) {
	c, p := t.ToCInstance()
	pl, err := PrepareCQ(c, q, opts)
	if err != nil {
		return nil, nil, err
	}
	return pl, p, nil
}

// Width returns the width of the joint decomposition the plan was compiled
// against.
func (pl *Plan) Width() int { return pl.width }

// NumNiceNodes returns the size of the compiled nice decomposition.
func (pl *Plan) NumNiceNodes() int { return len(pl.nodes) }

// Shape returns the structural statistics of the nice decomposition.
// Depth bounds the per-update cost of a Materialized view: a single event
// change recomputes at most depth+1 node tables.
func (st *structure) Shape() treedec.Stats { return st.nice.Stats() }

// EventIndex returns the position of event e among the structure's events —
// the index a LaneOverride names — or -1 when e is not one of its events.
func (st *structure) EventIndex(e logic.Event) int {
	if i, ok := st.eventIdx[e]; ok {
		return i
	}
	return -1
}

// Probability evaluates the plan under the event probabilities p and
// returns the exact query probability: one run of the compiled row program.
// Safe for concurrent calls.
func (pl *Plan) Probability(p logic.Prob) (float64, error) {
	res, err := pl.eval(p, false)
	if err != nil {
		return 0, err
	}
	return res.Probability, nil
}

// Result evaluates the plan under the event probabilities p and returns the
// full Result, including the d-DNNF lineage when the plan was prepared with
// EmitLineage.
//
// The returned Result — in particular its lineage circuit — is owned by the
// caller: every call builds a fresh circuit, and later evaluations on the
// same plan (under any probability map) never mutate a previously returned
// Result. Safe for concurrent calls.
func (pl *Plan) Result(p logic.Prob) (*Result, error) {
	return pl.eval(p, pl.emitLineage)
}

// --- the structural pass ---

// detPass is the scratch of one structural pass over a structure and its
// automaton: the subset construction of the determinized automaton and the
// row compiler share it, and it is dropped when the pass ends, so the
// automaton keeps nothing pair-level. Prepare runs one pass over every node;
// a Materialized commit that recompiles node programs runs its own.
//
// The automaton's set-level memos are consulted first; below a memo miss the
// pass runs on flat arrays: a mark array indexed by state id and a dense
// state-pair table.
type detPass struct {
	q  Query
	st *structure
	au *automaton

	// owned reports whether the pass may fill the automaton's memos:
	// Prepare's pass builds the plan's, and a view's pass owns the view's
	// private copy. A pass over a borrowed automaton hits every lookup.
	owned bool

	// pairs[a*stride+b] memoizes the Join of states a and b for the whole
	// pass: 0 when not yet joined, 1 when the pair does not merge, m+2 for
	// merged state m. The stride is the next power of two (at least 64) at
	// or above the state count and doubles as states are interned, so the
	// table takes 4·stride² bytes in every pass that misses a set join; a
	// pass that never misses one never allocates it. The state count
	// depends only on the query and the width, not on the instance (38
	// states for R·S·T at width 1, 795 for S·S·S at width 2: 4 MiB), but
	// it grows exponentially in both, and the table with it.
	pairs  []int32
	stride int

	// mark[s] == gen when state s is already among the successors being
	// collected (collect), so duplicate successors are dropped before the
	// survivors are sorted.
	mark []uint64
	gen  uint64

	ids    []int32 // successor collection buffer
	keyBuf []byte  // set key image (sets.ids)

	// pruneSet's scratch: the members' pruning keys and the kept indices.
	pkeys []pruneKey[int32]
	kept  []int

	// compileNodeProg's scratch, reused across nodes: the row index of the
	// node being compiled and its layout under construction, and a join's
	// right rows chained by bits (runs maps bits to the first row of its
	// chain, runNext links each row to the next).
	rows    rowTable
	keys    []rowKey
	runs    rowTable
	runNext []int32
	e0      []rpEdge // a forget-event node's false-bit edges, appended after the true-bit ones

	pruner bool // the query implements SetPruner
}

func newDetPass(q Query, st *structure, au *automaton, owned bool) *detPass {
	dp := &detPass{q: q, st: st, au: au, owned: owned}
	_, dp.pruner = q.(SetPruner)
	return dp
}

// begin starts collecting a fresh successor list.
func (dp *detPass) begin() {
	dp.gen++
	dp.ids = dp.ids[:0]
}

// collect adds state s to the successor list unless it is already there.
func (dp *detPass) collect(s int32) {
	if int(s) >= len(dp.mark) {
		dp.mark = grow(dp.mark, max(int(s)+1, len(dp.au.states.strs)))
	}
	if dp.mark[s] != dp.gen {
		dp.mark[s] = dp.gen
		dp.ids = append(dp.ids, s)
	}
}

// internStrings interns a deduplicated state-string set (as produced by
// detStep) and returns its set id. Sets are canonicalized by sorting their
// interned state ids, so any permutation of the same strings interns to the
// same id.
func (dp *detPass) internStrings(states []string) int32 {
	ids := dp.ids[:0]
	for _, s := range states {
		ids = append(ids, dp.au.states.id(dp.q, s))
	}
	dp.ids = ids
	sortInt32(ids)
	return dp.internIDs(ids)
}

// setKey writes the little-endian byte image of a sorted state-id set into
// the pass's key buffer: the key of sets.ids.
func (dp *detPass) setKey(ids []int32) []byte {
	buf := dp.keyBuf[:0]
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	dp.keyBuf = buf
	return buf
}

// internIDs interns a sorted, deduplicated state-id set directly.
func (dp *detPass) internIDs(ids []int32) int32 {
	au := dp.au
	key := dp.setKey(ids)
	if id, ok := au.sets.ids[string(key)]; ok {
		return id
	}
	id := int32(len(au.sets.members))
	au.sets.members = append(au.sets.members, append([]int32(nil), ids...))
	au.sets.ids[string(key)] = id
	acc := false
	for _, sid := range ids {
		if au.states.info[sid].accept {
			acc = true
			break
		}
	}
	au.accept = append(au.accept, acc)
	return id
}

// setStrings materializes a set's member state strings into the given
// scratch buffer.
func (au *automaton) setStrings(set int32, buf []string) []string {
	out := buf[:0]
	for _, id := range au.sets.members[set] {
		out = append(out, au.states.strs[id])
	}
	return out
}

// pruneSet applies the query's SetPruner rule to a sorted state-id list in
// place, reading each state's description as recorded when it was interned:
// a member with a collapse state turns the list into that one state, and
// otherwise keepUndominated drops the dominated members. The result stays
// sorted.
func (dp *detPass) pruneSet(ids []int32) []int32 {
	info := dp.au.states.info
	keys := dp.pkeys[:0]
	for _, s := range ids {
		in := info[s]
		if in.collapse >= 0 {
			ids[0] = in.collapse
			return ids[:1]
		}
		keys = append(keys, pruneKey[int32]{in.class, in.mask})
	}
	dp.pkeys = keys
	dp.kept = keepUndominated(keys, dp.kept[:0])
	for i, k := range dp.kept {
		ids[i] = ids[k]
	}
	return ids[:len(dp.kept)]
}

// internCollected interns the collected successor list as a set: the
// survivors of the mark dedup are sorted into canonical order, pruned, and
// interned. Unpruned sets are never interned.
func (dp *detPass) internCollected() int32 {
	ids := dp.ids
	sortInt32(ids)
	if dp.pruner {
		ids = dp.pruneSet(ids)
	}
	return dp.internIDs(ids)
}

// stepStates returns the successor state ids of a single state under the
// given operation, computing them from the string-level Query interface on
// first use only. Fact steps include the implicit identity transition.
func (dp *detPass) stepStates(op uint8, arg int, state int32) []int32 {
	au := dp.au
	k := transKey(op, arg, state)
	if succs, ok := au.stepCache[k]; ok {
		return succs
	}
	dp.miss()
	st := au.states.strs[state]
	var out []string
	switch op {
	case opIntroduce:
		out = dp.q.Introduce(st, arg)
	case opForget:
		out = dp.q.Forget(st, arg)
	case opFact:
		out = append(dp.q.FactTransitions(st, arg), st)
	}
	succs := make([]int32, 0, len(out))
	for _, s := range out {
		succs = append(succs, au.states.id(dp.q, s))
	}
	au.stepCache[k] = succs
	return succs
}

// stepSet is the subset construction over interned sets: the successor of a
// set is the pruned union of its members' successors. Results are memoized
// per (operation, operand, set).
func (dp *detPass) stepSet(op uint8, arg int, set int32) int32 {
	au := dp.au
	k := transKey(op, arg, set)
	if r, ok := au.setTrans[k]; ok {
		return r
	}
	dp.miss()
	dp.begin()
	for _, sid := range au.sets.members[set] {
		for _, s := range dp.stepStates(op, arg, sid) {
			dp.collect(s)
		}
	}
	r := dp.internCollected()
	au.setTrans[k] = r
	return r
}

// growPairs widens the pair table to hold every interned state, doubling
// the stride and keeping the pairs already joined.
func (dp *detPass) growPairs() {
	n := len(dp.au.states.strs)
	stride := max(dp.stride, 64)
	for stride < n {
		stride *= 2
	}
	pairs := make([]int32, stride*stride)
	for a := 0; a < dp.stride; a++ {
		copy(pairs[a*stride:], dp.pairs[a*dp.stride:(a+1)*dp.stride])
	}
	dp.pairs, dp.stride = pairs, stride
}

// joinSets merges two interned sets across a join node: every pair of
// member states is merged through the query's Join, behind the pass's pair
// table, so each state pair reaches the string interface at most once per
// pass. Results are memoized per set pair.
func (dp *detPass) joinSets(a, b int32) int32 {
	au := dp.au
	k := uint64(uint32(a))<<32 | uint64(uint32(b))
	if r, ok := au.joinCache[k]; ok {
		return r
	}
	dp.miss()
	if len(au.states.strs) > dp.stride {
		dp.growPairs()
	}
	dp.begin()
	for _, ia := range au.sets.members[a] {
		row := dp.pairs[int(ia)*dp.stride:]
		for _, ib := range au.sets.members[b] {
			m := row[ib]
			if m == 0 {
				m = 1
				if merged, ok := dp.q.Join(au.states.strs[ia], au.states.strs[ib]); ok {
					m = au.states.id(dp.q, merged) + 2
				}
				row[ib] = m
			}
			if m > 1 {
				dp.collect(m - 2)
			}
		}
	}
	r := dp.internCollected()
	au.joinCache[k] = r
	return r
}

// miss asserts that the pass may fill a memo. A pass over a borrowed
// automaton (a view's, before its first attach) compiles the structure
// Prepare's pass already visited, so every lookup hits: a miss there means
// an internal invariant broke, and filling the memo would write to a plan
// other goroutines are reading — panic instead.
func (dp *detPass) miss() {
	if !dp.owned {
		panic("core: transition memo miss on a borrowed automaton (internal invariant violated)")
	}
}

// --- evaluation ---

// runProgram runs the row program once (one lane) under the event
// probabilities p and returns the root block, taken from st's arena.
func (pl *Plan) runProgram(st *evalState, prog *rowProgram, p logic.Prob) []float64 {
	st.one[0] = p
	pe := pl.fillLaneWeights(st, st.one[:])
	st.one[0] = nil
	return pl.runBatchProg(st, prog, pe, 1)
}

// rootVec evaluates the plan under p and extracts the root-table probability
// of every state set in keys into out (0 for a set with no root row). Safe
// for concurrent calls, like Probability.
func (pl *Plan) rootVec(p logic.Prob, keys []int32, out []float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	prog := pl.prog
	st := pl.getState()
	defer pl.putState(st)
	root := pl.runProgram(st, prog, p)
	for i, set := range keys {
		if r, ok := prog.rootRow[set]; ok {
			out[i] = root[r]
		} else {
			out[i] = 0
		}
	}
	st.arena.Put(root)
	return nil
}

func (pl *Plan) eval(p logic.Prob, emitLineage bool) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prog := pl.prog
	st := pl.getState()
	defer pl.putState(st)

	res := &Result{Width: pl.width, NiceNodes: len(pl.nodes)}
	root := pl.runProgram(st, prog, p)
	for i, set := range prog.rootSets {
		res.TotalMass += root[i]
		if pl.accept[set] {
			res.Probability += root[i]
		}
	}
	st.arena.Put(root)
	if massDrifted(res.TotalMass) {
		return nil, errMassDrift(res.TotalMass)
	}
	if emitLineage {
		res.Lineage, res.Root = pl.lineage(prog)
	}
	// Clamp floating noise.
	if res.Probability < 0 {
		res.Probability = 0
	}
	if res.Probability > 1 {
		res.Probability = 1
	}
	return res, nil
}

// --- bit and position helpers ---

// countEvents returns the number of event vertices (ids at or above nDom)
// in a sorted bag.
func countEvents(bag []int, nDom int) int {
	i, _ := slices.BinarySearch(bag, nDom)
	return len(bag) - i
}

// eventPosition locates the bit position of event vertex v among the event
// vertices of a sorted bag; when inserting, it returns the position the bit
// will occupy.
func eventPosition(bag []int, nDom, v int, inserting bool) int {
	lo, _ := slices.BinarySearch(bag, nDom)
	i, found := slices.BinarySearch(bag, v)
	if !inserting && !found {
		panic("core: event vertex not in bag")
	}
	return i - lo
}

func insertBit(bits uint64, pos int, value bool) uint64 {
	low := bits & ((1 << uint(pos)) - 1)
	high := bits >> uint(pos)
	out := low | high<<uint(pos+1)
	if value {
		out |= 1 << uint(pos)
	}
	return out
}

func removeBit(bits uint64, pos int) uint64 {
	low := bits & ((1 << uint(pos)) - 1)
	high := bits >> uint(pos+1)
	return low | high<<uint(pos)
}

// sortInt32 sorts small id slices in place; insertion sort beats the
// allocation and indirection of sort.Slice at these sizes.
func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// sortDedupInt32 sorts xs and removes duplicates in place.
func sortDedupInt32(xs []int32) []int32 {
	sortInt32(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
