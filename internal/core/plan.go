package core

import (
	"fmt"
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
// program, the interned states and sets, and the set-level transition memos
// that later per-node compiles (Materialize, attach recommits) look up.
//
// # Concurrency
//
// All per-evaluation state (weight buffers, row blocks) lives in pooled
// evaluation states, so a plan is read-only under evaluation and any number
// of goroutines may evaluate it concurrently once it is sealed by
// (*Plan).Freeze (see also Serve). The one structural mutation left is
// attachFact, which Materialized.StageAttach runs on an unfrozen plan
// confined to one goroutine; Freeze forbids it from then on.
//
//pdblint:frozen
type Plan struct {
	q           Query
	emitLineage bool

	events []logic.Event
	nDom   int
	width  int
	nodes  []planNode
	post   []int
	root   int

	// Structure retained for the incremental layer (Materialize, attachFact)
	// and for shape reporting: the nice decomposition the nodes were compiled
	// from, the domain index of the prepared instance and its colouring,
	// per-node parents, the forget node applying each event's weight, and the
	// event→index map.
	nice      *treedec.Nice
	di        *rel.DomainIndex
	colour    []int // colour of every domain vertex (treedec.Nice.Colour): what the automaton reads
	parents   []int
	forgetAt  []int
	eventIdx  map[logic.Event]int
	structGen uint64 // bumped by attachFact; Materialized views check it

	startSet int32

	states stateInterner
	sets   setInterner
	accept []bool // accept[setID]: does the set contain an accepting state?

	// Set-level determinization memos, written only by structural passes
	// (Prepare's, and a Materialized commit's per-node recompiles). Keys are
	// integers: the query's string states are touched only on the first
	// encounter of a state or set. Transitions are addressed by colour and
	// fact signature, never by vertex or fact, so the memos depend only on
	// the query and the width: after the first few bags almost every lookup
	// hits. Prepare's pass visits every transition the plan's structure can
	// reach, so on a frozen plan every lookup hits and the memos are never
	// written again.
	setTrans   map[uint64]int32   // transKey(op, operand, set) -> successor set
	joinCache  map[uint64]int32   // (left set, right set) -> joined set
	stepCache  map[uint64][]int32 // transKey(op, operand, state) -> successor states
	pruneCache map[string]int32   // unpruned set's key image -> pruned set

	// frozen seals the plan for concurrent use; set by Freeze before the
	// plan is shared across goroutines.
	frozen bool

	// prog is the compiled row program (see rowprog.go), built by Prepare.
	// attachFact drops it; the next evaluation on that (unfrozen,
	// single-goroutine) plan recompiles it.
	prog *rowProgram

	// evalPool recycles per-evaluation state (weight buffers, row blocks);
	// each Probability/ProbabilityBatch/Result call checks one out, so
	// concurrent evaluations never share scratch.
	evalPool sync.Pool
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

// stateInterner assigns dense int32 ids to automaton state strings.
type stateInterner struct {
	ids  map[string]int32
	strs []string
}

func (si *stateInterner) id(s string) int32 {
	if id, ok := si.ids[s]; ok {
		return id
	}
	id := int32(len(si.strs))
	si.strs = append(si.strs, s)
	si.ids[s] = id
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

	// Event valuations are tracked in a 64-bit mask per table row.
	for _, nd := range nice.Nodes {
		if evs := countEvents(nd.Bag, nDom); evs > 60 {
			return nil, fmt.Errorf("core: a bag holds %d events; the joint width is too large for exact evaluation", evs)
		}
	}

	pl := &Plan{
		q:           q,
		emitLineage: opts.EmitLineage,
		events:      j.events,
		nDom:        nDom,
		width:       d.Width(),
		post:        nice.PostOrder(),
		root:        nice.Root,
		states:      stateInterner{ids: map[string]int32{}},
		sets:        setInterner{ids: map[string]int32{}},
		setTrans:    map[uint64]int32{},
		joinCache:   map[uint64]int32{},
		stepCache:   map[uint64][]int32{},
		pruneCache:  map[string]int32{},
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
	pl.nice = nice
	pl.di = di
	pl.colour = colour
	pl.eventIdx = j.eventIdx
	pl.homeFacts(c, j, assign)
	pl.rebuildTopology()
	dp := newDetPass(pl)
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

// rebuildTopology derives the parent pointers and the per-event forget-node
// index from the compiled nodes. Called by Prepare and again after attachFact
// splices new nodes in.
func (pl *Plan) rebuildTopology() {
	pl.parents = make([]int, len(pl.nodes))
	for i := range pl.parents {
		pl.parents[i] = -1
	}
	pl.forgetAt = make([]int, len(pl.events))
	for i := range pl.forgetAt {
		pl.forgetAt[i] = -1
	}
	for t := range pl.nodes {
		nd := &pl.nodes[t]
		if nd.child0 >= 0 {
			pl.parents[nd.child0] = t
		}
		if nd.child1 >= 0 {
			pl.parents[nd.child1] = t
		}
		if nd.kind == treedec.NiceForget && nd.isEvent {
			pl.forgetAt[nd.eventIdx] = t
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

// Shape returns the structural statistics of the plan's nice decomposition.
// Depth bounds the per-update cost of a Materialized view: a single event
// change recomputes at most depth+1 node tables.
func (pl *Plan) Shape() treedec.Stats { return pl.nice.Stats() }

// Probability evaluates the plan under the event probabilities p and
// returns the exact query probability: one run of the compiled row program.
// Safe for concurrent calls once the plan is frozen (see Freeze).
//
//pdblint:frozenentry
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
// Result. Safe for concurrent calls once the plan is frozen (see Freeze).
//
//pdblint:frozenentry
func (pl *Plan) Result(p logic.Prob) (*Result, error) {
	return pl.eval(p, pl.emitLineage)
}

// Freeze seals the plan for concurrent Probability / ProbabilityBatch /
// Result calls from any number of goroutines. Prepare already compiled
// everything an evaluation reads, so sealing only forbids the one remaining
// structural mutation (attaching facts, see CanAttach). Freeze is idempotent
// but must itself be called from a single goroutine, before the plan is
// shared.
func (pl *Plan) Freeze() error {
	pl.program() // an attach may have dropped the program
	pl.frozen = true
	return nil
}

// Frozen reports whether the plan has been sealed for concurrent use.
func (pl *Plan) Frozen() bool { return pl.frozen }

// program returns the plan's row program, recompiling it when attachFact
// dropped it. Only unfrozen plans, confined to one goroutine, can lack one.
//
//pdblint:mutates recompiles only after attachFact, which frozen plans refuse
func (pl *Plan) program() *rowProgram {
	if pl.prog == nil {
		pl.prog = newDetPass(pl).compileProgram()
	}
	return pl.prog
}

// --- the structural pass ---

// detPass is the scratch of one structural pass over a plan: the subset
// construction of the determinized automaton and the row compiler share it,
// and it is dropped when the pass ends, so the plan keeps nothing
// pair-level. Prepare runs one pass over every node; a Materialized commit
// that recompiles node programs runs its own.
//
// The plan's set-level memos are consulted first; below a memo miss the
// pass runs on flat arrays: a mark array indexed by state id and an
// open-addressing pair table.
type detPass struct {
	pl *Plan

	// pairs memoizes the Join of state pairs for the whole pass.
	pairs pairMemo

	// mark[s] == gen when state s is already among the successors being
	// collected (collect), so duplicate successors are dropped before the
	// survivors are sorted.
	mark []uint64
	gen  uint64

	ids    []int32  // successor collection buffer
	keyBuf []byte   // set key image (sets.ids, pruneCache)
	strs   []string // state strings of a set being pruned

	// compileNodeProg's scratch, reused across nodes: the row index of the
	// node being compiled and its layout under construction, and a join's
	// right rows chained by bits (runs maps bits to the first row of its
	// chain, runNext links each row to the next).
	rows    rowTable
	keys    []rowKey
	runs    rowTable
	runNext []int32

	join   func(a, b string) (string, bool) // the query's Join, unmemoized when it can be
	pruner bool                             // the query implements SetPruner
}

// pairMemo is a flat open-addressing hash table from a state pair to the
// Join of the two states: linear probing over two parallel arrays, one
// multiply and usually one probe per lookup. The state count depends only
// on the query and the width, but it is exponential in both, so a
// state×state matrix could still dwarf the pairs a plan actually meets;
// this table grows with those pairs.
type pairMemo struct {
	keys  []uint64 // pair key + 1; 0 marks an empty slot
	vals  []int32  // merged state, -1 when the pair does not merge
	n     int
	shift uint8 // 64 - log2(len(keys))
}

// find returns the slot of key: where it is stored, or where it would be
// inserted.
func (pm *pairMemo) find(key uint64) (int, bool) {
	if pm.keys == nil {
		pm.keys, pm.vals, pm.shift = make([]uint64, 1024), make([]int32, 1024), 64-10
	}
	mask := len(pm.keys) - 1
	for i := int(key * 0x9E3779B97F4A7C15 >> pm.shift); ; i = (i + 1) & mask {
		switch pm.keys[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// insert stores key → v in the empty slot i that find returned, doubling the
// table once it is half full.
func (pm *pairMemo) insert(i int, key uint64, v int32) {
	pm.keys[i], pm.vals[i] = key, v
	if pm.n++; 2*pm.n <= len(pm.keys) {
		return
	}
	keys, vals := pm.keys, pm.vals
	pm.keys, pm.vals = make([]uint64, 2*len(keys)), make([]int32, 2*len(keys))
	pm.shift--
	for j, k := range keys {
		if k != 0 {
			s, _ := pm.find(k)
			pm.keys[s], pm.vals[s] = k, vals[j]
		}
	}
}

func newDetPass(pl *Plan) *detPass {
	dp := &detPass{pl: pl, join: pl.q.Join}
	if dj, ok := pl.q.(directJoiner); ok {
		dp.join = dj.JoinDirect
	}
	_, dp.pruner = pl.q.(SetPruner)
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
		dp.mark = grow(dp.mark, max(int(s)+1, len(dp.pl.states.strs)))
	}
	if dp.mark[s] != dp.gen {
		dp.mark[s] = dp.gen
		dp.ids = append(dp.ids, s)
	}
}

// internStrings interns a deduplicated state-string set (as produced by
// detStep or a SetPruner) and returns its set id. Sets are canonicalized by
// sorting their interned state ids, so any permutation of the same strings
// interns to the same id.
//
//pdblint:mutates set interning runs only on memo misses, which frozen plans never take (missUnlessUnfrozen)
func (dp *detPass) internStrings(states []string) int32 {
	ids := dp.ids[:0]
	for _, s := range states {
		ids = append(ids, dp.pl.states.id(s))
	}
	dp.ids = ids
	sortInt32(ids)
	return dp.internIDs(ids)
}

// setKey writes the little-endian byte image of a sorted state-id set into
// the pass's key buffer: the key of sets.ids and pruneCache.
func (dp *detPass) setKey(ids []int32) []byte {
	buf := dp.keyBuf[:0]
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	dp.keyBuf = buf
	return buf
}

// internIDs interns a sorted, deduplicated state-id set directly.
//
//pdblint:mutates set interning runs only on memo misses, which frozen plans never take (missUnlessUnfrozen)
func (dp *detPass) internIDs(ids []int32) int32 {
	pl := dp.pl
	key := dp.setKey(ids)
	if id, ok := pl.sets.ids[string(key)]; ok {
		return id
	}
	id := int32(len(pl.sets.members))
	pl.sets.members = append(pl.sets.members, append([]int32(nil), ids...))
	pl.sets.ids[string(key)] = id
	acc := false
	for _, sid := range ids {
		if pl.q.Accept(pl.states.strs[sid]) {
			acc = true
			break
		}
	}
	pl.accept = append(pl.accept, acc)
	return id
}

// setStrings materializes a set's member state strings into the given
// scratch buffer.
func (pl *Plan) setStrings(set int32, buf []string) []string {
	out := buf[:0]
	for _, id := range pl.sets.members[set] {
		out = append(out, pl.states.strs[id])
	}
	return out
}

// internCollected interns the collected successor list as a set: the
// survivors of the mark dedup are sorted into canonical order, pruned by the
// query's SetPruner (if any), and interned. Unpruned sets are never interned:
// the prune memo is keyed by their byte image, and each distinct one is
// pruned at most once.
//
//pdblint:mutates memo fill on miss; misses panic on frozen plans (missUnlessUnfrozen)
func (dp *detPass) internCollected() int32 {
	ids := dp.ids
	sortInt32(ids)
	if !dp.pruner {
		return dp.internIDs(ids)
	}
	pl := dp.pl
	key := dp.setKey(ids)
	if r, ok := pl.pruneCache[string(key)]; ok {
		return r
	}
	pl.missUnlessUnfrozen()
	rawKey := string(key)
	dp.strs = dp.strs[:0]
	for _, id := range ids {
		dp.strs = append(dp.strs, pl.states.strs[id])
	}
	r := dp.internStrings(prune(pl.q, dp.strs))
	pl.pruneCache[rawKey] = r
	return r
}

// stepStates returns the successor state ids of a single state under the
// given operation, computing them from the string-level Query interface on
// first use only. Fact steps include the implicit identity transition.
//
//pdblint:mutates memo fill on miss; misses panic on frozen plans (missUnlessUnfrozen)
func (dp *detPass) stepStates(op uint8, arg int, state int32) []int32 {
	pl := dp.pl
	k := transKey(op, arg, state)
	if succs, ok := pl.stepCache[k]; ok {
		return succs
	}
	pl.missUnlessUnfrozen()
	st := pl.states.strs[state]
	var out []string
	switch op {
	case opIntroduce:
		out = pl.q.Introduce(st, arg)
	case opForget:
		out = pl.q.Forget(st, arg)
	case opFact:
		out = append(pl.q.FactTransitions(st, arg), st)
	}
	succs := make([]int32, 0, len(out))
	for _, s := range out {
		succs = append(succs, pl.states.id(s))
	}
	pl.stepCache[k] = succs
	return succs
}

// stepSet is the subset construction over interned sets: the successor of a
// set is the pruned union of its members' successors. Results are memoized
// per (operation, operand, set).
//
//pdblint:mutates memo fill on miss; misses panic on frozen plans (missUnlessUnfrozen)
func (dp *detPass) stepSet(op uint8, arg int, set int32) int32 {
	pl := dp.pl
	k := transKey(op, arg, set)
	if r, ok := pl.setTrans[k]; ok {
		return r
	}
	pl.missUnlessUnfrozen()
	dp.begin()
	for _, sid := range pl.sets.members[set] {
		for _, s := range dp.stepStates(op, arg, sid) {
			dp.collect(s)
		}
	}
	r := dp.internCollected()
	pl.setTrans[k] = r
	return r
}

// directJoiner is an optional Query extension: a Join entry point without
// internal memoization, for engines (like Plan) that already memoize join
// results per state pair and would only churn the query's own memo.
type directJoiner interface {
	JoinDirect(a, b string) (merged string, ok bool)
}

// joinSets merges two interned sets across a join node: every pair of
// member states is merged through the query's Join, behind the pass's pair
// table, so each state pair reaches the string interface at most once per
// pass. Results are memoized per set pair.
//
//pdblint:mutates memo fill on miss; misses panic on frozen plans (missUnlessUnfrozen)
func (dp *detPass) joinSets(a, b int32) int32 {
	pl := dp.pl
	k := uint64(uint32(a))<<32 | uint64(uint32(b))
	if r, ok := pl.joinCache[k]; ok {
		return r
	}
	pl.missUnlessUnfrozen()
	dp.begin()
	for _, ia := range pl.sets.members[a] {
		for _, ib := range pl.sets.members[b] {
			pk := uint64(uint32(ia))<<32 | uint64(uint32(ib)) + 1
			i, ok := dp.pairs.find(pk)
			m := dp.pairs.vals[i]
			if !ok {
				m = -1
				if merged, okJoin := dp.join(pl.states.strs[ia], pl.states.strs[ib]); okJoin {
					m = pl.states.id(merged)
				}
				dp.pairs.insert(i, pk, m)
			}
			if m >= 0 {
				dp.collect(m)
			}
		}
	}
	r := dp.internCollected()
	pl.joinCache[k] = r
	return r
}

// missUnlessUnfrozen asserts that a memo miss is legal: misses cannot occur
// on a frozen plan (Prepare's pass visited every reachable transition), so
// hitting one means the plan was mutated or an internal invariant broke —
// panic rather than race on the sealed memos.
func (pl *Plan) missUnlessUnfrozen() {
	if pl.frozen {
		panic("core: transition memo miss on a frozen Plan (internal invariant violated)")
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
// for concurrent calls once the plan is frozen, like Probability.
func (pl *Plan) rootVec(p logic.Prob, keys []int32, out []float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	prog := pl.program()
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
	prog := pl.program()
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

// --- incremental structure growth ---

// findAttach locates the node a new fact with the given arguments can be
// absorbed at: the shallowest nice node whose bag contains every argument
// vertex. It reports an error when the fact cannot be absorbed — an argument
// outside the prepared domain, no covering bag, or a bag already at the
// event-bit budget.
func (pl *Plan) findAttach(f rel.Fact) (node int, err error) {
	scope := make([]int, 0, len(f.Args))
	seen := make(map[int]struct{}, len(f.Args))
	for _, a := range f.Args {
		v, ok := pl.di.ByName[a]
		if !ok {
			return -1, fmt.Errorf("core: constant %q of fact %s is outside the prepared domain", a, f)
		}
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			scope = append(scope, v)
		}
	}
	t := pl.nice.AttachPoint(scope)
	if t < 0 {
		return -1, fmt.Errorf("core: no bag of the decomposition covers the arguments of %s", f)
	}
	if countEvents(pl.nice.Nodes[t].Bag, pl.nDom) >= 60 {
		return -1, fmt.Errorf("core: the covering bag of %s is at the event-bit budget", f)
	}
	return t, nil
}

// CanAttach reports whether attachFact would succeed for a fact with the
// given arguments: the plan is unfrozen and some bag covers the arguments.
// The pre-flight check incr.Store runs before committing to the in-place
// insertion path.
func (pl *Plan) CanAttach(f rel.Fact) bool {
	if pl.frozen {
		return false
	}
	_, err := pl.findAttach(f)
	return err == nil
}

// attachFact splices fact f — newly appended to the plan's instance by the
// caller — into the compiled structure: a fresh event e is introduced and
// immediately forgotten above the shallowest bag covering the fact's
// arguments, and the fact is homed at the introduce node with annotation e.
// The covering bag already coloured the arguments, so the fact reaches the
// query through its signature like every prepared fact.
// Because the event pair is local, every other node's bag, bit layout and
// table are untouched; only the spliced nodes and their root path need
// recomputation (the caller — Materialized.StageAttach — marks them dirty).
// The plan-level row program is dropped; the next plan evaluation
// recompiles it.
//
// Attaching to a frozen plan is an error: it would grow the sealed
// transition memos.
func (pl *Plan) attachFact(f rel.Fact, e logic.Event) (intro, forget int, err error) {
	if pl.frozen {
		return 0, 0, fmt.Errorf("core: cannot attach a fact to a frozen plan")
	}
	if _, dup := pl.eventIdx[e]; dup {
		return 0, 0, fmt.Errorf("core: event %q is already an event of the plan", e)
	}
	t, err := pl.findAttach(f)
	if err != nil {
		return 0, 0, err
	}

	bag := pl.nice.Nodes[t].Bag
	var colourBuf []int
	sig := factSignature(pl.q, f, pl.di, pl.colour, &colourBuf)
	eventIdx := len(pl.events)
	v := pl.nDom + eventIdx // beyond every existing vertex: domain, then events in order
	pos := countEvents(bag, pl.nDom)
	pl.events = append(pl.events, e)
	pl.eventIdx[e] = eventIdx

	// Splice introduce(v)+forget(v) between t and its parent. The new vertex
	// is the largest, so the introduce bag stays sorted by appending.
	intro = len(pl.nodes)
	forget = intro + 1
	introBag := append(append(make([]int, 0, len(bag)+1), bag...), v)
	pl.nice.Nodes = append(pl.nice.Nodes,
		treedec.NiceNode{Kind: treedec.NiceIntroduce, Vertex: v, Bag: introBag, Children: []int{t}},
		treedec.NiceNode{Kind: treedec.NiceForget, Vertex: v, Bag: append([]int(nil), bag...), Children: []int{intro}},
	)
	pl.nodes = append(pl.nodes,
		planNode{
			kind: treedec.NiceIntroduce, colour: -1, child0: t, child1: -1,
			isEvent: true, pos: pos, eventIdx: -1,
			facts: []planFact{{sig: sig, cf: logic.CompileMask(logic.Var(e), map[logic.Event]int{e: pos})}},
		},
		planNode{
			kind: treedec.NiceForget, colour: -1, child0: intro, child1: -1,
			isEvent: true, pos: pos, eventIdx: eventIdx,
		},
	)
	if parent := pl.parents[t]; parent < 0 {
		pl.nice.Root = forget
		pl.root = forget
	} else {
		pn := &pl.nodes[parent]
		if pn.child0 == t {
			pn.child0 = forget
		} else {
			pn.child1 = forget
		}
		nn := &pl.nice.Nodes[parent]
		for i, c := range nn.Children {
			if c == t {
				nn.Children[i] = forget
			}
		}
	}
	if w := len(introBag) - 1; w > pl.width {
		pl.width = w
	}
	pl.post = pl.nice.PostOrder()
	pl.rebuildTopology()
	pl.prog = nil
	pl.structGen++
	return intro, forget, nil
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
