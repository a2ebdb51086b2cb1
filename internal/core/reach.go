package core

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/pdb"
	"repro/internal/rel"
)

// ReachQuery compiles the Boolean query "constants Source and Target are
// connected by a path of Edge facts (undirected)" into a bag automaton.
// Connectivity is MSO-expressible but not a conjunctive query (paths are
// unbounded), so this query exercises the part of Theorems 1 and 2 that
// goes beyond CQs: any query compiled to an automaton is tractable on
// bounded-treewidth uncertain instances.
//
// States track a partition of some "active" bag members, named by their
// colours, into blocks — connected components of the edges the run has
// committed to — with two persistent flags per block recording whether the
// component has absorbed Source or Target. A run dies when a block loses its
// last bag member before connecting Source to Target; it reaches the
// absorbing accepting state the moment a block holds both flags. An edge
// fact's signature is its endpoint colours plus which endpoints are Source
// or Target, so the state space depends only on the width.
type ReachQuery struct {
	Edge           string // edge relation name, e.g. "E"
	Source, Target string // constants

	sigs   []reachSig
	sigIDs map[reachSig]int
}

// reachSig is the signature of a fact: the colours of an edge's endpoints
// and whether an endpoint is Source or Target, or a < 0 for a fact that is
// no edge.
type reachSig struct {
	a, b                 int
	hasSource, hasTarget bool
}

// NewReachQuery compiles the connectivity query. Like every Query it is
// instance-independent: facts reach it only through FactSignature.
func NewReachQuery(edge, source, target string) *ReachQuery {
	return &ReachQuery{Edge: edge, Source: source, Target: target, sigIDs: map[reachSig]int{}}
}

// FactSignature implements Query: an Edge fact is addressed by its endpoint
// colours and Source/Target flags, every other fact by the one inert
// signature.
func (q *ReachQuery) FactSignature(f rel.Fact, argColours []int) int {
	sig := reachSig{a: -1, b: -1}
	if f.Rel == q.Edge && len(f.Args) == 2 {
		sig = reachSig{
			a: argColours[0], b: argColours[1],
			hasSource: f.Args[0] == q.Source || f.Args[1] == q.Source,
			hasTarget: f.Args[0] == q.Target || f.Args[1] == q.Target,
		}
	}
	if id, ok := q.sigIDs[sig]; ok {
		return id
	}
	id := len(q.sigs)
	q.sigs = append(q.sigs, sig)
	q.sigIDs[sig] = id
	return id
}

const reachDone = "D"

type reachState struct {
	elems []int // sorted colours of the active bag members
	block []int // block[i] = canonical block id of elems[i]
	hasS  []bool
	hasT  []bool // indexed by block id
}

func (q *ReachQuery) encode(s reachState) string {
	// Canonicalize block ids by first appearance over sorted elements.
	remap := map[int]int{}
	next := 0
	var sb strings.Builder
	for i, e := range s.elems {
		b := s.block[i]
		if _, ok := remap[b]; !ok {
			remap[b] = next
			next++
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(e))
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(remap[b]))
	}
	sb.WriteByte('#')
	flags := make([]byte, 2*next)
	for old, id := range remap {
		flags[2*id] = '0'
		flags[2*id+1] = '0'
		if s.hasS[old] {
			flags[2*id] = '1'
		}
		if s.hasT[old] {
			flags[2*id+1] = '1'
		}
	}
	sb.Write(flags)
	return sb.String()
}

func (q *ReachQuery) decode(key string) reachState {
	hash := strings.IndexByte(key, '#')
	var s reachState
	if hash > 0 {
		for _, part := range strings.Split(key[:hash], ",") {
			colon := strings.IndexByte(part, ':')
			e, _ := strconv.Atoi(part[:colon])
			b, _ := strconv.Atoi(part[colon+1:])
			s.elems = append(s.elems, e)
			s.block = append(s.block, b)
		}
	}
	flags := key[hash+1:]
	nb := len(flags) / 2
	s.hasS = make([]bool, nb)
	s.hasT = make([]bool, nb)
	for b := 0; b < nb; b++ {
		s.hasS[b] = flags[2*b] == '1'
		s.hasT[b] = flags[2*b+1] == '1'
	}
	return s
}

// Start returns the empty-partition state, or the accepting state when the
// source and target constants coincide (the empty path connects them).
func (q *ReachQuery) Start() []string {
	if q.Source == q.Target {
		return []string{reachDone}
	}
	return []string{q.encode(reachState{})}
}

// Introduce keeps the state unchanged: blocks are only created by edges.
func (q *ReachQuery) Introduce(st string, _ int) []string {
	return []string{st}
}

// Forget removes the member of colour v from its block if active. A block
// that loses its last bag member can never grow again (every future edge
// touches only current or future bag elements), so the run dies: either the
// component was sealed without connecting Source to Target, or the guess was
// useless.
func (q *ReachQuery) Forget(st string, v int) []string {
	if st == reachDone {
		return []string{reachDone}
	}
	s := q.decode(st)
	idx := -1
	for i, e := range s.elems {
		if e == v {
			idx = i
			break
		}
	}
	if idx < 0 {
		return []string{st}
	}
	b := s.block[idx]
	survivors := 0
	for i, bb := range s.block {
		if i != idx && bb == b {
			survivors++
		}
	}
	if survivors == 0 {
		return nil // sealed block: dead run
	}
	ns := reachState{hasS: s.hasS, hasT: s.hasT}
	for i := range s.elems {
		if i == idx {
			continue
		}
		ns.elems = append(ns.elems, s.elems[i])
		ns.block = append(ns.block, s.block[i])
	}
	return []string{q.encode(ns)}
}

// Join merges the component structures of two sibling runs by unioning
// blocks that share an active member (the sibling bags are equal, so a
// colour names the same element on both sides).
func (q *ReachQuery) Join(a, b string) (string, bool) {
	if a == reachDone || b == reachDone {
		return reachDone, true
	}
	sa, sb := q.decode(a), q.decode(b)
	nl := len(sa.hasS)
	// Union-find over left blocks (0..nl-1) and right blocks (nl..).
	parent := make([]int, nl+len(sb.hasS))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) { parent[find(x)] = find(y) }

	leftBlockOf := map[int]int{}
	for i, e := range sa.elems {
		leftBlockOf[e] = sa.block[i]
	}
	rightBlockOf := map[int]int{}
	for i, e := range sb.elems {
		rightBlockOf[e] = sb.block[i]
	}
	for e, lb := range leftBlockOf {
		if rb, ok := rightBlockOf[e]; ok {
			union(lb, nl+rb)
		}
	}
	// Collect merged blocks and flags.
	rootID := map[int]int{}
	var hasS, hasT []bool
	blockID := func(node int) int {
		r := find(node)
		if id, ok := rootID[r]; ok {
			return id
		}
		id := len(hasS)
		rootID[r] = id
		hasS = append(hasS, false)
		hasT = append(hasT, false)
		return id
	}
	for b := 0; b < nl; b++ {
		id := blockID(b)
		hasS[id] = hasS[id] || sa.hasS[b]
		hasT[id] = hasT[id] || sa.hasT[b]
	}
	for b := range sb.hasS {
		id := blockID(nl + b)
		hasS[id] = hasS[id] || sb.hasS[b]
		hasT[id] = hasT[id] || sb.hasT[b]
	}
	elemSet := map[int]int{}
	for e, lb := range leftBlockOf {
		elemSet[e] = blockID(lb)
	}
	for e, rb := range rightBlockOf {
		elemSet[e] = blockID(nl + rb)
	}
	ns := reachState{hasS: hasS, hasT: hasT}
	for _, e := range sortedIntKeys(elemSet) {
		ns.elems = append(ns.elems, e)
		ns.block = append(ns.block, elemSet[e])
	}
	for b := range hasS {
		if hasS[b] && hasT[b] {
			return reachDone, true
		}
	}
	return q.encode(ns), true
}

// FactTransitions commits to an edge of signature sig: it activates or
// merges the blocks of its endpoints. At most one successor exists per
// state.
func (q *ReachQuery) FactTransitions(st string, sig int) []string {
	if st == reachDone {
		return nil
	}
	fs := q.sigs[sig]
	if fs.a < 0 {
		return nil
	}
	a, b := fs.a, fs.b
	s := q.decode(st)
	blockOf := map[int]int{}
	for i, e := range s.elems {
		blockOf[e] = s.block[i]
	}
	ba, aActive := blockOf[a]
	bb, bActive := blockOf[b]
	ns := reachState{
		elems: append([]int(nil), s.elems...),
		block: append([]int(nil), s.block...),
		hasS:  append([]bool(nil), s.hasS...),
		hasT:  append([]bool(nil), s.hasT...),
	}
	var target int
	switch {
	case aActive && bActive:
		if ba == bb {
			return nil // already together: identity suffices
		}
		// Merge bb into ba.
		for i := range ns.block {
			if ns.block[i] == bb {
				ns.block[i] = ba
			}
		}
		ns.hasS[ba] = ns.hasS[ba] || ns.hasS[bb]
		ns.hasT[ba] = ns.hasT[ba] || ns.hasT[bb]
		target = ba
	case aActive:
		ns.elems, ns.block = insertElem(ns.elems, ns.block, b, ba)
		target = ba
	case bActive:
		ns.elems, ns.block = insertElem(ns.elems, ns.block, a, bb)
		target = bb
	default:
		id := len(ns.hasS)
		ns.hasS = append(ns.hasS, false)
		ns.hasT = append(ns.hasT, false)
		ns.elems, ns.block = insertElem(ns.elems, ns.block, a, id)
		if b != a {
			ns.elems, ns.block = insertElem(ns.elems, ns.block, b, id)
		}
		target = id
	}
	// Absorb the source/target flags carried by the endpoints themselves.
	if fs.hasSource {
		ns.hasS[target] = true
	}
	if fs.hasTarget {
		ns.hasT[target] = true
	}
	if ns.hasS[target] && ns.hasT[target] {
		return []string{reachDone}
	}
	return []string{q.encode(ns)}
}

// Accept holds only in the absorbing connected state.
func (q *ReachQuery) Accept(st string) bool { return st == reachDone }

// PruneKey implements SetPruner: a set holding the absorbing connected
// state collapses to it, since once some run has connected Source and
// Target the remaining runs cannot change acceptance. Every other state has
// the same class and mask, so none dominates another.
func (q *ReachQuery) PruneKey(st string) (class string, mask uint32, collapse string) {
	if st == reachDone {
		return "", 0, reachDone
	}
	return "", 0, ""
}

func insertElem(elems, block []int, e, b int) ([]int, []int) {
	i := sort.SearchInts(elems, e)
	elems = append(elems, 0)
	copy(elems[i+1:], elems[i:])
	elems[i] = e
	block = append(block, 0)
	copy(block[i+1:], block[i:])
	block[i] = b
	return elems, block
}

func sortedIntKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// ReachProbabilityTID computes the probability that source and target are
// connected in a TID of Edge facts — an MSO query evaluated by the
// Theorem 1 algorithm.
func ReachProbabilityTID(t *pdb.TID, edge, source, target string, opts Options) (*Result, error) {
	c, p := t.ToCInstance()
	return EvaluatePC(c, p, NewReachQuery(edge, source, target), opts)
}
