package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/rel"
)

// CQQuery compiles a Boolean conjunctive query into a bag automaton
// (the Query interface). A state records, for every query variable, whether
// it is unassigned, assigned to the bag member of some colour, or assigned to
// an element already forgotten; plus the set of atoms already witnessed by a
// fact. A fact is read through its signature: the atoms it can witness, each
// with the colours its variables must carry. This is the "query type" state
// space of Theorem 1: its size depends only on the query and the bag size,
// never on the instance, so one compiled query serves any instance and the
// evaluation is linear in the data.
type CQQuery struct {
	Q      rel.CQ
	vars   []string
	varIdx map[string]int
	atoms  []rel.Atom
	// sigs[id] lists the atoms a fact of signature id can witness, and
	// sigIDs interns signatures by their byte image (see FactSignature).
	sigs   [][]factAtomMatch
	sigIDs map[string]int
	sigKey []byte // FactSignature's key scratch
	colBuf []int  // FactSignature's per-atom variable colours
	// decoded caches key -> state: the engine revisits the same few states
	// at every node, and parsing dominated profiles without it.
	decoded map[string]cqState
	// joined caches Join results by the concatenated pair key, for the
	// same reason.
	joined map[string]joinResult
	// pruneBuf is PruneSet's reusable decoded-state scratch.
	pruneBuf []cqState
}

type joinResult struct {
	merged string
	ok     bool
}

type factAtomMatch struct {
	atom int
	// varColour[v] = the colour the query variable with index v must be
	// assigned to, or -1 when the variable does not occur in the atom.
	varColour []int
}

const (
	cqUnassigned = -1
	cqForgotten  = -2
)

// cqDone is the absorbing accepting state: once every atom is witnessed,
// the run's assignments no longer matter. Collapsing to it keeps the
// determinized state sets small.
const cqDone = "D"

// maxCQAtoms bounds the atoms of a compiled CQ: a state's witness mask is
// one uint32, and Accept compares it against the full mask.
const maxCQAtoms = 30

// ErrTooManyAtoms reports a conjunctive query with more atoms than the CQ
// automaton's witness mask holds. Test for it with errors.Is.
var ErrTooManyAtoms = errors.New("core: CQ has too many atoms for the automaton's witness mask")

// NewCQQuery compiles q into its bag automaton. The automaton is
// instance-independent: facts reach it only through FactSignature. A query
// with more than 30 atoms is rejected with an error wrapping
// ErrTooManyAtoms.
func NewCQQuery(q rel.CQ) (*CQQuery, error) {
	if len(q.Atoms) > maxCQAtoms {
		return nil, fmt.Errorf("%w: %d atoms, at most %d", ErrTooManyAtoms, len(q.Atoms), maxCQAtoms)
	}
	c := &CQQuery{
		Q: q, vars: q.Vars(), atoms: q.Atoms,
		sigIDs:  map[string]int{},
		decoded: map[string]cqState{},
		joined:  map[string]joinResult{},
	}
	c.varIdx = make(map[string]int, len(c.vars))
	for i, v := range c.vars {
		c.varIdx[v] = i
	}
	c.colBuf = make([]int, len(c.vars))
	return c, nil
}

// FactSignature implements Query: a fact's signature is the list of atoms it
// is compatible with (same relation and arity, equal constants, repeated
// variables on equal arguments), each with the argument colours its
// variables must be assigned to. Two facts agreeing on that list have the
// same transitions from every state, whatever elements they name.
func (c *CQQuery) FactSignature(f rel.Fact, argColours []int) int {
	key := c.sigKey[:0]
	for ai := range c.atoms {
		if c.matchAtom(ai, f, argColours) {
			key = binary.AppendUvarint(key, uint64(ai))
			for _, col := range c.colBuf {
				key = binary.AppendUvarint(key, uint64(col+1))
			}
		}
	}
	c.sigKey = key
	if id, ok := c.sigIDs[string(key)]; ok {
		return id
	}
	var matches []factAtomMatch
	for ai := range c.atoms {
		if c.matchAtom(ai, f, argColours) {
			matches = append(matches, factAtomMatch{atom: ai, varColour: slices.Clone(c.colBuf)})
		}
	}
	id := len(c.sigs)
	c.sigs = append(c.sigs, matches)
	c.sigIDs[string(key)] = id
	return id
}

// matchAtom reports whether fact f is compatible with atom ai and, if so,
// leaves in colBuf the colour each query variable of the atom must carry (-1
// for variables outside the atom). The fact's arguments share a bag, where
// colours are distinct, so equal colours mean equal arguments.
func (c *CQQuery) matchAtom(ai int, f rel.Fact, argColours []int) bool {
	atom := c.atoms[ai]
	if atom.Rel != f.Rel || len(atom.Terms) != len(f.Args) {
		return false
	}
	for i := range c.colBuf {
		c.colBuf[i] = -1
	}
	for pos, t := range atom.Terms {
		if !t.IsVar {
			if t.Name != f.Args[pos] {
				return false
			}
			continue
		}
		vi := c.varIdx[t.Name]
		if col := c.colBuf[vi]; col >= 0 && col != argColours[pos] {
			return false // repeated variable bound to two distinct args
		}
		c.colBuf[vi] = argColours[pos]
	}
	return true
}

// cqState is the decoded form of a state key.
type cqState struct {
	assign []int // per variable: cqUnassigned, cqForgotten, or a colour
	mask   uint32
}

func (c *CQQuery) encode(s cqState) string {
	var sb strings.Builder
	sb.Grow(4*len(s.assign) + 8)
	for i, a := range s.assign {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(a))
	}
	sb.WriteByte('#')
	sb.WriteString(strconv.FormatUint(uint64(s.mask), 16))
	return sb.String()
}

func (c *CQQuery) decode(key string) cqState {
	if s, ok := c.decoded[key]; ok {
		return s
	}
	s := c.decodeSlow(key)
	c.decoded[key] = s
	return s
}

func (c *CQQuery) decodeSlow(key string) cqState {
	hash := strings.IndexByte(key, '#')
	mask, err := strconv.ParseUint(key[hash+1:], 16, 32)
	if err != nil {
		panic("core: bad cq state key: " + key)
	}
	s := cqState{assign: make([]int, len(c.vars)), mask: uint32(mask)}
	if len(c.vars) > 0 {
		part := key[:hash]
		for i := 0; i < len(s.assign); i++ {
			end := strings.IndexByte(part, ',')
			tok := part
			if end >= 0 {
				tok = part[:end]
				part = part[end+1:]
			} else {
				part = ""
			}
			v, err := strconv.Atoi(tok)
			if err != nil {
				panic("core: bad cq state key: " + key)
			}
			s.assign[i] = v
		}
	}
	return s
}

func (c *CQQuery) fullMask() uint32 { return (1 << uint(len(c.atoms))) - 1 }

// Start returns the single initial state: nothing assigned, no atom
// witnessed.
func (c *CQQuery) Start() []string {
	s := cqState{assign: make([]int, len(c.vars))}
	for i := range s.assign {
		s.assign[i] = cqUnassigned
	}
	return []string{c.encode(s)}
}

// Introduce guesses, for every subset of the currently unassigned
// variables, that they map to the introduced element of colour v.
func (c *CQQuery) Introduce(key string, v int) []string {
	if key == cqDone {
		return []string{cqDone}
	}
	s := c.decode(key)
	var free []int
	for i, a := range s.assign {
		if a == cqUnassigned {
			free = append(free, i)
		}
	}
	out := make([]string, 0, 1<<uint(len(free)))
	for sub := 0; sub < 1<<uint(len(free)); sub++ {
		ns := cqState{assign: append([]int(nil), s.assign...), mask: s.mask}
		for bit, vi := range free {
			if sub&(1<<uint(bit)) != 0 {
				ns.assign[vi] = v
			}
		}
		out = append(out, c.encode(ns))
	}
	return out
}

// Forget marks variables assigned to the element of colour v as forgotten.
// The run dies if an atom mentioning such a variable is still unwitnessed:
// any witnessing fact has that element among its arguments, so its bag
// (which must contain the element) can only lie below this forget node, and
// the chance has passed. A later bag member may reuse colour v; the
// forgotten variables no longer refer to it.
func (c *CQQuery) Forget(key string, v int) []string {
	if key == cqDone {
		return []string{cqDone}
	}
	s := c.decode(key)
	var out []int // lazily copied assignment (decode results are cached)
	for vi, a := range s.assign {
		if a != v {
			continue
		}
		for ai, atom := range c.atoms {
			if s.mask&(1<<uint(ai)) != 0 {
				continue
			}
			if atomUsesVar(atom, c.vars[vi]) {
				return nil // dead run
			}
		}
		if out == nil {
			out = append([]int(nil), s.assign...)
		}
		out[vi] = cqForgotten
	}
	if out == nil {
		return []string{key}
	}
	return []string{c.encode(cqState{assign: out, mask: s.mask})}
}

func atomUsesVar(a rel.Atom, name string) bool {
	for _, t := range a.Terms {
		if t.IsVar && t.Name == name {
			return true
		}
	}
	return false
}

// Join merges sibling runs. Two assignments are compatible when they agree
// wherever both are committed (the sibling bags are equal, so a colour names
// the same element on both sides); "forgotten" clashes with any other
// commitment because the two elements are necessarily distinct (a forgotten
// element never reappears in the sibling branch, by the connectivity of
// occurrences in a tree decomposition).
func (c *CQQuery) Join(ka, kb string) (string, bool) {
	pair := ka + "\x00" + kb
	if r, ok := c.joined[pair]; ok {
		return r.merged, r.ok
	}
	merged, ok := c.joinSlow(ka, kb)
	c.joined[pair] = joinResult{merged, ok}
	return merged, ok
}

// JoinDirect is Join without the internal memo. Compiled plans
// (internal/core Plan) cache join results per interned state pair
// themselves, so each pair reaches the query at most once and the memo's
// key concatenation and map insert are pure overhead on that path.
func (c *CQQuery) JoinDirect(ka, kb string) (string, bool) {
	return c.joinSlow(ka, kb)
}

func (c *CQQuery) joinSlow(ka, kb string) (string, bool) {
	if ka == cqDone || kb == cqDone {
		return cqDone, true
	}
	a, b := c.decode(ka), c.decode(kb)
	// Most pairs clash; merge into a stack buffer so a clash allocates
	// nothing (encode copies the merged assignment into the key).
	var stack [16]int
	m := cqState{assign: stack[:0], mask: a.mask | b.mask}
	if len(c.vars) > len(stack) {
		m.assign = make([]int, len(c.vars))
	}
	m.assign = m.assign[:len(c.vars)]
	for i := range m.assign {
		x, y := a.assign[i], b.assign[i]
		switch {
		case x == y:
			m.assign[i] = x
			if x == cqForgotten {
				return "", false // two distinct forgotten elements
			}
		case x == cqUnassigned:
			m.assign[i] = y
		case y == cqUnassigned:
			m.assign[i] = x
		default:
			return "", false // two distinct commitments
		}
	}
	return c.encode(m), true
}

// FactTransitions witnesses, with a fact of signature sig, every atom whose
// variables are all assigned to the colours the fact's arguments carry.
// Witnessing all matching atoms at once is sound and complete for monotone
// conjunctive queries.
func (c *CQQuery) FactTransitions(key string, sig int) []string {
	if key == cqDone {
		return nil
	}
	matches := c.sigs[sig]
	if len(matches) == 0 {
		return nil
	}
	s := c.decode(key)
	newMask := s.mask
	for _, m := range matches {
		if newMask&(1<<uint(m.atom)) != 0 {
			continue
		}
		ok := true
		for vi, col := range m.varColour {
			if col >= 0 && s.assign[vi] != col {
				ok = false
				break
			}
		}
		if ok {
			newMask |= 1 << uint(m.atom)
		}
	}
	if newMask == s.mask {
		return nil
	}
	if newMask == c.fullMask() {
		return []string{cqDone}
	}
	return []string{c.encode(cqState{assign: s.assign, mask: newMask})}
}

// Accept holds when every atom has been witnessed. (A full mask implies
// every variable was assigned, since each variable occurs in some atom.)
func (c *CQQuery) Accept(key string) bool {
	if key == cqDone {
		return true
	}
	return c.decode(key).mask == c.fullMask()
}

// PruneSet keeps the determinized state sets small without changing which
// worlds are accepted:
//
//   - if some state has witnessed every atom, the whole set collapses to
//     the absorbing accepting state;
//   - among states with identical assignments, only the maximal witness
//     masks are kept (a subset mask is dominated: any continuation that
//     accepts from it also accepts from the dominating state, and
//     domination is preserved by every transition).
//
// The pairwise domination check works on decoded states held in a reusable
// scratch buffer, so a call allocates only the pruned output slice.
func (c *CQQuery) PruneSet(set []string) []string {
	full := c.fullMask()
	states := c.pruneBuf[:0]
	for _, key := range set {
		if key == cqDone {
			return []string{cqDone}
		}
		s := c.decode(key)
		if s.mask == full {
			return []string{cqDone}
		}
		states = append(states, s)
	}
	c.pruneBuf = states
	out := make([]string, 0, len(set))
	for i, si := range states {
		dominated := false
		for j, sj := range states {
			if i == j || si.mask&sj.mask != si.mask {
				continue
			}
			if si.mask == sj.mask && j > i {
				continue
			}
			if slices.Equal(si.assign, sj.assign) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, set[i])
		}
	}
	sortStrings(out)
	return out
}
