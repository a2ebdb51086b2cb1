package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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
//
// A state key is binary and read in place: one code byte per query variable
// (cqUnassigned, cqForgotten, or cqColour0 plus the colour), then the
// witness mask as four little-endian bytes. Every key of a query has that
// one length, except the absorbing state cqDone. The encoding is canonical,
// so keys compare across CQQuery instances of the same query (the sharded
// fold joins root states minted by different instances).
type CQQuery struct {
	Q      rel.CQ
	vars   []string
	varIdx map[string]int
	atoms  []rel.Atom
	// varAtoms[v] is the mask of the atoms mentioning variable v: Forget
	// kills a run that forgets v while one of them is unwitnessed.
	varAtoms []uint32
	// sigs[id] lists the atoms a fact of signature id can witness, and
	// sigIDs interns signatures by their byte image (see FactSignature).
	sigs   [][]factAtomMatch
	sigIDs map[string]int
	sigKey []byte // FactSignature's key scratch
	colBuf []int  // FactSignature's per-atom variable colours
}

type factAtomMatch struct {
	atom int
	// varColour[v] = the colour the query variable with index v must be
	// assigned to, or -1 when the variable does not occur in the atom.
	varColour []int
}

// Variable codes of a state key.
const (
	cqUnassigned byte = 0
	cqForgotten  byte = 1
	cqColour0    byte = 2 // colour c is stored as cqColour0 + c
)

// maxCQColours is the number of colours a variable code can name. Prepare
// rejects a decomposition whose colouring needs more (ErrTooManyColours)
// before any state is built, so a colour is never truncated.
const maxCQColours = 256 - int(cqColour0)

// cqDone is the absorbing accepting state: once every atom is witnessed,
// the run's assignments no longer matter. Collapsing to it keeps the
// determinized state sets small. No other key is one byte long.
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
	c := &CQQuery{Q: q, vars: q.Vars(), atoms: q.Atoms, sigIDs: map[string]int{}}
	c.varIdx = make(map[string]int, len(c.vars))
	for i, v := range c.vars {
		c.varIdx[v] = i
	}
	c.varAtoms = make([]uint32, len(c.vars))
	for ai, atom := range c.atoms {
		for _, t := range atom.Terms {
			if t.IsVar {
				c.varAtoms[c.varIdx[t.Name]] |= 1 << uint(ai)
			}
		}
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

// colourCode is the variable code of colour col. A colour outside the code
// range is a broken invariant (Prepare checks the colouring first), so it
// panics rather than alias another colour.
func colourCode(col int) byte {
	if col < 0 || col >= maxCQColours {
		panic(fmt.Sprintf("core: colour %d outside the CQ state key's range", col))
	}
	return cqColour0 + byte(col)
}

// keyBuf returns a scratch buffer for one state key, on the caller's stack
// array when it fits.
func (c *CQQuery) keyBuf(stack []byte) []byte {
	if n := len(c.vars) + 4; n <= len(stack) {
		return stack[:n]
	}
	return make([]byte, len(c.vars)+4)
}

// keyMask reads the witness mask of a key other than cqDone.
func (c *CQQuery) keyMask(key string) uint32 {
	n := len(c.vars)
	return uint32(key[n]) | uint32(key[n+1])<<8 | uint32(key[n+2])<<16 | uint32(key[n+3])<<24
}

// putMask writes the witness mask into a key buffer.
func (c *CQQuery) putMask(buf []byte, mask uint32) {
	binary.LittleEndian.PutUint32(buf[len(c.vars):], mask)
}

func (c *CQQuery) fullMask() uint32 { return (1 << uint(len(c.atoms))) - 1 }

// Start returns the single initial state: nothing assigned, no atom
// witnessed.
func (c *CQQuery) Start() []string {
	return []string{string(make([]byte, len(c.vars)+4))}
}

// Introduce guesses, for every subset of the currently unassigned
// variables, that they map to the introduced element of colour v.
func (c *CQQuery) Introduce(key string, v int) []string {
	if key == cqDone {
		return []string{cqDone}
	}
	code := colourCode(v)
	var freeStack [16]int
	free := freeStack[:0]
	for i := range c.vars {
		if key[i] == cqUnassigned {
			free = append(free, i)
		}
	}
	var stack [64]byte
	buf := c.keyBuf(stack[:])
	out := make([]string, 0, 1<<uint(len(free)))
	for sub := 0; sub < 1<<uint(len(free)); sub++ {
		copy(buf, key)
		for bit, vi := range free {
			if sub&(1<<uint(bit)) != 0 {
				buf[vi] = code
			}
		}
		out = append(out, string(buf))
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
	code := colourCode(v)
	mask := c.keyMask(key)
	var stack [64]byte
	var buf []byte // copied from key at the first forgotten variable
	for vi := range c.vars {
		if key[vi] != code {
			continue
		}
		if c.varAtoms[vi]&^mask != 0 {
			return nil // dead run
		}
		if buf == nil {
			buf = c.keyBuf(stack[:])
			copy(buf, key)
		}
		buf[vi] = cqForgotten
	}
	if buf == nil {
		return []string{key}
	}
	return []string{string(buf)}
}

// Join merges sibling runs. Two assignments are compatible when they agree
// wherever both are committed (the sibling bags are equal, so a colour names
// the same element on both sides); "forgotten" clashes with any other
// commitment because the two elements are necessarily distinct (a forgotten
// element never reappears in the sibling branch, by the connectivity of
// occurrences in a tree decomposition). Most pairs clash, and a clash
// allocates nothing.
func (c *CQQuery) Join(ka, kb string) (string, bool) {
	if ka == cqDone || kb == cqDone {
		return cqDone, true
	}
	var stack [64]byte
	buf := c.keyBuf(stack[:])
	for i := range c.vars {
		x, y := ka[i], kb[i]
		switch {
		case x == y:
			if x == cqForgotten {
				return "", false // two distinct forgotten elements
			}
			buf[i] = x
		case x == cqUnassigned:
			buf[i] = y
		case y == cqUnassigned:
			buf[i] = x
		default:
			return "", false // two distinct commitments
		}
	}
	c.putMask(buf, c.keyMask(ka)|c.keyMask(kb))
	return string(buf), true
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
	mask := c.keyMask(key)
	newMask := mask
	for _, m := range matches {
		if newMask&(1<<uint(m.atom)) != 0 {
			continue
		}
		ok := true
		for vi, col := range m.varColour {
			if col >= 0 && key[vi] != colourCode(col) {
				ok = false
				break
			}
		}
		if ok {
			newMask |= 1 << uint(m.atom)
		}
	}
	if newMask == mask {
		return nil
	}
	if newMask == c.fullMask() {
		return []string{cqDone}
	}
	var stack [64]byte
	buf := c.keyBuf(stack[:])
	copy(buf, key)
	c.putMask(buf, newMask)
	return []string{string(buf)}
}

// Accept holds when every atom has been witnessed. (A full mask implies
// every variable was assigned, since each variable occurs in some atom.)
func (c *CQQuery) Accept(key string) bool {
	return key == cqDone || c.keyMask(key) == c.fullMask()
}

// PruneKey implements SetPruner. A state's class is its assignment (the
// variable codes) and its mask the atoms it has witnessed: among states with
// identical assignments a subset mask is dominated, because any
// continuation that accepts from it also accepts from the dominating state,
// and domination is preserved by every transition. A state that has
// witnessed every atom collapses its whole set to the absorbing accepting
// state.
func (c *CQQuery) PruneKey(key string) (class string, mask uint32, collapse string) {
	if key == cqDone {
		return "", 0, cqDone
	}
	mask = c.keyMask(key)
	if mask == c.fullMask() {
		return "", mask, cqDone
	}
	return key[:len(c.vars)], mask, ""
}
