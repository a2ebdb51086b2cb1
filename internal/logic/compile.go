package logic

import "fmt"

// CompiledFormula is a formula compiled for repeated, allocation-free
// evaluation under bitmask valuations: every variable of the formula is
// mapped, at compile time, to a bit position of a uint64 mask, and Eval
// walks a flat postfix program instead of the formula tree.
//
// This is the per-fact annotation evaluator of the compiled query plans in
// internal/core: the engine resolves each fact's annotation once per table
// row, and the Valuation map that the tree-walking Formula.Eval needs was
// the dominant allocation of the inner loop.
//
// A CompiledFormula is immutable after CompileMask and safe for concurrent
// use: Eval keeps its evaluation stack in a local buffer, so the compiled
// annotation evaluators of a core.Plan can be shared by parallel
// evaluations.
type CompiledFormula struct {
	ops      []compiledOp
	maxDepth int
}

type compiledOp struct {
	kind uint8
	arg  int32 // bit index for opVar; operand count for opAnd/opOr
}

const (
	opConstFalse uint8 = iota
	opConstTrue
	opVar
	opNot
	opAnd
	opOr
)

// CompileMask compiles f for evaluation under bitmask valuations. varBit
// maps every event occurring in f to the index (0..63) of the bit that
// carries its value in the mask passed to Eval. Compilation panics if an
// event of f is missing from varBit or its bit index is out of range; both
// indicate a caller bug.
func CompileMask(f Formula, varBit map[Event]int) *CompiledFormula {
	return CompileMaskFunc(f, func(e Event) (int, bool) {
		bit, ok := varBit[e]
		return bit, ok
	})
}

// varCompiled holds the compiled form of a single variable at every bit
// position, shared by every caller: a TID fact's annotation is one variable,
// so compiling it allocates nothing.
var varCompiled = func() (out [64]*CompiledFormula) {
	for bit := range out {
		out[bit] = &CompiledFormula{ops: []compiledOp{{kind: opVar, arg: int32(bit)}}, maxDepth: 1}
	}
	return out
}()

// CompileVar returns the compiled form of a single variable carried by the
// given bit (0..63): a shared, immutable formula. It panics when the bit is
// out of range.
func CompileVar(bit int) *CompiledFormula {
	if bit < 0 || bit > 63 {
		panic(fmt.Sprintf("logic: CompileVar bit %d out of range", bit))
	}
	return varCompiled[bit]
}

// CompileMaskFunc is CompileMask with the event→bit mapping given as a
// function, for callers that can compute a bit without building a map.
func CompileMaskFunc(f Formula, varBit func(Event) (int, bool)) *CompiledFormula {
	if v, ok := f.(varFormula); ok {
		return CompileVar(mustBit(Event(v), varBit))
	}
	cf := &CompiledFormula{}
	cf.compile(f, varBit)
	// Record the program's maximum stack depth so Eval can pick a local
	// buffer that never grows.
	depth, max := 0, 0
	for _, op := range cf.ops {
		switch op.kind {
		case opConstFalse, opConstTrue, opVar:
			depth++
		case opAnd, opOr:
			depth -= int(op.arg) - 1
		}
		if depth > max {
			max = depth
		}
	}
	cf.maxDepth = max
	return cf
}

func (cf *CompiledFormula) compile(f Formula, varBit func(Event) (int, bool)) {
	switch g := f.(type) {
	case constFormula:
		if bool(g) {
			cf.ops = append(cf.ops, compiledOp{kind: opConstTrue})
		} else {
			cf.ops = append(cf.ops, compiledOp{kind: opConstFalse})
		}
	case varFormula:
		cf.ops = append(cf.ops, compiledOp{kind: opVar, arg: int32(mustBit(Event(g), varBit))})
	case notFormula:
		cf.compile(g.f, varBit)
		cf.ops = append(cf.ops, compiledOp{kind: opNot})
	case andFormula:
		for _, sub := range g.fs {
			cf.compile(sub, varBit)
		}
		cf.ops = append(cf.ops, compiledOp{kind: opAnd, arg: int32(len(g.fs))})
	case orFormula:
		for _, sub := range g.fs {
			cf.compile(sub, varBit)
		}
		cf.ops = append(cf.ops, compiledOp{kind: opOr, arg: int32(len(g.fs))})
	default:
		panic("logic: CompileMask on unknown formula type")
	}
}

// mustBit returns the bit varBit assigns to e, panicking when there is none
// in 0..63.
func mustBit(e Event, varBit func(Event) (int, bool)) int {
	bit, ok := varBit(e)
	if !ok || bit < 0 || bit > 63 {
		panic(fmt.Sprintf("logic: CompileMask has no bit for event %q", e))
	}
	return bit
}

// evalStackBuf is the stack-allocated evaluation buffer of Eval; annotation
// formulas deeper than this (vanishingly rare) fall back to a heap slice.
const evalStackBuf = 32

// Eval evaluates the compiled formula under the valuation encoded in mask:
// the variable compiled to bit i is true iff bit i of mask is set. Eval does
// not mutate the CompiledFormula and may be called concurrently.
func (cf *CompiledFormula) Eval(mask uint64) bool {
	var buf [evalStackBuf]bool
	st := buf[:0]
	if cf.maxDepth > evalStackBuf {
		st = make([]bool, 0, cf.maxDepth)
	}
	for _, op := range cf.ops {
		switch op.kind {
		case opConstFalse:
			st = append(st, false)
		case opConstTrue:
			st = append(st, true)
		case opVar:
			st = append(st, mask&(1<<uint(op.arg)) != 0)
		case opNot:
			st[len(st)-1] = !st[len(st)-1]
		case opAnd:
			n := int(op.arg)
			v := true
			for _, b := range st[len(st)-n:] {
				if !b {
					v = false
					break
				}
			}
			st = st[:len(st)-n]
			st = append(st, v)
		case opOr:
			n := int(op.arg)
			v := false
			for _, b := range st[len(st)-n:] {
				if b {
					v = true
					break
				}
			}
			st = st[:len(st)-n]
			st = append(st, v)
		}
	}
	return st[0]
}
