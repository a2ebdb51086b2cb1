package logic

import (
	"math/rand"
	"testing"
)

func TestCompiledFormulaMatchesEval(t *testing.T) {
	events := []Event{"a", "b", "c", "d"}
	varBit := map[Event]int{}
	for i, e := range events {
		varBit[e] = i
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		f := randomFormula(r, len(events), 10)
		cf := CompileMask(f, varBit)
		for mask := uint64(0); mask < 1<<uint(len(events)); mask++ {
			v := Valuation{}
			for i, e := range events {
				v[e] = mask&(1<<uint(i)) != 0
			}
			if got, want := cf.Eval(mask), f.Eval(v); got != want {
				t.Fatalf("trial %d mask %b: compiled %v, Eval %v (formula %s)",
					trial, mask, got, want, String(f))
			}
		}
	}
}

func TestCompiledFormulaSparseBits(t *testing.T) {
	// Bit positions need not be contiguous: the engine maps annotation
	// events to their positions within the bag's event list.
	f := And(Var("x"), Not(Var("y")))
	cf := CompileMask(f, map[Event]int{"x": 5, "y": 63})
	if !cf.Eval(1 << 5) {
		t.Error("x=1,y=0 should hold")
	}
	if cf.Eval(1<<5 | 1<<63) {
		t.Error("x=1,y=1 should not hold")
	}
	if cf.Eval(0) {
		t.Error("x=0 should not hold")
	}
}

func TestCompileMaskPanicsOnMissingVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unmapped event")
		}
	}()
	CompileMask(Var("zzz"), map[Event]int{})
}

// TestCompileVarShared: a single-variable annotation compiles to the shared
// formula of its bit without allocating, through CompileMaskFunc and
// CompileMask alike, and evaluates exactly as the general compiler's program
// for that variable does, at every bit position.
func TestCompileVarShared(t *testing.T) {
	f := Var("e")
	for bit := 0; bit < 64; bit++ {
		varBit := func(Event) (int, bool) { return bit, true }
		var cf *CompiledFormula
		if allocs := testing.AllocsPerRun(10, func() { cf = CompileMaskFunc(f, varBit) }); allocs != 0 {
			t.Fatalf("bit %d: compiling a variable allocates %v times", bit, allocs)
		}
		if cf != CompileVar(bit) || CompileMask(f, map[Event]int{"e": bit}) != cf {
			t.Fatalf("bit %d: a variable did not compile to the shared formula", bit)
		}
		general := &CompiledFormula{maxDepth: 1}
		general.compile(f, varBit)
		for _, mask := range []uint64{0, 1 << uint(bit), ^uint64(0), ^uint64(0) &^ (1 << uint(bit)), 0x5555555555555555, 0xAAAAAAAAAAAAAAAA} {
			if got, want := cf.Eval(mask), general.Eval(mask); got != want {
				t.Fatalf("bit %d mask %#x: shared %v, general %v", bit, mask, got, want)
			}
		}
	}
	for _, bit := range []int{-1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CompileVar(%d) did not panic", bit)
				}
			}()
			CompileVar(bit)
		}()
	}
}
