package interp

import (
	"errors"
	"testing"
	"time"

	"cecsan/internal/sanitizers/nosan"
	"cecsan/prog"
)

// N is prog.NoReg, shortened for the hand-written code tables below.
const N = prog.NoReg

// handProgram wraps hand-written code as a one-function program, resolved
// with or without superinstructions.
func handProgram(numRegs int, code []prog.Instr, super bool) *prog.Program {
	p := &prog.Program{
		Funcs: map[string]*prog.Func{"main": {Name: "main", NumRegs: numRegs, Code: code}},
		Order: []string{"main"},
		Entry: "main",
	}
	p.Resolve(super)
	return p
}

// TestBranchIntoFusedTail runs, for every superinstruction, a function
// that jumps straight to an instruction in the middle of the fused
// sequence. The fused form must execute exactly what the unfused form does
// — only the tail onward — with the same result and instruction count.
func TestBranchIntoFusedTail(t *testing.T) {
	// Registers: r0 heap object, r1 = 42 stored at r0[8], r2 jump flag,
	// r3 result, r4 scratch, r5 index.
	prologue := []prog.Instr{
		{Op: prog.OpMalloc, Dst: 0, A: N, B: N, Size: 32},               // 0
		{Op: prog.OpConst, Dst: 1, A: N, B: N, Imm: 42},                 // 1
		{Op: prog.OpStore, Dst: N, A: 0, B: 1, Off: 8, Size: 8},         // 2
		{Op: prog.OpConst, Dst: 5, A: N, B: N, Imm: 1},                  // 3
		{Op: prog.OpConst, Dst: 3, A: N, B: N, Imm: 7},                  // 4
		{Op: prog.OpConst, Dst: 4, A: N, B: N, Imm: 3},                  // 5
		{Op: prog.OpConst, Dst: 2, A: N, B: N, Imm: 1},                  // 6
		{Op: prog.OpCondBr, Dst: N, A: 2, B: N, Imm: -1 /* the tail */}, // 7
	}
	const head = 8
	ret := prog.Instr{Op: prog.OpRet, Dst: N, A: 3, B: N}
	cases := []struct {
		name string
		exec prog.ExecOp
		seq  []prog.Instr // fused sequence at pc 8..; then ret r3
		tail int          // offset into seq the branch enters at
		want uint64
	}{
		{"check+load", prog.ExecCheckLoad, []prog.Instr{
			{Op: prog.OpCheckAccess, Dst: N, A: 0, B: N, Off: 8, Size: 8},
			{Op: prog.OpLoad, Dst: 3, A: 0, B: N, Off: 8, Size: 8},
		}, 1, 42},
		{"check+store", prog.ExecCheckStore, []prog.Instr{
			{Op: prog.OpCheckAccess, Dst: N, A: 0, B: N, Off: 0, Size: 8, Flags: prog.FlagWrite},
			{Op: prog.OpStore, Dst: N, A: 0, B: 4, Off: 0, Size: 8},
			{Op: prog.OpLoad, Dst: 3, A: 0, B: N, Off: 0, Size: 8},
		}, 1, 3},
		{"gep→check+load into check", prog.ExecGEPIdxCheckLoad, []prog.Instr{
			{Op: prog.OpGEP, Dst: 0, A: 0, B: 5, Imm: 100},
			{Op: prog.OpCheckAccess, Dst: N, A: 0, B: N, Off: 8, Size: 8},
			{Op: prog.OpLoad, Dst: 3, A: 0, B: N, Off: 8, Size: 8},
		}, 1, 42},
		{"gep→check+load into load", prog.ExecGEPIdxCheckLoad, []prog.Instr{
			{Op: prog.OpGEP, Dst: 0, A: 0, B: 5, Imm: 100},
			{Op: prog.OpCheckAccess, Dst: N, A: 0, B: N, Off: 8, Size: 8},
			{Op: prog.OpLoad, Dst: 3, A: 0, B: N, Off: 8, Size: 8},
		}, 2, 42},
		{"const→add", prog.ExecConstAdd, []prog.Instr{
			{Op: prog.OpConst, Dst: 4, A: N, B: N, Imm: 1000},
			{Op: prog.OpBin, X: uint8(prog.BinAdd), Dst: 3, A: 1, B: 4},
		}, 1, 45},
		{"const→add→br into add", prog.ExecConstAddBr, []prog.Instr{
			{Op: prog.OpConst, Dst: 4, A: N, B: N, Imm: 1000},
			{Op: prog.OpBin, X: uint8(prog.BinAdd), Dst: 3, A: 1, B: 4},
			{Op: prog.OpBr, Dst: N, A: N, B: N, Imm: head + 3},
		}, 1, 45},
		{"const→add→br into br", prog.ExecConstAddBr, []prog.Instr{
			{Op: prog.OpConst, Dst: 4, A: N, B: N, Imm: 1000},
			{Op: prog.OpBin, X: uint8(prog.BinAdd), Dst: 3, A: 1, B: 4},
			{Op: prog.OpBr, Dst: N, A: N, B: N, Imm: head + 3},
		}, 2, 7},
		{"add→br", prog.ExecAddBr, []prog.Instr{
			{Op: prog.OpBin, X: uint8(prog.BinAdd), Dst: 3, A: 1, B: 4},
			{Op: prog.OpBr, Dst: N, A: N, B: N, Imm: head + 2},
		}, 1, 7},
		{"cmp→condbr", prog.ExecSLtBr, []prog.Instr{
			// Entered at the condbr, r2 (the jump flag, 1) decides: the
			// branch is taken, skipping the const.
			{Op: prog.OpCmp, X: uint8(prog.CmpSLt), Dst: 2, A: 1, B: 4},
			{Op: prog.OpCondBr, Dst: N, A: 2, B: N, Imm: head + 3},
			{Op: prog.OpConst, Dst: 3, A: N, B: N, Imm: 99},
		}, 1, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var results [2]*Result
			for i, super := range []bool{false, true} {
				code := append(append([]prog.Instr(nil), prologue...), tc.seq...)
				code = append(code, ret)
				code[7].Imm = int64(head + tc.tail)
				p := handProgram(6, code, super)
				if got := p.Funcs["main"].Code[head].Exec; super && got != tc.exec {
					t.Fatalf("head resolved to exec %d, want %d", got, tc.exec)
				}
				m, err := New(p, nosan.Sanitizer(), DefaultOptions())
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				results[i] = m.Run()
				if !results[i].Ok() || results[i].Ret != tc.want {
					t.Fatalf("super=%v: %+v, want Ret %d", super, results[i], tc.want)
				}
			}
			if results[0].Stats != results[1].Stats {
				t.Fatalf("stats diverge\nunfused: %+v\nfused:   %+v", results[0].Stats, results[1].Stats)
			}
		})
	}
}

// TestCondBrBackedgeKeepsInterruptCause pins that a loop whose only
// backedge is a conditional branch — plain, or the tail of a fused
// compare-and-branch — stops with the cause passed to Interrupt, exactly
// as an unconditional backedge does.
func TestCondBrBackedgeKeepsInterruptCause(t *testing.T) {
	for _, super := range []bool{false, true} {
		p := handProgram(3, condBrLoop(), super)
		opts := DefaultOptions()
		opts.MaxInstructions = 1 << 62
		m, err := New(p, nosan.Sanitizer(), opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		time.AfterFunc(10*time.Millisecond, func() { m.Interrupt(ErrWallBudget) })
		res := m.Run()
		if !errors.Is(res.Err, ErrWallBudget) {
			t.Fatalf("super=%v: Err = %v, want ErrWallBudget", super, res.Err)
		}
	}
}

// condBrLoop is an endless loop whose only backedge is the OpCondBr of a
// compare-and-branch pair.
func condBrLoop() []prog.Instr {
	return []prog.Instr{
		{Op: prog.OpConst, Dst: 0, A: N, B: N, Imm: 1},
		{Op: prog.OpConst, Dst: 1, A: N, B: N, Imm: 0},
		{Op: prog.OpCmp, X: uint8(prog.CmpNe), Dst: 2, A: 0, B: 1},
		{Op: prog.OpCondBr, Dst: N, A: 2, B: N, Imm: 2},
		{Op: prog.OpRet, Dst: N, A: 0, B: N},
	}
}

// TestCallsDoNotAllocate pins allocation-free argument passing: a
// recursive program allocates the same amount however many calls it
// makes.
func TestCallsDoNotAllocate(t *testing.T) {
	fib := func(n int64) *prog.Program {
		pb := prog.NewProgram()
		f := pb.Function("fib", 1)
		res := f.NewReg()
		f.Assign(res, f.Arg(0))
		f.If(f.Cmp(prog.CmpSGe, f.Arg(0), f.Const(2)), func() {
			a := f.Call("fib", f.Sub(f.Arg(0), f.Const(1)))
			b := f.Call("fib", f.Sub(f.Arg(0), f.Const(2)))
			f.Assign(res, f.Add(a, b))
		}, nil)
		f.Ret(res)
		m := pb.Function("main", 0)
		m.Ret(m.Call("fib", m.Const(n)))
		return pb.MustBuild()
	}
	res, err := NewResources(47)
	if err != nil {
		t.Fatalf("NewResources: %v", err)
	}
	allocs := func(p *prog.Program, want uint64) float64 {
		return testing.AllocsPerRun(5, func() {
			res.Reset()
			m, err := NewOn(res, p, nosan.Sanitizer(), DefaultOptions())
			if err != nil {
				t.Fatalf("NewOn: %v", err)
			}
			if r := m.Run(); r.Ret != want {
				t.Fatalf("fib = %d, want %d (%+v)", r.Ret, want, r)
			}
		})
	}
	few, many := allocs(fib(3), 2), allocs(fib(16), 987) // 5 vs 3,193 calls
	if few != many {
		t.Fatalf("allocations grow with calls: %v for fib(3), %v for fib(16)", few, many)
	}
}
