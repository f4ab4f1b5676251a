package prog

import (
	"testing"
	"unsafe"
)

// TestInstrSizeUnchanged guards the in-place resolved form: Exec and Ref
// live in Instr's alignment padding, so resolving costs no memory.
func TestInstrSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want 96", got)
	}
}

// resolveSample builds a program with every Ref kind and superinstruction
// candidates: a global, calls, a parallel region and a counted loop.
func resolveSample() *Program {
	pb := NewProgram()
	pb.GlobalInit("a", Int(), 1)
	pb.GlobalInit("b", Int(), 2)
	w := pb.Function("worker", 1)
	w.RetVoid()
	f := pb.Function("main", 0)
	g := f.GlobalAddr("b")
	arr := f.MallocBytes(64)
	f.ForRange(ConstOperand(0), ConstOperand(8), 1, func(i Reg) {
		f.Store(f.ElemPtr(arr, Int64T(), i), 0, f.Load(g, 0, Int()), Int64T())
	})
	f.Call("worker", f.Const(0))
	f.ParFor("worker", f.Const(0), f.Const(2), 2)
	f.RetVoid()
	return pb.MustBuild()
}

// TestResolveLeavesFingerprintUnchanged: the resolved form is derived, so
// resolving with or without superinstructions, or not at all, gives the
// same fingerprint — and the instrumentation cache the same key.
func TestResolveLeavesFingerprintUnchanged(t *testing.T) {
	p := resolveSample()
	want := p.fingerprint()

	bare := p.Clone()
	for _, f := range bare.Funcs {
		for i := range f.Code {
			f.Code[i].Exec, f.Code[i].Ref = ExecInvalid, 0
		}
	}
	if got := bare.fingerprint(); got != want {
		t.Fatalf("unresolved fingerprint %v, resolved %v", got, want)
	}
	plain := p.Clone()
	plain.Resolve(false)
	if got := plain.fingerprint(); got != want {
		t.Fatalf("fingerprint without superinstructions %v, with %v", got, want)
	}
}

// TestResolveRefs pins what Resolve writes: callee and global indices, the
// callee table in Order, folded opcodes, and Clone's own table.
func TestResolveRefs(t *testing.T) {
	p := resolveSample()
	callees := p.Callees()
	if len(callees) != 2 || callees[0] != p.Funcs["worker"] || callees[1] != p.Funcs["main"] {
		t.Fatalf("callee table = %v, want [worker main]", callees)
	}
	seen := map[ExecOp]bool{}
	for _, in := range p.Funcs["main"].Code {
		seen[in.Exec] = true
		switch in.Op {
		case OpGlobalAddr:
			if in.Ref != 1 {
				t.Errorf("globaladdr b: Ref %d, want 1", in.Ref)
			}
		case OpCall, OpParFor:
			if in.Ref != 0 {
				t.Errorf("%v worker: Ref %d, want 0", in.Op, in.Ref)
			}
		}
		if in.Exec == ExecInvalid {
			t.Errorf("%v left unresolved", in.Op)
		}
	}
	for _, e := range []ExecOp{ExecGEPIdx, ExecConstAddBr, ExecSGeBr} {
		if !seen[e] {
			t.Errorf("main has no exec op %d", e)
		}
	}
	c := p.Clone()
	if cc := c.Callees(); len(cc) != 2 || cc[1] != c.Funcs["main"] || cc[1] == callees[1] {
		t.Fatalf("Clone's callee table %v must hold the clone's own functions", cc)
	}
}
