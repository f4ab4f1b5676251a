package prog

// ExecOp is an instruction's resolved execution opcode: the Op with its
// operand-dependent variant folded in (the BinOp or CmpPred in X, a GEP with
// or without an index register), or a superinstruction that runs the
// instruction together with the ones after it. The interpreter dispatches on
// ExecOp alone, so each executed instruction costs one switch.
type ExecOp uint8

// Execution opcodes. The zero value marks an instruction Resolve has not
// seen (or could not resolve); executing it is an error.
const (
	ExecInvalid ExecOp = iota

	ExecConst
	ExecMov

	// Binary operations, in BinOp order.
	ExecAdd
	ExecSub
	ExecMul
	ExecDiv
	ExecRem
	ExecAnd
	ExecOr
	ExecXor
	ExecShl
	ExecShr

	// Comparisons, in CmpPred order.
	ExecEq
	ExecNe
	ExecSLt
	ExecSLe
	ExecSGt
	ExecSGe
	ExecULt
	ExecULe
	ExecUGt
	ExecUGe

	ExecBr
	ExecCondBr
	ExecAlloca
	ExecMalloc
	ExecFree
	ExecLoad
	ExecStore
	ExecGEP    // OpGEP without an index register: Dst = A + Off
	ExecGEPIdx // OpGEP with an index register: Dst = A + Off + B*Imm
	ExecGlobalAddr
	ExecCall
	ExecCallExternal
	ExecLibc
	ExecParFor
	ExecRet
	ExecCheck
	ExecCheckPeriodic
	ExecSubPtr
	ExecSubRelease
	ExecStripPtr
	ExecRetagPtr
	ExecPtrMetaCopy
	ExecPtrMetaLoad
	ExecPtrMetaStore

	// Superinstructions. Each is the Exec of the first instruction of a
	// short sequence and runs the whole sequence in one dispatch. The later
	// instructions keep their own Exec, so a branch into the middle of a
	// sequence runs exactly what unfused code would, and PCs, branch
	// targets and reports are those of the unfused program.
	ExecCheckLoad       // OpCheckAccess; OpLoad
	ExecCheckStore      // OpCheckAccess; OpStore
	ExecGEPIdxCheckLoad // OpGEP with index; OpCheckAccess; OpLoad
	ExecConstAdd        // OpConst; OpBin add
	ExecConstAddBr      // OpConst; OpBin add; OpBr
	ExecAddBr           // OpBin add; OpBr

	// OpCmp; OpCondBr on the comparison's result, in CmpPred order.
	ExecEqBr
	ExecNeBr
	ExecSLtBr
	ExecSLeBr
	ExecSGtBr
	ExecSGeBr
	ExecULtBr
	ExecULeBr
	ExecUGtBr
	ExecUGeBr
)

// execOf maps the opcodes whose execution opcode does not depend on their
// operands.
var execOf = [opMax]ExecOp{
	OpConst:         ExecConst,
	OpMov:           ExecMov,
	OpBr:            ExecBr,
	OpCondBr:        ExecCondBr,
	OpAlloca:        ExecAlloca,
	OpMalloc:        ExecMalloc,
	OpFree:          ExecFree,
	OpLoad:          ExecLoad,
	OpStore:         ExecStore,
	OpGlobalAddr:    ExecGlobalAddr,
	OpCall:          ExecCall,
	OpCallExternal:  ExecCallExternal,
	OpLibc:          ExecLibc,
	OpParFor:        ExecParFor,
	OpRet:           ExecRet,
	OpCheckAccess:   ExecCheck,
	OpCheckPeriodic: ExecCheckPeriodic,
	OpSubPtr:        ExecSubPtr,
	OpSubRelease:    ExecSubRelease,
	OpStripPtr:      ExecStripPtr,
	OpRetagPtr:      ExecRetagPtr,
	OpPtrMetaCopy:   ExecPtrMetaCopy,
	OpPtrMetaLoad:   ExecPtrMetaLoad,
	OpPtrMetaStore:  ExecPtrMetaStore,
}

// Resolve computes the program's resolved form: every instruction's Exec
// and Ref, and the callee table Ref indexes. With super set it also marks
// superinstructions. Resolve writes every instruction, so it runs before a
// program is published and never after: Build runs it, and so does every
// pass that rewrites a cloned program's code. It allocates nothing once the
// program has a callee table.
//
// An OpCall or OpParFor naming no function, or an OpGlobalAddr naming no
// global, gets Ref -1; the interpreter reports it when it executes.
func (p *Program) Resolve(super bool) {
	p.indexFuncs()
	for _, f := range p.callees {
		for i := range f.Code {
			in := &f.Code[i]
			in.Exec, in.Ref = p.resolve(in)
		}
		if super {
			fuse(f.Code)
		}
	}
}

// Callees returns the callee table: the program's functions in Order,
// indexed by the Ref of its OpCall and OpParFor instructions.
func (p *Program) Callees() []*Func { return p.callees }

// indexFuncs (re)builds the callee table, reusing its storage.
func (p *Program) indexFuncs() {
	if cap(p.callees) < len(p.Order) {
		p.callees = make([]*Func, 0, len(p.Order))
	}
	p.callees = p.callees[:0]
	for i, name := range p.Order {
		f := p.Funcs[name]
		f.index = int32(i)
		p.callees = append(p.callees, f)
	}
}

// resolve returns one instruction's plain execution opcode and Ref.
func (p *Program) resolve(in *Instr) (ExecOp, int32) {
	switch in.Op {
	case OpBin:
		if x := BinOp(in.X); x >= BinAdd && x <= BinShr {
			return ExecAdd + ExecOp(x-BinAdd), 0
		}
		return ExecInvalid, 0
	case OpCmp:
		if x := CmpPred(in.X); x >= CmpEq && x <= CmpUGe {
			return ExecEq + ExecOp(x-CmpEq), 0
		}
		return ExecInvalid, 0
	case OpGEP:
		if in.B == NoReg {
			return ExecGEP, 0
		}
		return ExecGEPIdx, 0
	case OpCall, OpParFor:
		if f, ok := p.Funcs[in.Sym]; ok {
			return execOf[in.Op], f.index
		}
		return execOf[in.Op], -1
	case OpGlobalAddr:
		for i := range p.Globals {
			if p.Globals[i].Name == in.Sym {
				return ExecGlobalAddr, int32(i)
			}
		}
		return ExecGlobalAddr, -1
	}
	if in.Op < opMax {
		return execOf[in.Op], 0
	}
	return ExecInvalid, 0
}

// fuse rewrites the Exec of each superinstruction head in code, which holds
// plain execution opcodes. It walks forward, so it always inspects the
// plain Exec of the instructions after the head.
func fuse(code []Instr) {
	at := func(i int) ExecOp {
		if i < len(code) {
			return code[i].Exec
		}
		return ExecInvalid
	}
	for i := range code {
		in := &code[i]
		switch e := in.Exec; {
		case e == ExecCheck:
			switch at(i + 1) {
			case ExecLoad:
				in.Exec = ExecCheckLoad
			case ExecStore:
				in.Exec = ExecCheckStore
			}
		case e == ExecGEPIdx:
			if at(i+1) == ExecCheck && at(i+2) == ExecLoad {
				in.Exec = ExecGEPIdxCheckLoad
			}
		case e == ExecConst:
			if at(i+1) == ExecAdd {
				in.Exec = ExecConstAdd
				if at(i+2) == ExecBr {
					in.Exec = ExecConstAddBr
				}
			}
		case e == ExecAdd:
			if at(i+1) == ExecBr {
				in.Exec = ExecAddBr
			}
		case e >= ExecEq && e <= ExecUGe:
			if at(i+1) == ExecCondBr && code[i+1].A == in.Dst {
				in.Exec = ExecEqBr + (e - ExecEq)
			}
		}
	}
}
