package interp

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
	"cecsan/prog"
)

// abort carries the reason execution stopped up the simulated call stack.
// Exactly one field is set.
type abort struct {
	violation *rt.Violation
	fault     *mem.Fault
	err       error
}

// thread is one simulated thread of execution: its own stack and local
// counters, sharing the machine's memory, heap and runtime.
type thread struct {
	m      *Machine
	stack  *alloc.Stack
	budget int64

	// regArena and metaArena back call-frame register windows: each call
	// carves [frameBase, frameBase+NumRegs) and releases it in its epilogue,
	// so frame setup is a clear of recycled memory instead of a fresh
	// allocation per call. Growth reallocates the arena, but live parent
	// frames keep their slices into the old backing array — every frame only
	// ever touches its own window, so the windows never alias.
	regArena  []uint64
	metaArena []rt.PtrMeta
	frameBase int

	// args/argMetas pass call arguments (see setArgs) and hold the stripped
	// arguments of an external call; tracked holds the metadata-carrying
	// stack objects of every live frame, each frame owning the tail it
	// appended. All are reused across calls.
	args     []uint64
	argMetas []rt.PtrMeta
	tracked  []trackedObj

	local Stats
}

// frame carves a zeroed register window (and, when per-pointer metadata is
// tracked, a matching metadata window) for one call frame.
func (th *thread) frame(n int) (regs []uint64, metas []rt.PtrMeta) {
	base := th.frameBase
	if base+n > len(th.regArena) {
		size := 2 * (base + n)
		if size < 256 {
			size = 256
		}
		grown := make([]uint64, size)
		copy(grown, th.regArena[:base])
		th.regArena = grown
	}
	regs = th.regArena[base : base+n : base+n]
	clear(regs)
	if th.m.trackMeta {
		if base+n > len(th.metaArena) {
			grown := make([]rt.PtrMeta, len(th.regArena))
			copy(grown, th.metaArena[:base])
			th.metaArena = grown
		}
		metas = th.metaArena[base : base+n : base+n]
		clear(metas)
	}
	th.frameBase = base + n
	return regs, metas
}

// flushStats merges the thread's counters into the machine.
func (th *thread) flushStats() {
	th.m.mergeStats(&th.local)
	th.local = Stats{}
}

// trackedObj records a metadata-carrying stack object for epilogue release.
type trackedObj struct {
	ptr  uint64
	size int64
}

// setArgs copies the values (and per-pointer metadata, when tracked) of the
// argument registers into the thread's argument buffer, which call copies
// into the callee's frame before it runs anything. The buffer is reused by
// every call, so argument passing allocates nothing once it has grown.
func (th *thread) setArgs(args []prog.Reg, regs []uint64, metas []rt.PtrMeta) ([]uint64, []rt.PtrMeta) {
	n := len(args)
	vals := th.argBuf(n)
	for i, a := range args {
		vals[i] = regs[a]
	}
	if metas == nil {
		return vals, nil
	}
	ms := th.argMetas[:n]
	for i, a := range args {
		ms[i] = metas[a]
	}
	return vals, ms
}

// argBuf returns the thread's argument buffers, grown to hold n values,
// with the value buffer cut to n.
func (th *thread) argBuf(n int) []uint64 {
	if n > len(th.args) {
		th.args = make([]uint64, n)
		th.argMetas = make([]rt.PtrMeta, n)
	}
	return th.args[:n]
}

// call executes fn with the given argument values (and their per-pointer
// metadata when tracking is enabled), returning the result value/meta or an
// abort. It is the machine's one dispatch loop: it switches on each
// instruction's resolved execution opcode (prog.ExecOp), and never writes to
// the program.
func (th *thread) call(fn *prog.Func, args []uint64, argMeta []rt.PtrMeta, depth int) (uint64, rt.PtrMeta, *abort) {
	if depth > th.m.opts.MaxCallDepth {
		return 0, rt.PtrMeta{}, &abort{err: ErrCallDepth}
	}
	if th.m.aborted.Load() {
		// Interrupts also land at call entry, so loop-free recursive
		// programs still honour the watchdog.
		return 0, rt.PtrMeta{}, th.abortCause()
	}
	m := th.m
	mask := m.addrMask

	arenaMark := th.frameBase
	regs, metas := th.frame(fn.NumRegs)
	copy(regs, args)
	if metas != nil {
		copy(metas, argMeta)
	}
	frameMark := th.stack.Mark()
	trackMark := len(th.tracked)

	// Instructions are counted per straight-line run, not one by one: a run
	// starts at seg (function entry or a taken branch's target) and every
	// instruction up to the next taken branch, return or the end executes
	// once. steps holds the runs finished since the last backedge.
	code := fn.Code
	pc, seg := 0, 0
	steps := int64(0)
	var (
		ret   uint64
		rmeta rt.PtrMeta
		ab    *abort
		taken bool // a compare-and-branch pair's comparison result
	)

loop:
	for pc < len(code) {
		in := &code[pc]
		// A superinstruction's case runs its head, advances pc and in to
		// the next instruction of the sequence and falls through into that
		// instruction's own case.
		switch in.Exec {
		case prog.ExecConstAddBr:
			regs[in.Dst] = uint64(in.Imm)
			pc, in = pc+1, &code[pc+1]
			fallthrough
		case prog.ExecAddBr:
			regs[in.Dst] = regs[in.A] + regs[in.B]
			if metas != nil {
				propagateMeta(metas, in)
			}
			pc, in = pc+1, &code[pc+1]
			fallthrough
		case prog.ExecBr:
			goto jump
		case prog.ExecConstAdd:
			regs[in.Dst] = uint64(in.Imm)
			pc, in = pc+1, &code[pc+1]
			fallthrough
		case prog.ExecAdd:
			regs[in.Dst] = regs[in.A] + regs[in.B]
			if metas != nil {
				propagateMeta(metas, in)
			}
		case prog.ExecSub:
			regs[in.Dst] = regs[in.A] - regs[in.B]
			if metas != nil {
				propagateMeta(metas, in)
			}
		case prog.ExecConst:
			regs[in.Dst] = uint64(in.Imm)
		case prog.ExecMov:
			regs[in.Dst] = regs[in.A]
			if metas != nil {
				metas[in.Dst] = metas[in.A]
			}
		case prog.ExecMul:
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case prog.ExecDiv:
			b := regs[in.B]
			if b == 0 {
				ab = &abort{err: fmt.Errorf("interp: SIGFPE: division by zero in %s@%d", fn.Name, pc)}
				break loop
			}
			regs[in.Dst] = uint64(int64(regs[in.A]) / int64(b))
		case prog.ExecRem:
			b := regs[in.B]
			if b == 0 {
				ab = &abort{err: fmt.Errorf("interp: SIGFPE: remainder by zero in %s@%d", fn.Name, pc)}
				break loop
			}
			regs[in.Dst] = uint64(int64(regs[in.A]) % int64(b))
		case prog.ExecAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B]
		case prog.ExecOr:
			regs[in.Dst] = regs[in.A] | regs[in.B]
		case prog.ExecXor:
			regs[in.Dst] = regs[in.A] ^ regs[in.B]
		case prog.ExecShl:
			regs[in.Dst] = regs[in.A] << (regs[in.B] & 63)
		case prog.ExecShr:
			regs[in.Dst] = regs[in.A] >> (regs[in.B] & 63)

		case prog.ExecEq:
			regs[in.Dst] = b2u(regs[in.A] == regs[in.B])
		case prog.ExecNe:
			regs[in.Dst] = b2u(regs[in.A] != regs[in.B])
		case prog.ExecSLt:
			regs[in.Dst] = b2u(int64(regs[in.A]) < int64(regs[in.B]))
		case prog.ExecSLe:
			regs[in.Dst] = b2u(int64(regs[in.A]) <= int64(regs[in.B]))
		case prog.ExecSGt:
			regs[in.Dst] = b2u(int64(regs[in.A]) > int64(regs[in.B]))
		case prog.ExecSGe:
			regs[in.Dst] = b2u(int64(regs[in.A]) >= int64(regs[in.B]))
		case prog.ExecULt:
			regs[in.Dst] = b2u(regs[in.A] < regs[in.B])
		case prog.ExecULe:
			regs[in.Dst] = b2u(regs[in.A] <= regs[in.B])
		case prog.ExecUGt:
			regs[in.Dst] = b2u(regs[in.A] > regs[in.B])
		case prog.ExecUGe:
			regs[in.Dst] = b2u(regs[in.A] >= regs[in.B])

		// Compare-and-branch pairs: evaluate, then finish at cmpBr.
		case prog.ExecEqBr:
			taken = regs[in.A] == regs[in.B]
			goto cmpBr
		case prog.ExecNeBr:
			taken = regs[in.A] != regs[in.B]
			goto cmpBr
		case prog.ExecSLtBr:
			taken = int64(regs[in.A]) < int64(regs[in.B])
			goto cmpBr
		case prog.ExecSLeBr:
			taken = int64(regs[in.A]) <= int64(regs[in.B])
			goto cmpBr
		case prog.ExecSGtBr:
			taken = int64(regs[in.A]) > int64(regs[in.B])
			goto cmpBr
		case prog.ExecSGeBr:
			taken = int64(regs[in.A]) >= int64(regs[in.B])
			goto cmpBr
		case prog.ExecULtBr:
			taken = regs[in.A] < regs[in.B]
			goto cmpBr
		case prog.ExecULeBr:
			taken = regs[in.A] <= regs[in.B]
			goto cmpBr
		case prog.ExecUGtBr:
			taken = regs[in.A] > regs[in.B]
			goto cmpBr
		case prog.ExecUGeBr:
			taken = regs[in.A] >= regs[in.B]
			goto cmpBr

		case prog.ExecCondBr:
			if regs[in.A] != 0 {
				goto jump
			}

		case prog.ExecGEPIdxCheckLoad:
			regs[in.Dst] = regs[in.A] + uint64(in.Off) + regs[in.B]*uint64(in.Imm)
			if metas != nil {
				metas[in.Dst] = metas[in.A]
			}
			pc, in = pc+1, &code[pc+1]
			fallthrough
		case prog.ExecCheckLoad:
			if a := th.check(in, regs, metas, fn, pc); a != nil {
				ab = a
				break loop
			}
			pc, in = pc+1, &code[pc+1]
			fallthrough
		case prog.ExecLoad:
			v, f := m.space.Load((regs[in.A]&mask)+uint64(in.Off), in.Size)
			if f != nil {
				ab = &abort{fault: f}
				break loop
			}
			regs[in.Dst] = v
		case prog.ExecCheckStore:
			if a := th.check(in, regs, metas, fn, pc); a != nil {
				ab = a
				break loop
			}
			pc, in = pc+1, &code[pc+1]
			fallthrough
		case prog.ExecStore:
			if f := m.space.Store((regs[in.A]&mask)+uint64(in.Off), in.Size, regs[in.B]); f != nil {
				ab = &abort{fault: f}
				break loop
			}
		case prog.ExecCheck:
			if a := th.check(in, regs, metas, fn, pc); a != nil {
				ab = a
				break loop
			}
		case prog.ExecGEP:
			regs[in.Dst] = regs[in.A] + uint64(in.Off)
			if metas != nil {
				metas[in.Dst] = metas[in.A]
			}
		case prog.ExecGEPIdx:
			regs[in.Dst] = regs[in.A] + uint64(in.Off) + regs[in.B]*uint64(in.Imm)
			if metas != nil {
				metas[in.Dst] = metas[in.A]
			}

		case prog.ExecAlloca:
			isTracked := in.Has(prog.FlagTracked)
			allocSize := in.Size
			rz := m.san.Profile.StackRedzone
			if isTracked && rz > 0 {
				allocSize += 2 * rz // redzone-based layout change
			}
			raw, err := th.stack.Alloc(allocSize)
			if err != nil {
				ab = &abort{err: err}
				break loop
			}
			if isTracked && rz > 0 {
				raw += uint64(rz)
			}
			ptr, meta := m.san.Runtime.StackAlloc(raw, in.Size, isTracked)
			regs[in.Dst] = ptr
			if metas != nil {
				metas[in.Dst] = meta
			}
			if isTracked {
				th.tracked = append(th.tracked, trackedObj{ptr: ptr, size: in.Size})
			}
			m.sampleRSS()
		case prog.ExecMalloc:
			size := in.Size
			if in.A != prog.NoReg {
				size = int64(regs[in.A])
			}
			ptr, meta, err := m.san.Runtime.Malloc(size)
			if err != nil {
				ab = &abort{err: err}
				break loop
			}
			regs[in.Dst] = ptr
			if metas != nil {
				metas[in.Dst] = meta
			}
			th.local.Mallocs++
			if mb := m.opts.MaxHeapBytes; mb > 0 && m.heap.LiveBytes() > mb {
				ab = &abort{err: ErrHeapBudget}
				break loop
			}
			m.sampleRSS()
		case prog.ExecFree:
			var meta rt.PtrMeta
			if metas != nil {
				meta = metas[in.A]
			}
			if v := m.san.Runtime.Free(regs[in.A], meta); v != nil {
				ab = th.report(v, fn.Name, pc)
				break loop
			}
			th.local.Frees++
			m.sampleRSS()
		case prog.ExecGlobalAddr:
			if g := in.Ref; g >= 0 {
				regs[in.Dst] = m.globalPtr[g]
				if metas != nil {
					metas[in.Dst] = m.globalMeta[g]
				}
			} else {
				regs[in.Dst] = 0
				if metas != nil {
					metas[in.Dst] = rt.PtrMeta{}
				}
			}

		case prog.ExecCall:
			callees := m.callees
			if uint32(in.Ref) >= uint32(len(callees)) {
				ab = &abort{err: fmt.Errorf("interp: undefined function %q", in.Sym)}
				break loop
			}
			cargs, cmetas := th.setArgs(in.Args, regs, metas)
			v, vmeta, a := th.call(callees[in.Ref], cargs, cmetas, depth+1)
			if a != nil {
				ab = a
				break loop
			}
			regs[in.Dst] = v
			if metas != nil {
				metas[in.Dst] = vmeta
			}
		case prog.ExecCallExternal:
			v, a := th.callExternal(in, regs, metas, fn.Name, pc)
			if a != nil {
				ab = a
				break loop
			}
			regs[in.Dst] = v
			th.local.ExternCalls++
		case prog.ExecLibc:
			v, a := th.libcCall(in, regs, metas, fn.Name, pc)
			if a != nil {
				ab = a
				break loop
			}
			regs[in.Dst] = v
			th.local.LibcCalls++
		case prog.ExecParFor:
			if a := th.parFor(in, regs, depth); a != nil {
				ab = a
				break loop
			}
		case prog.ExecRet:
			if in.A != prog.NoReg {
				ret = regs[in.A]
				if metas != nil {
					rmeta = metas[in.A]
				}
			}
			pc++ // count the ret itself
			break loop

		case prog.ExecCheckPeriodic:
			// Grouped monotonic check (§II.F.1, Figure 4a): fire every
			// check_step-th iteration, widened to cover the elements until
			// the next firing, clamped at the loop limit.
			iv := int64(regs[in.Args[1]])
			modulus := in.Off
			if (iv-in.Imm)%modulus == 0 {
				step := int64(in.X)
				limit := int64(regs[in.Args[2]])
				elems := (limit - iv + step - 1) / step
				if ceiling := modulus / step; elems > ceiling {
					elems = ceiling
				}
				if elems > 0 {
					var meta rt.PtrMeta
					if metas != nil {
						meta = metas[in.Args[0]]
					}
					if a := th.checkRange(regs[in.Args[0]], meta, 0, elems*in.Size, in.Has(prog.FlagWrite), fn, pc); a != nil {
						ab = a
						break loop
					}
				}
			}
		case prog.ExecSubPtr:
			ptr, meta := m.san.Runtime.SubPtr(regs[in.A], in.Off, in.Size)
			regs[in.Dst] = ptr
			if metas != nil {
				metas[in.Dst] = meta
			}
			th.local.SubPtrOps++
		case prog.ExecSubRelease:
			m.san.Runtime.SubRelease(regs[in.A])
			th.local.SubPtrOps++
		case prog.ExecStripPtr:
			raw, v := m.san.Runtime.PrepareExternArg(regs[in.A])
			if v != nil {
				ab = th.report(v, fn.Name, pc)
				break loop
			}
			regs[in.Dst] = raw
		case prog.ExecRetagPtr:
			regs[in.Dst] = (regs[in.A] & mask) | (regs[in.B] &^ mask)
		case prog.ExecPtrMetaCopy:
			if metas != nil {
				metas[in.Dst] = metas[in.A]
				th.local.MetaOps++
			}
		case prog.ExecPtrMetaLoad:
			if metas != nil {
				metas[in.Dst] = m.san.Runtime.LoadPtrMeta((regs[in.A] & mask) + uint64(in.Off))
				th.local.MetaOps++
			}
		case prog.ExecPtrMetaStore:
			if metas != nil {
				m.san.Runtime.StorePtrMeta((regs[in.A]&mask)+uint64(in.Off), metas[in.B])
				th.local.MetaOps++
			}
		default:
			ab = &abort{err: fmt.Errorf("interp: invalid opcode %v at %s@%d", in.Op, fn.Name, pc)}
			break loop
		}
		pc++
		continue

	cmpBr:
		// in is the comparison of a compare-and-branch pair; its tail
		// OpCondBr tests exactly the register the comparison writes.
		regs[in.Dst] = b2u(taken)
		if !taken {
			pc += 2
			continue
		}
		pc, in = pc+1, &code[pc+1]
	jump:
		// in is the taken branch at pc, which ends the straight-line run.
		// A backward target is a loop backedge: charge the budget and
		// honour aborts there.
		steps += int64(pc - seg + 1)
		tgt := int(in.Imm)
		if tgt <= pc {
			if a := th.backedge(steps); a != nil {
				ab = a
				break loop
			}
			steps = 0
		}
		pc, seg = tgt, tgt
	}

	if ab == nil {
		// Returned (pc is past the ret), or fell off the end (the validator
		// prevents that for authored programs). An aborted frame's steps
		// since its last backedge are not counted.
		th.local.Instructions += steps + int64(pc-seg)
	}
	// Epilogue: release the frame's tracked stack objects' metadata and
	// pop the frame, returning the register window to the arena.
	for _, ob := range th.tracked[trackMark:] {
		m.san.Runtime.StackRelease(ob.ptr, ob.size)
	}
	th.tracked = th.tracked[:trackMark]
	th.stack.Release(frameMark)
	th.frameBase = arenaMark
	if ab != nil {
		return 0, rt.PtrMeta{}, ab
	}
	return ret, rmeta, nil
}

// b2u converts a comparison result to the 0/1 word OpCmp writes.
func b2u(t bool) uint64 {
	if t {
		return 1
	}
	return 0
}

// propagateMeta applies SoftBound's pointer-arithmetic rule to an add or
// sub: pointer ± integer keeps the operand's per-pointer metadata, so an
// interior pointer built by register arithmetic carries provenance into
// Free/Check. Scalar operands carry zero metadata, so plain integer
// arithmetic stays metadata-free.
func propagateMeta(metas []rt.PtrMeta, in *prog.Instr) {
	if ma := metas[in.A]; ma.Valid() {
		metas[in.Dst] = ma
	} else if mb := metas[in.B]; mb.Valid() {
		metas[in.Dst] = mb
	}
}

// backedge charges the steps run since the previous backedge against the
// budget and returns the abort when the thread must stop there: the budget
// is spent, or the machine was interrupted or aborted by another thread.
// Every loop backedge goes through it, whichever branch closes the loop.
func (th *thread) backedge(steps int64) *abort {
	th.budget -= steps
	th.local.Instructions += steps
	if th.budget <= 0 {
		return &abort{err: ErrInstructionBudget}
	}
	if th.m.aborted.Load() {
		return th.abortCause()
	}
	return nil
}

// check runs the sanitizer check of the OpCheckAccess in at pc.
func (th *thread) check(in *prog.Instr, regs []uint64, metas []rt.PtrMeta, fn *prog.Func, pc int) *abort {
	var meta rt.PtrMeta
	if metas != nil {
		meta = metas[in.A]
	}
	size := in.Size
	if in.B != prog.NoReg {
		size = int64(regs[in.B])
	}
	return th.checkRange(regs[in.A], meta, in.Off, size, in.Has(prog.FlagWrite), fn, pc)
}

// checkRange asks the runtime to check an access of size bytes at ptr+off,
// timing it for the check observer when one is attached, and turns a
// violation into the report of the check at fn@pc.
func (th *thread) checkRange(ptr uint64, meta rt.PtrMeta, off, size int64, write bool, fn *prog.Func, pc int) *abort {
	kind := rt.Read
	if write {
		kind = rt.Write
	}
	th.local.ChecksExecuted++
	run := th.m.san.Runtime
	var v *rt.Violation
	if obsv := th.m.opts.CheckObserver; obsv != nil {
		t0 := time.Now()
		v = run.Check(ptr, meta, off, size, kind)
		obsv.ObserveCheck(fn.Name, pc, size, time.Since(t0))
	} else {
		v = run.Check(ptr, meta, off, size, kind)
	}
	if v != nil {
		return th.report(v, fn.Name, pc)
	}
	return nil
}

// errAbortedElsewhere stops sibling threads after another thread reported.
var errAbortedElsewhere = fmt.Errorf("interp: aborted by violation on another thread")

// abortCause builds the abort for a thread that observed the machine's
// aborted flag: the externally supplied Interrupt cause when there is one,
// the generic cross-thread error otherwise.
func (th *thread) abortCause() *abort {
	if c := th.m.interrupted.Load(); c != nil {
		return &abort{err: c.err}
	}
	return &abort{err: errAbortedElsewhere}
}

// report finalizes a violation with its code location and flips the global
// abort flag so parallel regions stop.
func (th *thread) report(v *rt.Violation, fnName string, pc int) *abort {
	v.Func = fnName
	v.PC = pc
	th.m.aborted.Store(true)
	return &abort{violation: v}
}

// parFor runs in.Sym over [lo,hi) partitioned across in.Imm OS-level
// workers — the OpenMP analogue used by the SPEC CPU2017 workloads.
func (th *thread) parFor(in *prog.Instr, regs []uint64, depth int) *abort {
	m := th.m
	lo := int64(regs[in.A])
	hi := int64(regs[in.B])
	workers := int(in.Imm)
	if hi <= lo {
		return nil
	}
	if uint32(in.Ref) >= uint32(len(m.callees)) {
		return &abort{err: fmt.Errorf("interp: undefined parfor body %q", in.Sym)}
	}
	fn := m.callees[in.Ref]
	if workers < 1 {
		workers = 1
	}
	span := hi - lo
	if int64(workers) > span {
		workers = int(span)
	}
	chunk := span / int64(workers)

	aborts := make([]*abort, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start := lo + int64(w)*chunk
		end := start + chunk
		if w == workers-1 {
			end = hi
		}
		wg.Add(1)
		go func(w int, start, end int64) {
			defer wg.Done()
			// A panic on a worker goroutine would kill the whole process
			// (recover in the engine can't cross goroutines), so each worker
			// converts its own panic into an abort and stops the region.
			defer func() {
				if v := recover(); v != nil {
					aborts[w] = &abort{err: &PanicError{
						Value: fmt.Sprint(v),
						Stack: string(debug.Stack()),
					}}
					m.aborted.Store(true)
				}
			}()
			stack, err := alloc.NewStack(w + 1)
			if err != nil {
				aborts[w] = &abort{err: err}
				return
			}
			wt := &thread{m: m, stack: stack, budget: th.budget}
			defer wt.flushStats()
			// call copies its arguments into the callee's frame first
			// thing, so one argument slot serves every iteration.
			arg := []uint64{0}
			var am []rt.PtrMeta
			if m.trackMeta {
				am = []rt.PtrMeta{{}}
			}
			for i := start; i < end; i++ {
				if m.aborted.Load() {
					return
				}
				arg[0] = uint64(i)
				if _, _, ab := wt.call(fn, arg, am, depth+1); ab != nil {
					if ab.err != errAbortedElsewhere {
						aborts[w] = ab
					}
					return
				}
			}
		}(w, start, end)
	}
	wg.Wait()
	for _, ab := range aborts {
		if ab != nil {
			return ab
		}
	}
	return nil
}
