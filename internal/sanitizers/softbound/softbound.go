// Package softbound models SoftBound+CETS: per-pointer (base, bound)
// spatial metadata (PLDI 2009) combined with lock-and-key temporal checking
// (ISMM 2010), propagated explicitly — through registers on every pointer
// move and through a disjoint shadow space when pointers are stored to and
// loaded from memory. That explicit propagation is exactly the cost CECSan's
// implicit tag propagation eliminates, so it is modelled as real work.
//
// The model also reproduces the released prototype's documented defects the
// paper ran into (§IV.B): missing wrappers for the wide-character family
// (false negatives) and a broken wrapper with an off-by-one (false
// positives), plus the harness-level compile-failure exclusions (only 3,970
// Juliet cases build).
package softbound

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"cecsan/internal/alloc"
	"cecsan/internal/rt"
)

// Runtime is the SoftBound+CETS model (rt.Runtime implementation).
type Runtime struct {
	env rt.Env

	mu      sync.Mutex
	nextKey uint64
	// shadow maps a memory address holding a pointer to that pointer's
	// metadata (SoftBound's disjoint metadata space).
	shadow map[uint64]rt.PtrMeta
	// locks is the CETS lock space; freed locks are reused. cells holds
	// every lock cell the runtime has made and usedCells how many of them
	// this run has handed out, so a reset runtime hands the same cells out
	// again instead of allocating new ones.
	freeLocks []*uint64
	cells     []*uint64
	usedCells int
	liveLocks int64

	shadowPeak int64
}

var (
	_ rt.Runtime    = (*Runtime)(nil)
	_ rt.Resettable = (*Runtime)(nil)
)

// New constructs a SoftBound+CETS model runtime.
func New() *Runtime {
	return &Runtime{nextKey: 1, shadow: make(map[uint64]rt.PtrMeta)}
}

// ResetRuntime implements rt.Resettable: forget all pointer metadata, lock
// cells and gauges — the state New returns, so pooled reuse is byte-identical
// to fresh construction.
func (r *Runtime) ResetRuntime() {
	r.mu.Lock()
	r.nextKey = 1
	clear(r.shadow)
	r.freeLocks = r.freeLocks[:0]
	r.usedCells = 0
	r.liveLocks = 0
	r.shadowPeak = 0
	r.mu.Unlock()
}

// Sanitizer returns the SoftBound+CETS bundle: per-pointer metadata
// propagation, checked loads and stores, no pointer tagging, no layout
// changes, and none of CECSan's check-reducing optimizations.
func Sanitizer() rt.Sanitizer {
	return rt.Sanitizer{Runtime: New(), Profile: ProfileFor()}
}

// ProfileFor derives the SoftBound+CETS instrumentation profile without
// constructing a runtime.
func ProfileFor() rt.Profile {
	return rt.Profile{
		Name:         "SoftBound/CETS",
		CheckLoads:   true,
		CheckStores:  true,
		PtrMeta:      true,
		TrackStack:   true,
		TrackGlobals: true,
	}
}

// Name implements rt.Runtime.
func (r *Runtime) Name() string { return "SoftBound/CETS" }

// Attach implements rt.Runtime.
func (r *Runtime) Attach(env *rt.Env) error {
	r.env = *env
	return nil
}

// newLock allocates (or recycles) a CETS lock cell holding key.
func (r *Runtime) newLock(key uint64) *uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var l *uint64
	switch n := len(r.freeLocks); {
	case n > 0:
		l = r.freeLocks[n-1]
		r.freeLocks = r.freeLocks[:n-1]
	case r.usedCells < len(r.cells):
		l = r.cells[r.usedCells]
		r.usedCells++
	default:
		l = new(uint64)
		r.cells = append(r.cells, l)
		r.usedCells++
	}
	*l = key
	r.liveLocks++
	return l
}

// Malloc implements rt.Runtime: plain allocation plus fresh per-pointer
// metadata with a new lock-and-key pair.
func (r *Runtime) Malloc(size int64) (uint64, rt.PtrMeta, error) {
	raw, err := r.env.Heap.Alloc(size)
	if err != nil {
		return 0, rt.PtrMeta{}, err
	}
	r.mu.Lock()
	key := r.nextKey
	r.nextKey++
	r.mu.Unlock()
	meta := rt.PtrMeta{Base: raw, Bound: raw + uint64(size), Key: key, Lock: r.newLock(key)}
	return raw, meta, nil
}

// Free implements rt.Runtime: the pointer must carry metadata whose base is
// the pointer itself (invalid free) and whose lock still holds its key
// (double free); then the lock is invalidated and recycled.
func (r *Runtime) Free(ptr uint64, meta rt.PtrMeta) *rt.Violation {
	if !meta.Valid() {
		// Pointer of unknown provenance: SoftBound cannot check it; the
		// call reaches the allocator unchecked (compatibility rule).
		r.env.Heap.Free(ptr)
		return nil
	}
	if meta.Lock != nil && *meta.Lock != meta.Key {
		return &rt.Violation{
			Kind: rt.KindDoubleFree, Ptr: ptr, Addr: ptr, Seg: alloc.SegmentOf(ptr),
			Detail: "CETS key does not match lock (object already freed)",
		}
	}
	if ptr != meta.Base {
		return &rt.Violation{
			Kind: rt.KindInvalidFree, Ptr: ptr, Addr: ptr, Seg: alloc.SegmentOf(ptr),
			Detail: fmt.Sprintf("free of non-base pointer (base=%#x)", meta.Base),
		}
	}
	if seg := alloc.SegmentOf(ptr); seg != alloc.SegHeap {
		return &rt.Violation{
			Kind: rt.KindInvalidFree, Ptr: ptr, Addr: ptr, Seg: seg,
			Detail: "free of non-heap object",
		}
	}
	if meta.Lock != nil {
		*meta.Lock = 0
		r.mu.Lock()
		r.freeLocks = append(r.freeLocks, meta.Lock)
		r.liveLocks--
		r.mu.Unlock()
	}
	r.env.Heap.Free(ptr)
	return nil
}

// StackAlloc implements rt.Runtime: stack objects carry spatial bounds but
// no temporal lock — the released prototype does not key stack lifetimes,
// which is why half the CWE416 (use-after-scope) cases slip through
// (Table II: 51.3%).
func (r *Runtime) StackAlloc(raw uint64, size int64, tracked bool) (uint64, rt.PtrMeta) {
	if !tracked {
		return raw, rt.PtrMeta{}
	}
	return raw, rt.PtrMeta{Base: raw, Bound: raw + uint64(size)}
}

// StackRelease implements rt.Runtime: nothing to invalidate (no lock).
func (r *Runtime) StackRelease(uint64, int64) {}

// GlobalInit implements rt.Runtime: globals carry spatial bounds.
func (r *Runtime) GlobalInit(_ string, raw uint64, size int64, tracked bool) (uint64, rt.PtrMeta) {
	if !tracked {
		return raw, rt.PtrMeta{}
	}
	return raw, rt.PtrMeta{Base: raw, Bound: raw + uint64(size)}
}

// Check implements rt.Runtime: SoftBound's spatial check against the
// pointer's own (base, bound) plus CETS's key/lock comparison. Pointers
// without metadata are never checked.
func (r *Runtime) Check(ptr uint64, meta rt.PtrMeta, off, size int64, k rt.AccessKind) *rt.Violation {
	if !meta.Valid() {
		return nil
	}
	if meta.Lock != nil && *meta.Lock != meta.Key {
		return &rt.Violation{
			Kind: rt.KindUseAfterFree, Ptr: ptr, Addr: ptr + uint64(off), Size: size,
			Seg:    alloc.SegmentOf(ptr + uint64(off)),
			Detail: "CETS key does not match lock",
		}
	}
	addr := ptr + uint64(off)
	if addr < meta.Base || addr+uint64(size) > meta.Bound {
		v := &rt.Violation{
			Ptr: ptr, Addr: addr, Size: size, Seg: alloc.SegmentOf(addr),
			Detail: outsideDetail(meta.Base, meta.Bound),
		}
		if k == rt.Write {
			v.Kind = rt.KindOOBWrite
		} else {
			v.Kind = rt.KindOOBRead
		}
		return v
	}
	return nil
}

// outsideDetail formats a spatial report's bounds as
// fmt.Sprintf("outside [%#x, %#x)", base, bound) does, without boxing the
// bounds.
func outsideDetail(base, bound uint64) string {
	var buf [48]byte
	b := append(buf[:0], "outside [0x"...)
	b = strconv.AppendUint(b, base, 16)
	b = append(b, ", 0x"...)
	b = strconv.AppendUint(b, bound, 16)
	return string(append(b, ')'))
}

// Addr implements rt.Runtime: plain pointers.
func (r *Runtime) Addr(ptr uint64) uint64 { return ptr }

// UsableSize implements rt.Runtime from the pointer's own bounds.
func (r *Runtime) UsableSize(ptr uint64, meta rt.PtrMeta) int64 {
	if meta.Valid() && meta.Base == ptr {
		return int64(meta.Bound - meta.Base)
	}
	if sz, ok := r.env.Heap.Lookup(ptr); ok {
		return sz
	}
	return -1
}

// SubPtr implements rt.Runtime: the released prototype claims sub-object
// narrowing but detects none of the sub-object Juliet cases (§IV.B
// observation 3), so the model keeps object-granular bounds.
func (r *Runtime) SubPtr(base uint64, off, _ int64) (uint64, rt.PtrMeta) {
	return base + uint64(off), rt.PtrMeta{}
}

// SubRelease implements rt.Runtime.
func (r *Runtime) SubRelease(uint64) {}

// PrepareExternArg implements rt.Runtime: plain pointers pass through;
// metadata simply does not follow them.
func (r *Runtime) PrepareExternArg(ptr uint64) (uint64, *rt.Violation) { return ptr, nil }

// AdoptExternRet implements rt.Runtime: foreign pointers have no metadata
// and are never checked.
func (r *Runtime) AdoptExternRet(raw uint64) uint64 { return raw }

// LibcCheck implements rt.Runtime via SoftBound's wrapper functions. The
// released wrappers are incomplete: the wide-character family is missing
// (false negatives) and the strncpy wrapper checks one byte too many (false
// positives on exactly-filled buffers) — the prototype flaws §IV.B reports.
func (r *Runtime) LibcCheck(fn string, ptr uint64, meta rt.PtrMeta, n int64, k rt.AccessKind) *rt.Violation {
	if n <= 0 {
		return nil
	}
	if strings.HasPrefix(fn, "wcs") || strings.HasPrefix(fn, "wmem") || strings.HasPrefix(fn, "print") || fn == "memset" {
		return nil // missing wrapper in the released prototype
	}
	if fn == "strncpy" && k == rt.Write {
		n++ // buggy wrapper: off-by-one over-check
	}
	return r.Check(ptr, meta, 0, n, k)
}

// LoadPtrMeta implements rt.Runtime: read pointer metadata from the
// disjoint shadow space.
func (r *Runtime) LoadPtrMeta(addr uint64) rt.PtrMeta {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shadow[addr]
}

// StorePtrMeta implements rt.Runtime: write pointer metadata to the shadow
// space. Modelled prototype defect: the released shadow propagation loses
// the CETS lock-and-key pair, so a pointer that round-trips through memory
// keeps its bounds but not its temporal identity — use-after-free through
// reloaded pointers goes undetected, which is how Table II's 51.3% CWE416
// row comes about.
func (r *Runtime) StorePtrMeta(addr uint64, meta rt.PtrMeta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if meta.Valid() {
		meta.Key, meta.Lock = 0, nil
		r.shadow[addr] = meta
		if n := int64(len(r.shadow)); n > r.shadowPeak {
			r.shadowPeak = n
		}
	} else {
		delete(r.shadow, addr)
	}
}

// OverheadBytes implements rt.Runtime: the disjoint pointer-metadata space
// (32 bytes per shadowed pointer) plus the lock space.
func (r *Runtime) OverheadBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.shadow))*32 + r.liveLocks*8
}
