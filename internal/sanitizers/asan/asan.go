// Package asan models AddressSanitizer: the location-based (redzone)
// comparator of Table II and the performance baseline of Tables IV and V.
//
// The model reproduces ASan's mechanism, not its source: a 1/8 shadow
// encoding addressability per 8-byte granule, scaled redzones around heap
// chunks, poisoned stack frames and global redzones, a quarantine that
// delays reuse of freed memory, and libc interceptors (with the documented
// wide-character gaps). Its design-level false negatives — sub-object
// overflows, large strides that jump over a redzone into another live
// object, use-after-free after quarantine eviction — arise mechanically.
package asan

import (
	"fmt"
	"strings"
	"sync"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
	"cecsan/internal/shadow"
)

// Shadow encoding: 0 = addressable, otherwise a poison kind.
const (
	shadowOK         byte = 0
	shadowHeapRZ     byte = 0xFA
	shadowHeapFreed  byte = 0xFD
	shadowStackRZ    byte = 0xF1
	shadowStackFreed byte = 0xF8
	shadowGlobalRZ   byte = 0xF9
	// shadowPartial values 1..7 encode a partially addressable granule.
)

// granule is ASan's 8-byte shadow granularity.
const granule = 8

// Options tunes the model.
type Options struct {
	// RedzoneMin is the minimum redzone on each side of a heap chunk.
	// ASan's default minimum is 16 bytes.
	RedzoneMin int64
	// RedzoneMax caps the scaled redzone (ASan scales redzones up to 2 KiB
	// for large allocations).
	RedzoneMax int64
	// QuarantineBytes is the FIFO quarantine capacity. ASan's default is
	// 256 MiB; the model scales it to the simulated heap.
	QuarantineBytes int64
	// Name overrides the display name (ASAN-- reuses this runtime).
	Name string
	// InterceptWide enables wide-character interceptors. Stock ASan misses
	// several wide functions (the §IV.B observation); keep false for the
	// faithful model.
	InterceptWide bool
}

// DefaultOptions returns the stock ASan configuration.
func DefaultOptions() Options {
	return Options{
		RedzoneMin:      16,
		RedzoneMax:      2048,
		QuarantineBytes: 2 << 20,
		Name:            "ASan",
	}
}

// Runtime is the ASan model (rt.Runtime implementation).
type Runtime struct {
	opts Options
	env  rt.Env

	// shadow is the lazily materialized 1/8 shadow, one byte per granule
	// (real ASan maps it with MAP_NORESERVE and pays RSS only for touched
	// pages).
	shadow shadow.Map

	mu sync.Mutex

	// chunkInfo tracks ASan's allocator metadata per user pointer.
	chunkInfo map[uint64]asanChunk

	quarantine      []asanChunk
	quarantineBytes int64

	redzoneBytes int64 // live redzone bytes (heap+stack+globals)
}

// asanChunk records one allocation the runtime manages.
type asanChunk struct {
	base uint64 // allocator base (start of left redzone)
	user uint64 // user pointer
	size int64  // user size
	rz   int64  // redzone on each side
}

var (
	_ rt.Runtime    = (*Runtime)(nil)
	_ rt.Resettable = (*Runtime)(nil)
)

// New constructs an ASan model runtime.
func New(opts Options) *Runtime {
	if opts.Name == "" {
		opts.Name = "ASan"
	}
	if opts.RedzoneMin <= 0 {
		opts.RedzoneMin = 16
	}
	if opts.RedzoneMax < opts.RedzoneMin {
		opts.RedzoneMax = opts.RedzoneMin
	}
	return &Runtime{opts: opts, chunkInfo: make(map[uint64]asanChunk)}
}

// ProfileFor derives the instrumentation profile for the given options
// without constructing a runtime (and hence without reserving shadow
// bookkeeping): checks on loads and stores, interceptor-based libc checking,
// redzone-poisoned stack and globals, no pointer tagging, no sub-object
// narrowing, and no compiler optimizations beyond what stock ASan does.
func ProfileFor(opts Options) rt.Profile {
	if opts.Name == "" {
		opts.Name = "ASan"
	}
	return rt.Profile{
		Name:            opts.Name,
		CheckLoads:      true,
		CheckStores:     true,
		TrackStack:      true,
		TrackGlobals:    true,
		InterceptorLibc: true,
		RedzoneBased:    true,
		StackRedzone:    2 * granule,
		GlobalRedzone:   2 * granule,
	}
}

// Sanitizer returns the bundled ASan runtime and profile.
func Sanitizer(opts Options) rt.Sanitizer {
	return rt.Sanitizer{Runtime: New(opts), Profile: ProfileFor(opts)}
}

// Name implements rt.Runtime.
func (r *Runtime) Name() string { return r.opts.Name }

// Attach implements rt.Runtime: reserve the (lazy) shadow. A pooled runtime
// keeps its (reset) shadow table across attaches.
func (r *Runtime) Attach(env *rt.Env) error {
	r.env = *env
	r.shadow.Init(mem.SpanSize / granule)
	return nil
}

// ResetRuntime implements rt.Resettable: drop every materialized shadow
// chunk (zeroing what the run wrote and keeping it for reuse), forget
// allocator metadata and the quarantine, and zero the overhead gauges —
// byte-for-byte the state of a freshly constructed runtime with the same
// options.
func (r *Runtime) ResetRuntime() {
	r.shadow.Reset()
	r.mu.Lock()
	clear(r.chunkInfo)
	r.quarantine = r.quarantine[:0]
	r.quarantineBytes = 0
	r.redzoneBytes = 0
	r.mu.Unlock()
}

// shadowByte returns the shadow byte for addr, materializing the chunk.
// addr must be below mem.SpanSize.
func (r *Runtime) shadowByte(addr uint64) byte { return r.shadow.At(addr / granule) }

// poison marks [addr, addr+n) with the given shadow value (granule-aligned
// regions only). The shadow bytes of successive granules are consecutive,
// so the region is one contiguous shadow fill.
func (r *Runtime) poison(addr uint64, n int64, val byte) {
	if n <= 0 {
		return
	}
	r.shadow.Fill(addr/granule, (n+granule-1)/granule, val)
}

// unpoison marks [addr, addr+n) addressable, including the partial last
// granule encoding.
func (r *Runtime) unpoison(addr uint64, n int64) {
	full := n / granule * granule
	if full > 0 {
		r.shadow.Fill(addr/granule, full/granule, shadowOK)
	}
	if rem := n - full; rem > 0 {
		r.shadow.Fill((addr+uint64(full))/granule, 1, byte(rem))
	}
}

// redzoneFor scales the redzone with the allocation size, like ASan.
func (r *Runtime) redzoneFor(size int64) int64 {
	rz := r.opts.RedzoneMin
	for rz < size/8 && rz < r.opts.RedzoneMax {
		rz *= 2
	}
	return rz
}

// Malloc implements rt.Runtime: allocate user size plus redzones from the
// stock heap, poison the redzones, unpoison the user region.
func (r *Runtime) Malloc(size int64) (uint64, rt.PtrMeta, error) {
	rz := r.redzoneFor(size)
	total := size + 2*rz
	base, err := r.env.Heap.Alloc(total)
	if err != nil {
		return 0, rt.PtrMeta{}, err
	}
	user := base + uint64(rz)
	r.poison(base, rz, shadowHeapRZ)
	r.unpoison(user, size)
	// Poison the right redzone from the next granule boundary.
	rstart := (user + uint64(size) + granule - 1) &^ (granule - 1)
	r.poison(rstart, rz, shadowHeapRZ)

	r.mu.Lock()
	r.chunkInfo[user] = asanChunk{base: base, user: user, size: size, rz: rz}
	r.redzoneBytes += 2 * rz
	r.mu.Unlock()
	return user, rt.PtrMeta{}, nil
}

// Free implements rt.Runtime: validate against the allocator metadata
// (catching invalid and double frees the way ASan's allocator does), poison
// the chunk, and move it to the quarantine instead of releasing it.
func (r *Runtime) Free(ptr uint64, _ rt.PtrMeta) *rt.Violation {
	r.mu.Lock()
	ch, ok := r.chunkInfo[ptr]
	r.mu.Unlock()
	if !ok {
		// Not a live chunk base. ASan distinguishes double frees (freed
		// chunk headers are remembered while quarantined) from frees of
		// never-allocated pointers.
		sv := r.shadowByte(ptr)
		if sv == shadowHeapFreed {
			return &rt.Violation{
				Kind: rt.KindDoubleFree, Ptr: ptr, Addr: ptr, Seg: alloc.SegmentOf(ptr),
				Detail: "attempting double-free on quarantined chunk",
			}
		}
		if seg := alloc.SegmentOf(ptr); seg != alloc.SegHeap {
			return &rt.Violation{
				Kind: rt.KindInvalidFree, Ptr: ptr, Addr: ptr, Seg: seg,
				Detail: "attempting free on address which was not malloc()-ed",
			}
		}
		// Heap address that is not a chunk base: if it happens to be the
		// base of ANOTHER live chunk the registry lookup above would have
		// found it and freed it silently — that miss is modelled by the
		// caller passing such a pointer and chunkInfo finding it. Here the
		// pointer is interior: report.
		return &rt.Violation{
			Kind: rt.KindInvalidFree, Ptr: ptr, Addr: ptr, Seg: alloc.SegHeap,
			Detail: "attempting free on address which was not malloc()-ed (interior pointer)",
		}
	}
	// Poison the user region and quarantine the chunk. Double frees while
	// quarantined are caught through the freed-shadow poison (the same
	// signal real ASan loses once the chunk leaves the quarantine), so
	// chunkInfo tracks live chunks only — otherwise a recycled address
	// would alias an old quarantine generation.
	r.poison(ptr&^uint64(granule-1), (ch.size+granule-1)/granule*granule, shadowHeapFreed)
	r.mu.Lock()
	delete(r.chunkInfo, ptr)
	r.quarantine = append(r.quarantine, ch)
	r.quarantineBytes += ch.size + 2*ch.rz
	// Evict oldest entries beyond capacity: their memory returns to the
	// allocator and their shadow becomes addressable again on reuse.
	for r.quarantineBytes > r.opts.QuarantineBytes && len(r.quarantine) > 0 {
		old := r.quarantine[0]
		r.quarantine = r.quarantine[1:]
		r.quarantineBytes -= old.size + 2*old.rz
		r.redzoneBytes -= 2 * old.rz
		r.env.Heap.Free(old.base)
	}
	r.mu.Unlock()
	return nil
}

// StackAlloc implements rt.Runtime: tracked (unsafe) stack objects receive
// poisoned redzones in the frame; safe ones are untouched.
func (r *Runtime) StackAlloc(raw uint64, size int64, tracked bool) (uint64, rt.PtrMeta) {
	if !tracked {
		return raw, rt.PtrMeta{}
	}
	// The machine hands us the object base; emulate ASan's frame layout by
	// poisoning the granule just before and after the object.
	r.unpoison(raw, size)
	r.poison(raw-granule, granule, shadowStackRZ)
	rstart := (raw + uint64(size) + granule - 1) &^ (granule - 1)
	r.poison(rstart, granule, shadowStackRZ)
	r.mu.Lock()
	r.redzoneBytes += 2 * granule
	r.mu.Unlock()
	return raw, rt.PtrMeta{}
}

// StackRelease implements rt.Runtime: poison the dead frame region
// (use-after-return detection in ASan's default mode is limited; the model
// poisons, which is its use-after-scope behaviour).
func (r *Runtime) StackRelease(ptr uint64, size int64) {
	r.poison(ptr&^uint64(granule-1), (size+granule-1)/granule*granule, shadowStackFreed)
	r.mu.Lock()
	r.redzoneBytes -= 2 * granule
	r.mu.Unlock()
}

// GlobalInit implements rt.Runtime: unsafe globals get right redzones.
func (r *Runtime) GlobalInit(_ string, raw uint64, size int64, tracked bool) (uint64, rt.PtrMeta) {
	if tracked {
		r.unpoison(raw, size)
		rstart := (raw + uint64(size) + granule - 1) &^ (granule - 1)
		r.poison(rstart, 2*granule, shadowGlobalRZ)
		r.mu.Lock()
		r.redzoneBytes += 2 * granule
		r.mu.Unlock()
	}
	return raw, rt.PtrMeta{}
}

// Check implements rt.Runtime: the classic ASan shadow check — load one
// shadow byte; 0 means fully addressable, 1..7 partially, anything else is
// poison.
func (r *Runtime) Check(ptr uint64, _ rt.PtrMeta, off, size int64, k rt.AccessKind) *rt.Violation {
	addr := ptr + uint64(off)
	if addr >= mem.SpanSize {
		return nil // out of simulated span; the machine faults
	}
	// Check every granule the access touches (ASan emits 1 or 2 checks for
	// <=16-byte accesses; ranges come through LibcCheck).
	end := addr + uint64(size)
	for a := addr; a < end; {
		gbase := a &^ (granule - 1)
		hi := end - gbase
		if hi > granule {
			hi = granule
		}
		sv := r.shadowByte(gbase)
		if sv != shadowOK {
			if sv >= granule || hi > uint64(sv) {
				return r.reportShadow(ptr, a, size, k, sv)
			}
		}
		a = gbase + granule
	}
	return nil
}

// reportShadow classifies a poisoned access.
func (r *Runtime) reportShadow(ptr, addr uint64, size int64, k rt.AccessKind, sv byte) *rt.Violation {
	v := &rt.Violation{Ptr: ptr, Addr: addr, Size: size, Seg: alloc.SegmentOf(addr)}
	switch sv {
	case shadowHeapFreed, shadowStackFreed:
		v.Kind = rt.KindUseAfterFree
		v.Detail = "heap-use-after-free (poisoned shadow)"
	default:
		if k == rt.Write {
			v.Kind = rt.KindOOBWrite
		} else {
			v.Kind = rt.KindOOBRead
		}
		v.Detail = fmt.Sprintf("redzone access (shadow=%#x)", sv)
	}
	return v
}

// Addr implements rt.Runtime: ASan pointers are plain addresses.
func (r *Runtime) Addr(ptr uint64) uint64 { return ptr }

// UsableSize implements rt.Runtime via the chunk registry.
func (r *Runtime) UsableSize(ptr uint64, _ rt.PtrMeta) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ch, ok := r.chunkInfo[ptr]; ok {
		return ch.size
	}
	return -1
}

// SubPtr implements rt.Runtime: ASan has no sub-object granularity — the
// derived pointer is ordinary arithmetic (the design-level Table II gap).
func (r *Runtime) SubPtr(base uint64, off, _ int64) (uint64, rt.PtrMeta) {
	return base + uint64(off), rt.PtrMeta{}
}

// SubRelease implements rt.Runtime.
func (r *Runtime) SubRelease(uint64) {}

// PrepareExternArg implements rt.Runtime: nothing to strip.
func (r *Runtime) PrepareExternArg(ptr uint64) (uint64, *rt.Violation) { return ptr, nil }

// AdoptExternRet implements rt.Runtime.
func (r *Runtime) AdoptExternRet(raw uint64) uint64 { return raw }

// LibcCheck implements rt.Runtime: the interceptor model. Wide-character
// functions are NOT intercepted by default — the coverage gap Table II
// attributes several ASan misses to.
func (r *Runtime) LibcCheck(fn string, ptr uint64, meta rt.PtrMeta, n int64, k rt.AccessKind) *rt.Violation {
	if n <= 0 {
		return nil
	}
	if !r.opts.InterceptWide && (strings.HasPrefix(fn, "wcs") || strings.HasPrefix(fn, "wmem")) {
		return nil // no interceptor for the wide family
	}
	if strings.HasPrefix(fn, "print") {
		return nil // printf-family interception is off by default
	}
	return r.Check(ptr, meta, 0, n, k)
}

// LoadPtrMeta implements rt.Runtime.
func (r *Runtime) LoadPtrMeta(uint64) rt.PtrMeta { return rt.PtrMeta{} }

// StorePtrMeta implements rt.Runtime.
func (r *Runtime) StorePtrMeta(uint64, rt.PtrMeta) {}

// OverheadBytes implements rt.Runtime: touched shadow + live redzones +
// quarantined memory — the sources of ASan's Table IV/V memory overhead.
func (r *Runtime) OverheadBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shadow.TouchedBytes() + r.redzoneBytes + r.quarantineBytes
}
