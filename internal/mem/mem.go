// Package mem implements the simulated 64-bit virtual address space that all
// sanitizers and workloads in this repository run against.
//
// The space is sparse and chunk-granular: addresses are 64-bit values, but
// only chunks that have actually been touched are materialized. This mirrors
// how a demand-paged OS backs user-space memory and gives the repository its
// resident-set-size (RSS) model: the number of materialized chunks is the
// simulated physical footprint of a program.
//
// Pointer tagging relies on the fact that user-space addresses occupy only
// the low 47 (x86-64) or 48 (ARM64) bits of a pointer. The machine's linker
// model additionally keeps every segment below 4 GiB, so a dereference of a
// still-tagged pointer (tag bits in the high word) lands far outside the
// mapped span and is reported as a fault, exactly like the non-canonical
// fault such a dereference raises on real hardware.
//
// Chunk materialization uses atomic pointers so that parallel workload
// regions (the OpenMP analogue of the SPEC CPU2017 runs) can fault chunks in
// concurrently. Racing data accesses to the same bytes remain races of the
// simulated program, as on real memory.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ChunkBits is the log2 of the chunk size. Chunks are 64 KiB: small enough
// that the RSS model tracks footprints at sub-megabyte granularity, large
// enough that the chunk table stays small.
const ChunkBits = 16

// ChunkSize is the number of bytes in one materialized chunk.
const ChunkSize = 1 << ChunkBits

// SpanBits is the log2 of the mapped span. All segments live below 4 GiB.
const SpanBits = 32

// SpanSize is the size of the mappable span in bytes.
const SpanSize = uint64(1) << SpanBits

const (
	chunkMask = ChunkSize - 1
	numChunks = SpanSize >> ChunkBits
)

// Fault describes a raw-memory access error (address outside the mapped
// span, e.g. a dereference of a pointer whose tag bits were never stripped).
// It is a machine-level fault, not a sanitizer report; the harness treats a
// fault in a "bad" test case as a crash rather than a detection.
type Fault struct {
	Addr uint64
	Size int64
	Wr   bool
	// Injected marks a fault produced by the fault-injection page-map hook
	// (the chunk backing this address could not be materialized), as opposed
	// to a wild access by the program. Classifiers use it to separate
	// injected resource pressure from genuine program crashes.
	Injected bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	op := "read"
	if f.Wr {
		op = "write"
	}
	if f.Injected {
		return fmt.Sprintf("SIGBUS: injected page-map failure on %s of %d bytes at %#x", op, f.Size, f.Addr)
	}
	return fmt.Sprintf("SIGSEGV: wild %s of %d bytes at unmapped address %#x", op, f.Size, f.Addr)
}

type chunk [ChunkSize]byte

// Space is a sparse simulated address space.
type Space struct {
	addrBits uint // canonical pointer address width (47 or 48)

	chunks  []atomic.Pointer[chunk]
	touched atomic.Int64 // number of materialized chunks

	// dirtyHi[i] is the exclusive high-water mark of bytes written into
	// chunk i since the last Reset, maintained with a CAS-max so parallel
	// regions can store concurrently. Reset zeroes only c[:dirtyHi[i]] —
	// bytes past the mark were never written and are still zero.
	dirtyHi []atomic.Int32

	// spare holds zeroed chunks recycled by Reset, so a pooled space
	// re-materializes pages without fresh 64 KiB allocations. Only touched
	// by Reset and the (post-Reset, single-goroutine) first faults, but a
	// mutex keeps concurrent faulting safe anyway.
	spareMu sync.Mutex
	spare   []*chunk

	// touchedIdx records the chunk-table index of every materialized chunk
	// since the last Reset, so Reset walks only the handful of live chunks
	// instead of all numChunks table slots. Guarded by spareMu;
	// materialization is rare (first touch per chunk per run), so the lock
	// is far off the access fast path.
	touchedIdx []uint32

	// faultHook, when set, is consulted before each first-touch chunk
	// materialization; returning true fails the mapping (the access gets an
	// injected Fault). Reset clears it.
	faultHook atomic.Pointer[func() bool]
}

// NewSpace returns an empty space with the given canonical pointer width in
// bits. The width governs tagging semantics only; the mapped span is always
// SpanSize. Widths below SpanBits or above 57 are rejected.
func NewSpace(addrBits uint) (*Space, error) {
	if addrBits < SpanBits || addrBits > 57 {
		return nil, fmt.Errorf("mem: address width %d out of range [%d,57]", addrBits, SpanBits)
	}
	return &Space{
		addrBits: addrBits,
		chunks:   make([]atomic.Pointer[chunk], numChunks),
		dirtyHi:  make([]atomic.Int32, numChunks),
	}, nil
}

// AddrBits returns the canonical pointer width of the space.
func (s *Space) AddrBits() uint { return s.addrBits }

// Canonical reports whether addr fits in the canonical user-space pointer
// range (i.e. carries no tag bits).
func (s *Space) Canonical(addr uint64) bool { return addr < uint64(1)<<s.addrBits }

// TouchedBytes returns the simulated resident set size: the total bytes of
// materialized chunks.
func (s *Space) TouchedBytes() int64 { return s.touched.Load() * ChunkSize }

// chunkFor returns the chunk containing addr, materializing it on first
// touch. addr must be below SpanSize. It returns nil only when the fault
// hook vetoes the materialization (injected mmap failure): callers turn that
// into an injected Fault.
func (s *Space) chunkFor(addr uint64) *chunk {
	if c := s.chunks[addr>>ChunkBits].Load(); c != nil {
		return c
	}
	return s.materialize(addr >> ChunkBits)
}

// materialize is chunkFor's first-touch path. Load and Store inline
// chunkFor's fast path and call it directly.
func (s *Space) materialize(idx uint64) *chunk {
	if hook := s.faultHook.Load(); hook != nil && (*hook)() {
		return nil
	}
	c := s.newChunk()
	if s.chunks[idx].CompareAndSwap(nil, c) {
		s.touched.Add(1)
		s.spareMu.Lock()
		s.touchedIdx = append(s.touchedIdx, uint32(idx))
		s.spareMu.Unlock()
		return c
	}
	s.recycle(c)
	return s.chunks[idx].Load()
}

// newChunk returns a zeroed chunk, reusing one recycled by Reset if any.
func (s *Space) newChunk() *chunk {
	s.spareMu.Lock()
	if n := len(s.spare); n > 0 {
		c := s.spare[n-1]
		s.spare = s.spare[:n-1]
		s.spareMu.Unlock()
		return c
	}
	s.spareMu.Unlock()
	return new(chunk)
}

// recycle returns a zeroed chunk to the spare list.
func (s *Space) recycle(c *chunk) {
	s.spareMu.Lock()
	s.spare = append(s.spare, c)
	s.spareMu.Unlock()
}

// Reset returns the space to its freshly-constructed state: every
// materialized chunk is unmapped (and kept, zeroed, for reuse) and the
// touched-page gauge drops to zero. The caller must guarantee no machine is
// still using the space. A reset space behaves byte-for-byte like a new one
// — including the RSS model, which counts pages from zero again.
func (s *Space) Reset() {
	s.spareMu.Lock()
	idxs := s.touchedIdx
	s.touchedIdx = s.touchedIdx[:0]
	s.spareMu.Unlock()
	for _, i := range idxs {
		c := s.chunks[i].Swap(nil)
		if c == nil {
			continue
		}
		if hi := s.dirtyHi[i].Swap(0); hi > 0 {
			clear(c[:hi])
		}
		s.recycle(c)
	}
	s.touched.Store(0)
	s.faultHook.Store(nil)
}

// SetFaultHook installs (or, with nil, removes) the chunk-materialization
// fault hook. The caller must not race it with accesses.
func (s *Space) SetFaultHook(f func() bool) {
	if f == nil {
		s.faultHook.Store(nil)
		return
	}
	s.faultHook.Store(&f)
}

func (s *Space) inSpan(addr uint64, size int64) bool {
	return addr < SpanSize && size >= 0 && addr+uint64(size) <= SpanSize
}

// noteDirty raises chunk idx's dirty high-water mark to at least end (an
// in-chunk byte offset, exclusive). The common case — the mark already
// covers end — is one atomic load.
func (s *Space) noteDirty(idx uint64, end int64) {
	h := &s.dirtyHi[idx]
	for {
		cur := h.Load()
		if int64(cur) >= end {
			return
		}
		if h.CompareAndSwap(cur, int32(end)) {
			return
		}
	}
}

// Load reads size bytes (1, 2, 4 or 8) at addr, little-endian, zero-extended.
func (s *Space) Load(addr uint64, size int64) (uint64, *Fault) {
	if !s.inSpan(addr, size) {
		return 0, &Fault{Addr: addr, Size: size}
	}
	off := addr & chunkMask
	if off+uint64(size) <= ChunkSize {
		c := s.chunks[addr>>ChunkBits].Load()
		if c == nil {
			if c = s.materialize(addr >> ChunkBits); c == nil {
				return 0, &Fault{Addr: addr, Size: size, Injected: true}
			}
		}
		switch size {
		case 1:
			return uint64(c[off]), nil
		case 2:
			return uint64(c[off]) | uint64(c[off+1])<<8, nil
		case 4:
			return uint64(c[off]) | uint64(c[off+1])<<8 | uint64(c[off+2])<<16 | uint64(c[off+3])<<24, nil
		case 8:
			return uint64(c[off]) | uint64(c[off+1])<<8 | uint64(c[off+2])<<16 | uint64(c[off+3])<<24 |
				uint64(c[off+4])<<32 | uint64(c[off+5])<<40 | uint64(c[off+6])<<48 | uint64(c[off+7])<<56, nil
		}
	}
	// Slow path: crosses a chunk boundary or odd size.
	var v uint64
	for i := int64(0); i < size; i++ {
		c := s.chunkFor(addr + uint64(i))
		if c == nil {
			return 0, &Fault{Addr: addr + uint64(i), Size: size, Injected: true}
		}
		v |= uint64(c[(addr+uint64(i))&chunkMask]) << (8 * uint(i))
	}
	return v, nil
}

// Store writes the low size bytes (1, 2, 4 or 8) of val at addr, little-endian.
func (s *Space) Store(addr uint64, size int64, val uint64) *Fault {
	if !s.inSpan(addr, size) {
		return &Fault{Addr: addr, Size: size, Wr: true}
	}
	off := addr & chunkMask
	if off+uint64(size) <= ChunkSize {
		c := s.chunks[addr>>ChunkBits].Load()
		if c == nil {
			if c = s.materialize(addr >> ChunkBits); c == nil {
				return &Fault{Addr: addr, Size: size, Wr: true, Injected: true}
			}
		}
		s.noteDirty(addr>>ChunkBits, int64(off)+size)
		switch size {
		case 1:
			c[off] = byte(val)
			return nil
		case 2:
			c[off], c[off+1] = byte(val), byte(val>>8)
			return nil
		case 4:
			c[off], c[off+1], c[off+2], c[off+3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
			return nil
		case 8:
			c[off], c[off+1], c[off+2], c[off+3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
			c[off+4], c[off+5], c[off+6], c[off+7] = byte(val>>32), byte(val>>40), byte(val>>48), byte(val>>56)
			return nil
		}
	}
	for i := int64(0); i < size; i++ {
		a := addr + uint64(i)
		c := s.chunkFor(a)
		if c == nil {
			return &Fault{Addr: a, Size: size, Wr: true, Injected: true}
		}
		s.noteDirty(a>>ChunkBits, int64(a&chunkMask)+1)
		c[a&chunkMask] = byte(val >> (8 * uint(i)))
	}
	return nil
}

// ReadBytes copies n bytes starting at addr into a new slice.
func (s *Space) ReadBytes(addr uint64, n int64) ([]byte, *Fault) {
	if !s.inSpan(addr, n) {
		return nil, &Fault{Addr: addr, Size: n}
	}
	out := make([]byte, n)
	var done int64
	for done < n {
		a := addr + uint64(done)
		c := s.chunkFor(a)
		if c == nil {
			return nil, &Fault{Addr: a, Size: n, Injected: true}
		}
		done += int64(copy(out[done:], c[a&chunkMask:]))
	}
	return out, nil
}

// WriteBytes copies b into memory starting at addr.
func (s *Space) WriteBytes(addr uint64, b []byte) *Fault {
	n := int64(len(b))
	if !s.inSpan(addr, n) {
		return &Fault{Addr: addr, Size: n, Wr: true}
	}
	var done int64
	for done < n {
		a := addr + uint64(done)
		c := s.chunkFor(a)
		if c == nil {
			return &Fault{Addr: a, Size: n, Wr: true, Injected: true}
		}
		w := int64(copy(c[a&chunkMask:], b[done:]))
		s.noteDirty(a>>ChunkBits, int64(a&chunkMask)+w)
		done += w
	}
	return nil
}

// Copy moves n bytes from src to dst within the space, handling overlap like
// memmove does. It allocates nothing: every source chunk is mapped first
// (a failure there is a read fault, with nothing written), then the
// destination chunks in address order, and the bytes move chunk segment by
// chunk segment in the direction overlap requires. When a destination
// chunk cannot be mapped, the bytes before it are written, as a
// read-everything-then-write copy would have written them.
func (s *Space) Copy(dst, src uint64, n int64) *Fault {
	if n <= 0 {
		return nil
	}
	if !s.inSpan(src, n) {
		return &Fault{Addr: src, Size: n}
	}
	for a := src; a < src+uint64(n); a = (a | chunkMask) + 1 {
		if s.chunkFor(a) == nil {
			return &Fault{Addr: a, Size: n, Injected: true}
		}
	}
	if !s.inSpan(dst, n) {
		return &Fault{Addr: dst, Size: n, Wr: true}
	}
	moved := n
	var fault *Fault
	for a := dst; a < dst+uint64(n); a = (a | chunkMask) + 1 {
		if s.chunkFor(a) == nil {
			moved = int64(a - dst)
			fault = &Fault{Addr: a, Size: n, Wr: true, Injected: true}
			break
		}
	}
	s.move(dst, src, moved)
	return fault
}

// move copies n bytes from src to dst, both ranges already mapped, with
// memmove semantics. Each step copies one segment that lies within a
// single source chunk and a single destination chunk. The builtin copy is
// itself a memmove, so a segment may overlap itself; walking segments
// backwards when dst is above an overlapping src keeps every step from
// overwriting source bytes a later step still reads.
func (s *Space) move(dst, src uint64, n int64) {
	seg := func(d, r uint64, k int64) {
		dc, sc := s.chunks[d>>ChunkBits].Load(), s.chunks[r>>ChunkBits].Load()
		copy(dc[d&chunkMask:int64(d&chunkMask)+k], sc[r&chunkMask:])
		s.noteDirty(d>>ChunkBits, int64(d&chunkMask)+k)
	}
	if dst > src && dst < src+uint64(n) {
		for end := n; end > 0; {
			// The segment ends at offset end and starts at the later of
			// the two chunk starts below it.
			k := min(end, int64((src+uint64(end)-1)&chunkMask)+1, int64((dst+uint64(end)-1)&chunkMask)+1)
			end -= k
			seg(dst+uint64(end), src+uint64(end), k)
		}
		return
	}
	for done := int64(0); done < n; {
		k := min(n-done, ChunkSize-int64((src+uint64(done))&chunkMask), ChunkSize-int64((dst+uint64(done))&chunkMask))
		seg(dst+uint64(done), src+uint64(done), k)
		done += k
	}
}

// Set fills n bytes starting at addr with byte v.
func (s *Space) Set(addr uint64, v byte, n int64) *Fault {
	if !s.inSpan(addr, n) {
		return &Fault{Addr: addr, Size: n, Wr: true}
	}
	var done int64
	for done < n {
		a := addr + uint64(done)
		c := s.chunkFor(a)
		if c == nil {
			return &Fault{Addr: a, Size: n, Wr: true, Injected: true}
		}
		off := a & chunkMask
		end := int64(ChunkSize) - int64(off)
		if end > n-done {
			end = n - done
		}
		s.noteDirty(a>>ChunkBits, int64(off)+end)
		seg := c[off : int64(off)+end]
		for i := range seg {
			seg[i] = v
		}
		done += end
	}
	return nil
}
