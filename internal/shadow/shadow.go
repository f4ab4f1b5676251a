// Package shadow is the lazily materialized byte map the ASan and HWASan
// models keep their metadata in: ASan's 1/8 shadow and HWASan's 1/16 memory
// tags. Like real shadow memory mapped with MAP_NORESERVE, a chunk costs
// resident bytes only once something touches it, which is the sanitizers'
// RSS model.
//
// A Map is recycled between runs. Each chunk remembers the byte range its
// fills wrote since it was materialized, and Reset clears only that range, so
// a reset costs what the run wrote rather than a whole chunk per touched
// chunk. Reads never update the range: a sanitizer's checks pay nothing for
// the bookkeeping.
package shadow

import (
	"sync"
	"sync/atomic"
)

// ChunkBits is the log2 of the chunk size.
const ChunkBits = 16

// ChunkSize is the number of shadow bytes in one materialized chunk.
const ChunkSize = 1 << ChunkBits

// chunk is one materialized shadow region. lo and hi bound the bytes written
// since it was materialized, [lo, hi), empty while lo >= hi; they grow with
// a CAS so concurrent parallel-region fills can extend them.
type chunk struct {
	b      [ChunkSize]byte
	lo, hi atomic.Int32
}

// Map is a sparse byte map over n chunks. Reads and fills may run
// concurrently; Reset must not race with either.
type Map struct {
	chunks  []atomic.Pointer[chunk]
	touched atomic.Int64 // bytes of materialized chunks

	// mu guards chunk recycling: touchedIdx records the index of every chunk
	// materialized since the last Reset, and spare holds chunks Reset
	// reclaimed (zeroed), so a recycled map re-materializes shadow without
	// fresh allocations and resets in O(touched) instead of O(span).
	mu         sync.Mutex
	touchedIdx []uint32
	spare      []*chunk
}

// Init sizes an empty map to cover size shadow bytes. It is a no-op on a map
// that is already sized, so a recycled runtime keeps its table.
func (m *Map) Init(size uint64) {
	if m.chunks == nil {
		m.chunks = make([]atomic.Pointer[chunk], size>>ChunkBits)
	}
}

// TouchedBytes returns the bytes of materialized chunks: the shadow's
// resident size.
func (m *Map) TouchedBytes() int64 { return m.touched.Load() }

// At returns shadow byte i, materializing its chunk (a read of untouched
// shadow faults a zero page in, as on a real system).
func (m *Map) At(i uint64) byte {
	c := m.chunks[i>>ChunkBits].Load()
	if c == nil {
		c = m.materialize(i >> ChunkBits)
	}
	return c.b[i&(ChunkSize-1)]
}

// Fill writes v to the count shadow bytes starting at i, resolving each
// chunk once and filling the in-chunk span.
func (m *Map) Fill(i uint64, count int64, v byte) {
	for count > 0 {
		ci := i >> ChunkBits
		c := m.chunks[ci].Load()
		if c == nil {
			c = m.materialize(ci)
		}
		off := int64(i & (ChunkSize - 1))
		n := ChunkSize - off
		if n > count {
			n = count
		}
		fill(c.b[off:off+n], v)
		c.noteWritten(int32(off), int32(off+n))
		i += uint64(n)
		count -= n
	}
}

// fill sets every byte of seg to v: a memclr for zero, otherwise one byte
// doubled by copies, so a large poison costs a few memmoves rather than a
// byte loop.
func fill(seg []byte, v byte) {
	if v == 0 {
		clear(seg)
		return
	}
	if len(seg) == 0 {
		return
	}
	seg[0] = v
	for n := 1; n < len(seg); n *= 2 {
		copy(seg[n:], seg[:n])
	}
}

// noteWritten widens the chunk's written range to cover [lo, hi). The common
// case — a fill inside the range already noted — is two atomic loads.
func (c *chunk) noteWritten(lo, hi int32) {
	for {
		cur := c.lo.Load()
		if lo >= cur || c.lo.CompareAndSwap(cur, lo) {
			break
		}
	}
	for {
		cur := c.hi.Load()
		if hi <= cur || c.hi.CompareAndSwap(cur, hi) {
			break
		}
	}
}

// materialize installs a chunk at index ci, reusing a spare.
func (m *Map) materialize(ci uint64) *chunk {
	m.mu.Lock()
	var c *chunk
	if n := len(m.spare); n > 0 {
		c = m.spare[n-1]
		m.spare = m.spare[:n-1]
	} else {
		c = new(chunk)
		c.lo.Store(ChunkSize)
	}
	m.mu.Unlock()
	if m.chunks[ci].CompareAndSwap(nil, c) {
		m.touched.Add(ChunkSize)
		m.mu.Lock()
		m.touchedIdx = append(m.touchedIdx, uint32(ci))
		m.mu.Unlock()
		return c
	}
	m.mu.Lock()
	m.spare = append(m.spare, c)
	m.mu.Unlock()
	return m.chunks[ci].Load()
}

// Reset unmaps every materialized chunk, zeroing the range its fills wrote
// and keeping it for reuse, and zeroes the resident gauge: the state of a
// freshly initialized map.
func (m *Map) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ci := range m.touchedIdx {
		c := m.chunks[ci].Swap(nil)
		if c == nil {
			continue
		}
		if lo, hi := c.lo.Load(), c.hi.Load(); lo < hi {
			clear(c.b[lo:hi])
		}
		c.lo.Store(ChunkSize)
		c.hi.Store(0)
		m.spare = append(m.spare, c)
	}
	m.touchedIdx = m.touchedIdx[:0]
	m.touched.Store(0)
}
