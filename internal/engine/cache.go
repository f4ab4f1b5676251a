package engine

import (
	"sync"
	"sync/atomic"

	"cecsan/internal/rt"
	"cecsan/prog"
)

// cacheShardCount is the number of lock-striped shards. A shard is selected
// by the low bits of the fingerprint's first byte, so structurally unrelated
// programs spread evenly (the fingerprint is an fnv128a hash).
const cacheShardCount = 64

// DefaultCacheCapacity bounds the total instrumented programs a Cache
// retains. Table II at full scale instruments 18,272 distinct programs for
// each of CECSan, HWASan and ASan (78,546 across its six tools), so one
// tool's programs fit a cache of the default size with room to spare, while
// a hostile campaign of all-distinct programs stays bounded to ~tens of MB.
// Six tools sharing one cache do not fit it.
const DefaultCacheCapacity = 1 << 16

// Cache is a bounded instrumentation cache: one instrumented program
// per (instrumentation profile, program fingerprint), shared by any number
// of engines and goroutines. Lookups stripe across cacheShardCount
// mutex-guarded shards keyed by fingerprint prefix; instrumentation itself
// runs outside the shard lock under a per-entry sync.Once, so N workers
// hitting the same fingerprint instrument exactly once while other shards
// stay available (single-flight).
//
// The cache is capacity-bounded. When the owning shard is full, a new
// fingerprint is not admitted: the requesting engine instruments inline and
// the result is not retained — the campaign degrades to uncached throughput
// for the overflow tail instead of deadlocking or evicting hot entries.
type Cache struct {
	capPerShard int
	shards      [cacheShardCount]cacheShard

	// profMu guards the profile registry. Profile configurations (the
	// rt.Profile plus the instrument-time fusion flag — everything that
	// shapes the instrumented output besides the program) are interned to a
	// compact id so shard keys hash a (uint32, [16]byte) pair instead of the
	// full rt.Profile struct.
	profMu    sync.Mutex
	profIDs   map[profConfig]uint32
	prefills  atomic.Int64
	overflows atomic.Int64
}

type profConfig struct {
	profile rt.Profile
	fused   bool
}

type cacheShard struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
}

type cacheKey struct {
	pid uint32
	fp  prog.Fingerprint
}

// cacheEntry is one instrumented program; the Once makes concurrent first
// requests for the same key instrument exactly once.
type cacheEntry struct {
	once sync.Once
	p    *prog.Program
}

// NewCache returns a cache bounded to roughly capacity instrumented
// programs (<= 0 selects DefaultCacheCapacity). The bound is enforced per
// shard, so a pathological fingerprint distribution can cap out a shard
// early; overflow degrades to uncached instrumentation, never an error.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	per := capacity / cacheShardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{capPerShard: per, profIDs: make(map[profConfig]uint32)}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]*cacheEntry)
	}
	return c
}

// profileID interns a profile configuration, assigning ids in first-seen
// order.
func (c *Cache) profileID(p rt.Profile, fused bool) uint32 {
	pc := profConfig{profile: p, fused: fused}
	c.profMu.Lock()
	defer c.profMu.Unlock()
	if id, ok := c.profIDs[pc]; ok {
		return id
	}
	id := uint32(len(c.profIDs))
	c.profIDs[pc] = id
	return id
}

// lookup returns the entry for (pid, fp), creating it when absent and the
// shard has room. full reports that the shard was at capacity and no entry
// exists: the caller must instrument inline without caching.
func (c *Cache) lookup(pid uint32, fp prog.Fingerprint) (ent *cacheEntry, full bool) {
	sh := &c.shards[fp[0]&(cacheShardCount-1)]
	key := cacheKey{pid: pid, fp: fp}
	sh.mu.Lock()
	ent, ok := sh.m[key]
	if !ok {
		if len(sh.m) >= c.capPerShard {
			sh.mu.Unlock()
			c.overflows.Add(1)
			return nil, true
		}
		ent = &cacheEntry{}
		sh.m[key] = ent
	}
	sh.mu.Unlock()
	return ent, false
}

// Len returns the number of cached instrumented programs across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Prefills returns the number of warm fills performed through Preinstrument
// across all engines sharing the cache.
func (c *Cache) Prefills() int64 { return c.prefills.Load() }

// Overflows returns the number of lookups rejected because the owning shard
// was at capacity.
func (c *Cache) Overflows() int64 { return c.overflows.Load() }
