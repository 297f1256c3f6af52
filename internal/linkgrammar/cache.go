package linkgrammar

import (
	"container/list"
	"sync"
)

// DefaultParseCacheSize is the parse-cache capacity the supervisor uses
// when caching is enabled with no explicit size (design decision D6 in
// DESIGN.md): classroom dialogue repeats template sentences heavily, so
// a small LRU absorbs most of the O(n³) parse cost.
const DefaultParseCacheSize = 1024

// CacheStats is a snapshot of a parser's cache counters.
type CacheStats struct {
	// Hits and Misses count lookups against the cache.
	Hits, Misses int64
	// Evictions counts entries dropped for capacity.
	Evictions int64
	// Invalidations counts whole-cache flushes forced by dictionary
	// changes (Define / LoadString bump the dictionary generation).
	Invalidations int64
	// Size and Capacity describe the cache occupancy.
	Size, Capacity int
}

// HitRate is the fraction of lookups served from the cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// parseCache is a mutex-guarded LRU of parse results keyed on the
// normalized token stream. Entries parsed under an older dictionary
// generation are flushed wholesale on the next access, so teaching the
// dictionary a new word (Define) never serves a stale linkage.
type parseCache struct {
	mu  sync.Mutex
	cap int
	gen uint64 // dictionary generation the entries were parsed under
	ll  *list.List
	idx map[string]*list.Element

	hits, misses, evictions, invalidations int64
}

type cacheEntry struct {
	key string
	res *Result
}

func newParseCache(capacity int) *parseCache {
	return &parseCache{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[string]*list.Element, capacity),
	}
}

// appendCacheKey joins the already-normalized tokens into dst with 0x1f
// (unit separator), which cannot appear in Tokenize output, so a pooled
// buffer can carry the key to getBytes without allocating a string per
// lookup.
func appendCacheKey(dst []byte, tokens []string) []byte {
	for i, t := range tokens {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		dst = append(dst, t...)
	}
	return dst
}

// getBytes returns the cached result for a key held in a byte buffer,
// flushing the cache first when the dictionary generation moved
// forward. A reader holding an older generation (it read Generation
// before a concurrent Define landed) just misses: it must re-parse
// under the current vocabulary. The map lookup uses the compiler's
// map[string(bytes)] fast path, so cache hits cost no allocation; only
// a miss that parses materializes the key.
func (c *parseCache) getBytes(key []byte, gen uint64) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncGenLocked(gen)
	if gen < c.gen {
		c.misses++
		return nil, false
	}
	el, ok := c.idx[string(key)]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores a result parsed under the given dictionary generation.
// Results parsed under an older vocabulary are dropped — never stored
// next to current-generation entries.
func (c *parseCache) put(key string, res *Result, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncGenLocked(gen)
	if gen < c.gen {
		return
	}
	if el, ok := c.idx[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.idx, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// syncGenLocked flushes every entry when the dictionary moved forward
// past the cache's generation. The generation is monotonic: a caller
// holding an older gen never rolls the cache back (its entries are
// fresher than the caller's view).
func (c *parseCache) syncGenLocked(gen uint64) {
	if gen <= c.gen {
		return
	}
	if c.ll.Len() > 0 {
		c.invalidations++
		c.ll.Init()
		c.idx = make(map[string]*list.Element, c.cap)
	}
	c.gen = gen
}

func (c *parseCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Size:          c.ll.Len(),
		Capacity:      c.cap,
	}
}
