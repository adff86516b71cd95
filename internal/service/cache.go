package service

import (
	"container/list"
	"hash/fnv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/vsm"
)

// Cache is a sharded LRU over Stage-II query results, keyed on the
// advisor name plus the *normalized* query terms — "Avoid bank conflicts!"
// and "avoiding banks conflict" collapse to one entry, exactly the
// normalization the VSM applies before scoring, so a cached answer is always
// what retrieval would have produced.
//
// Values are []core.Answer slices; they are stored once and returned to
// every caller, so they must be treated as immutable.
//
// Concurrent misses on the same key are deduplicated single-flight style:
// one goroutine runs retrieval, the rest wait for its result.
type Cache struct {
	shards []*cacheShard
	stats  *Stats
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recent
	entries map[string]*list.Element // key -> element whose Value is *cacheEntry
	flights map[string]*flight
}

type cacheEntry struct {
	key string
	val []core.Answer
}

type flight struct {
	done    chan struct{}
	val     []core.Answer
	err     error
	dropped bool // set by Invalidate under the shard lock: deliver, never insert
}

// NewCache creates a cache holding at most capacity entries spread over
// shards (both floored at 1; shards is capped by capacity so every shard
// can hold at least one entry).
func NewCache(capacity, shards int, stats *Stats) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &Cache{shards: make([]*cacheShard, shards), stats: stats}
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		capi := base
		if i < extra {
			capi++
		}
		c.shards[i] = &cacheShard{
			cap:     capi,
			ll:      list.New(),
			entries: make(map[string]*list.Element),
			flights: make(map[string]*flight),
		}
	}
	return c
}

// queryKey derives the cache key for a query against a named advisor under
// a scoring backend: the normalized terms joined in order, prefixed by the
// advisor name. The default backend ("" or "vsm") keys as advisor, NUL,
// terms — the two spellings share cache entries because their answers are
// bit-identical — while alternate backends get a disjoint key space (terms
// never contain control bytes, so the "\x00\x01" marker cannot collide with
// a default key) under the same advisor prefix, so Invalidate drops every
// backend's entries for an advisor in one pass.
func queryKey(advisor, backend string, terms []string) string {
	if backend == "" || backend == vsm.BackendVSM {
		return advisor + "\x00" + strings.Join(terms, " ")
	}
	return advisor + "\x00\x01" + backend + "\x00" + strings.Join(terms, " ")
}

func (c *Cache) shardFor(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// GetOrCompute returns the cached value for key, computing and inserting it
// on a miss. hit reports whether the value came from the cache or from
// another goroutine's in-flight computation (both avoid running compute).
// Errors from compute are propagated to all waiters and never cached.
func (c *Cache) GetOrCompute(key string, compute func() ([]core.Answer, error)) (val []core.Answer, hit bool, err error) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.ll.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		sh.mu.Unlock()
		c.stats.hits.Add(1)
		return v, true, nil
	}
	if fl, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		// served without running retrieval: a single-flight hit
		c.stats.hits.Add(1)
		return fl.val, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	sh.flights[key] = fl
	sh.mu.Unlock()

	c.stats.misses.Add(1)
	fl.val, fl.err = compute()
	close(fl.done)

	sh.mu.Lock()
	// a dropped flight computed against a replaced advisor and is no longer
	// in the map (a newer flight may hold its key), so it leaves both alone
	if !fl.dropped {
		delete(sh.flights, key)
		if fl.err == nil {
			sh.insertLocked(key, fl.val, c.stats)
		}
	}
	sh.mu.Unlock()
	return fl.val, false, fl.err
}

// insertLocked adds an entry, evicting from the tail past capacity.
func (sh *cacheShard) insertLocked(key string, val []core.Answer, stats *Stats) {
	if el, ok := sh.entries[key]; ok { // raced with another insert
		sh.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	sh.entries[key] = sh.ll.PushFront(&cacheEntry{key: key, val: val})
	for sh.ll.Len() > sh.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.entries, back.Value.(*cacheEntry).key)
		stats.evictions.Add(1)
	}
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Invalidate drops every entry belonging to the named advisor — called when
// the registry hot-swaps that advisor, since cached answers reference the
// old rule set — and returns how many it dropped. It also drops the
// advisor's in-flight computations: their waiters still receive the result,
// but it is never inserted, so an answer computed against the old advisor
// cannot land in the cache after Invalidate returns.
func (c *Cache) Invalidate(advisor string) int {
	prefix := advisor + "\x00"
	dropped := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for key, el := range sh.entries {
			if strings.HasPrefix(key, prefix) {
				sh.ll.Remove(el)
				delete(sh.entries, key)
				dropped++
			}
		}
		for key, fl := range sh.flights {
			if strings.HasPrefix(key, prefix) {
				fl.dropped = true
				delete(sh.flights, key)
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}
