package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nlp"
	"repro/internal/obs"
)

// keyOf is the default-backend cache key of a raw query, normalized the way
// CachedQuery normalizes it.
func keyOf(advisor, q string) string { return queryKey(advisor, "", nlp.QueryTerms(q)) }

func answersOf(texts ...string) []core.Answer {
	out := make([]core.Answer, len(texts))
	for i, t := range texts {
		out[i] = core.Answer{Sentence: core.AdvisingSentence{Index: i, Text: t}, Score: 0.5}
	}
	return out
}

func TestQueryKeyNormalization(t *testing.T) {
	// same advisor + same normalized terms -> same key, across casing,
	// punctuation and inflection (Porter stemming)
	a := keyOf("cuda", "Avoid bank conflicts!")
	b := keyOf("cuda", "avoiding banks conflict")
	if a != b {
		t.Errorf("normalized keys differ: %q vs %q", a, b)
	}
	if keyOf("cuda", "avoid bank conflicts") == keyOf("opencl", "avoid bank conflicts") {
		t.Error("keys must separate advisors")
	}
	if keyOf("cuda", "memory latency") == keyOf("cuda", "thread divergence") {
		t.Error("distinct queries must produce distinct keys")
	}
}

func TestCacheHitMissEvict(t *testing.T) {
	stats := newStats(obs.NewRegistry())
	c := NewCache(4, 2, stats)
	calls := 0
	get := func(key string) ([]core.Answer, bool) {
		val, hit, err := c.GetOrCompute(key, func() ([]core.Answer, error) {
			calls++
			return answersOf(key), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return val, hit
	}
	if _, hit := get("a"); hit {
		t.Error("first lookup must miss")
	}
	if val, hit := get("a"); !hit || val[0].Sentence.Text != "a" {
		t.Errorf("second lookup: hit=%v val=%v", hit, val)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	// overflow the cache and check eviction accounting
	for i := 0; i < 20; i++ {
		get(fmt.Sprintf("key-%d", i))
	}
	if got := c.Len(); got > 4 {
		t.Errorf("cache holds %d entries, cap 4", got)
	}
	if stats.evictions.Value() == 0 {
		t.Error("no evictions recorded after overflow")
	}
	if stats.hits.Value() != 1 || stats.misses.Value() != int64(calls) {
		t.Errorf("hits %d misses %d calls %d", stats.hits.Value(), stats.misses.Value(), calls)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	stats := newStats(obs.NewRegistry())
	c := NewCache(2, 1, stats) // single shard so order is observable
	touch := func(key string) bool {
		_, hit, _ := c.GetOrCompute(key, func() ([]core.Answer, error) { return nil, nil })
		return hit
	}
	touch("a")
	touch("b")
	touch("a") // a is now most recent
	touch("c") // evicts b
	if !touch("a") {
		t.Error("a should have survived (recently used)")
	}
	if touch("b") {
		t.Error("b should have been evicted")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	stats := newStats(obs.NewRegistry())
	c := NewCache(16, 4, stats)
	var computeCalls int
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]core.Answer, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			val, _, err := c.GetOrCompute("shared", func() ([]core.Answer, error) {
				computeCalls++ // only one goroutine may ever get here
				once.Do(func() { close(started) })
				<-release
				return answersOf("computed"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = val
		}(i)
	}
	<-started // the flight is in progress; all other goroutines must wait on it
	close(release)
	wg.Wait()
	if computeCalls != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", computeCalls)
	}
	for i, r := range results {
		if len(r) != 1 || r[0].Sentence.Text != "computed" {
			t.Errorf("waiter %d got %v", i, r)
		}
	}
	if stats.misses.Value() != 1 {
		t.Errorf("misses %d, want 1 (single flight)", stats.misses.Value())
	}
	if stats.hits.Value() != waiters-1 {
		t.Errorf("hits %d, want %d (deduplicated waiters)", stats.hits.Value(), waiters-1)
	}
}

func TestCacheComputeErrorNotCached(t *testing.T) {
	c := NewCache(4, 1, newStats(obs.NewRegistry()))
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, err := c.GetOrCompute("k", func() ([]core.Answer, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	}
	if calls != 2 {
		t.Errorf("errors must not be cached: compute ran %d times, want 2", calls)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(32, 4, newStats(obs.NewRegistry()))
	fill := func(advisor, q string) {
		c.GetOrCompute(keyOf(advisor, q), func() ([]core.Answer, error) { return nil, nil })
	}
	for _, q := range []string{"memory latency", "warp divergence", "bank conflicts"} {
		fill("cuda", q)
		fill("opencl", q)
	}
	if n := c.Len(); n != 6 {
		t.Fatalf("cache holds %d, want 6", n)
	}
	if dropped := c.Invalidate("cuda"); dropped != 3 {
		t.Errorf("invalidate dropped %d, want 3", dropped)
	}
	if n := c.Len(); n != 3 {
		t.Errorf("cache holds %d after invalidate, want 3 (opencl untouched)", n)
	}
	// the opencl entries must still hit
	_, hit, _ := c.GetOrCompute(keyOf("opencl", "memory latency"),
		func() ([]core.Answer, error) { return nil, nil })
	if !hit {
		t.Error("opencl entry lost by cuda invalidation")
	}
}

// TestCacheInvalidateDropsFlight: a computation in flight when its advisor
// is invalidated still answers its caller, but its result never enters the
// cache, and a later miss on the same key runs a fresh computation.
func TestCacheInvalidateDropsFlight(t *testing.T) {
	c := NewCache(32, 4, newStats(obs.NewRegistry()))
	key := keyOf("cuda", "memory latency")
	started, release := make(chan struct{}), make(chan struct{})
	owner := make(chan []core.Answer, 1)
	go func() {
		val, _, _ := c.GetOrCompute(key, func() ([]core.Answer, error) {
			close(started)
			<-release
			return answersOf("old"), nil
		})
		owner <- val
	}()
	<-started
	if dropped := c.Invalidate("cuda"); dropped != 0 {
		t.Errorf("invalidate dropped %d entries, want 0 (only a flight)", dropped)
	}
	close(release)
	if val := <-owner; len(val) != 1 || val[0].Sentence.Text != "old" {
		t.Errorf("flight result %+v not delivered to its caller", val)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("cache holds %d after an invalidated flight, want 0", n)
	}
	val, hit, _ := c.GetOrCompute(key, func() ([]core.Answer, error) { return answersOf("new"), nil })
	if hit || len(val) != 1 || val[0].Sentence.Text != "new" {
		t.Errorf("after invalidation: hit=%v val=%+v, want a fresh miss", hit, val)
	}
}

func TestCacheTinyCapacity(t *testing.T) {
	// degenerate configs must clamp, not panic
	c := NewCache(0, 0, newStats(obs.NewRegistry()))
	if len(c.shards) != 1 {
		t.Fatalf("want 1 shard, got %d", len(c.shards))
	}
	c2 := NewCache(2, 8, newStats(obs.NewRegistry())) // more shards than capacity
	if len(c2.shards) != 2 {
		t.Fatalf("shards must be capped by capacity: got %d", len(c2.shards))
	}
}
