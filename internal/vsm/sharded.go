// Sharded retrieval (DESIGN.md §13): an Index partitions its sentences
// across shards by stable sentence identity under one global vocabulary and
// IDF table, so every per-shard weight is Float64bits-identical to the
// single-shard layout over the same corpus. Queries fan out across shards
// in a bounded worker pool and merge deterministically; a shard that fails
// a fault-injection draw degrades to partial results (its documents score
// zero) instead of failing the query.
package vsm

import (
	"context"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/doc"
	"repro/internal/obs"
)

// Sharded-retrieval observability, alongside the vsm_* Stage-II metrics.
var (
	shardedQueries  = obs.Default().Counter("vsm_sharded_queries_total")
	shardScores     = obs.Default().Counter("vsm_shard_scores_total")
	shardFailures   = obs.Default().Counter("vsm_shard_failures_total")
	shardFanoutHist = obs.Default().Histogram("vsm_shard_fanout_micros")
)

// BuildShardedFromTerms constructs an index over pre-normalized term lists
// partitioned across nShards by the aligned sentence identities. A nil or
// misaligned ids slice falls back to ordinal-based assignment (round
// robin), which still balances shards but is not stable across edits;
// nShards < 1 builds a single shard.
func BuildShardedFromTerms(termLists [][]string, ids []doc.SentenceID, nShards int) *Index {
	counted := make([]*termCounts, len(termLists))
	for i, terms := range termLists {
		counted[i] = countTerms(terms)
	}
	if len(ids) != len(termLists) {
		ids = make([]doc.SentenceID, len(termLists))
	}
	return buildSharded(counted, ids, nShards)
}

// shardOf maps a sentence to its shard: FNV-1a over the stable identity, or
// round robin on the ordinal when the sentence has none.
func shardOf(id doc.SentenceID, ordinal, nShards int) int {
	if nShards <= 1 {
		return 0
	}
	if id == "" {
		return ordinal % nShards
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(nShards))
}

// buildSharded assembles an index: global statistics over every document,
// the shard assignment, and the cosine backend's weight tables.
func buildSharded(counted []*termCounts, ids []doc.SentenceID, nShards int) *Index {
	if nShards < 1 {
		nShards = 1
	}
	vocab, idf := globalStats(counted)
	ix := &Index{
		vocab:   vocab,
		idf:     idf,
		counted: counted,
		ids:     ids,
		docs:    make([][]int32, nShards),
		n:       len(counted),
	}
	for i := range counted {
		sh := shardOf(ids[i], i, nShards)
		ix.docs[sh] = append(ix.docs[sh], int32(i))
	}
	ix.vsm = ix.buildTables(func(g int32) []entry { return ix.vectorizeCounted(counted[g]) })
	return ix
}

// ShardCount returns the number of partitions.
func (ix *Index) ShardCount() int { return len(ix.docs) }

// ShardSizes returns the per-shard document counts (diagnostics and tests).
func (ix *Index) ShardSizes() []int {
	sizes := make([]int, len(ix.docs))
	for i, docs := range ix.docs {
		sizes[i] = len(docs)
	}
	return sizes
}

// shardFaultKey carries a per-shard fault draw; shardOutcomeKey carries the
// fan-out outcome recorder.
type (
	shardFaultKey   struct{}
	shardOutcomeKey struct{}
)

// WithShardFault arms a per-shard fault draw on the context: the fan-out
// calls draw once per shard, and a non-nil error fails that shard — its
// documents score zero (partial results) and the failure is recorded on the
// context's ShardOutcome. The serving layer wires its fault injector's
// vsm.score point through this so chaos tests exercise single-shard
// degradation rather than whole-query failure.
func WithShardFault(ctx context.Context, draw func() error) context.Context {
	if draw == nil {
		return ctx
	}
	return context.WithValue(ctx, shardFaultKey{}, draw)
}

func shardFaultFrom(ctx context.Context) func() error {
	draw, _ := ctx.Value(shardFaultKey{}).(func() error)
	return draw
}

// ShardOutcome records how a sharded fan-out went: how many shards ran and
// how many failed their fault draw. A nil outcome is inert, so callers that
// do not care simply never attach one.
type ShardOutcome struct {
	mu     sync.Mutex
	total  int
	failed int
	err    error
}

// WithShardOutcome attaches a fresh outcome recorder to the context and
// returns it; every sharded fan-out under the returned context reports into
// it.
func WithShardOutcome(ctx context.Context) (context.Context, *ShardOutcome) {
	o := &ShardOutcome{}
	return context.WithValue(ctx, shardOutcomeKey{}, o), o
}

func shardOutcomeFrom(ctx context.Context) *ShardOutcome {
	o, _ := ctx.Value(shardOutcomeKey{}).(*ShardOutcome)
	return o
}

// Total returns the number of shards the last fan-out ran.
func (o *ShardOutcome) Total() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.total
}

// Failed returns the number of shards that failed their fault draw.
func (o *ShardOutcome) Failed() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.failed
}

// Err returns the first shard failure, nil if every shard succeeded.
func (o *ShardOutcome) Err() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

func (o *ShardOutcome) setTotal(n int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.total = n
	o.mu.Unlock()
}

func (o *ShardOutcome) recordFailure(err error) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.failed++
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

// fanOut runs fn once per shard in a bounded worker pool — at most
// min(GOMAXPROCS, shards) goroutines, or strictly the calling goroutine
// under WithSerialScoring. Each shard draws the context's fault point (if
// armed) before running; a failing shard is skipped and recorded. fn must
// write only shard-owned state (each shard's documents map to disjoint
// global ordinals, so per-shard writes into a shared score slice are
// race-free).
func (ix *Index) fanOut(ctx context.Context, fn func(sh int)) {
	start := time.Now()
	defer func() { shardFanoutHist.ObserveDuration(time.Since(start)) }()
	draw := shardFaultFrom(ctx)
	outcome := shardOutcomeFrom(ctx)
	outcome.setTotal(len(ix.docs))
	parent := obs.SpanFrom(ctx)
	exec := func(sh int) {
		span := parent.StartChild("vsm.shard")
		span.SetAttrInt("shard", sh)
		span.SetAttrInt("docs", len(ix.docs[sh]))
		defer span.Finish()
		if draw != nil {
			if err := draw(); err != nil {
				span.SetAttr("error", err.Error())
				shardFailures.Inc()
				outcome.recordFailure(err)
				return
			}
		}
		fn(sh)
		shardScores.Inc()
	}
	workers := runtime.GOMAXPROCS(0)
	if SerialScoring(ctx) {
		workers = 1
	}
	if workers > len(ix.docs) {
		workers = len(ix.docs)
	}
	if workers <= 1 {
		for sh := range ix.docs {
			exec(sh)
		}
		return
	}
	var next int32 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sh := int(atomic.AddInt32(&next, 1))
				if sh >= len(ix.docs) {
					return
				}
				exec(sh)
			}
		}()
	}
	wg.Wait()
}

// scores computes the dense score slice of a query against one backend's
// weight tables: each shard accumulates its documents' scores into the
// disjoint global ordinals it owns.
func (ix *Index) scores(ctx context.Context, tabs [][]weightList, q []entry) []float64 {
	scores := make([]float64, ix.n)
	if len(q) == 0 {
		return scores
	}
	ix.fanOut(ctx, func(sh int) { accumulate(scores, ix.docs[sh], tabs[sh], q) })
	return scores
}

// matches collects each shard's admitted matches (score >= threshold, best
// first, bounded to k when k > 0), remaps them to global ordinals and
// merges them. The remap preserves sort order: per-shard local ordinals are
// ascending in global ordinal, so (score desc, local asc) maps to (score
// desc, global asc).
func (ix *Index) matches(ctx context.Context, tabs [][]weightList, q []entry, threshold float64, k int) []Match {
	lists := make([][]Match, len(ix.docs))
	ix.fanOut(ctx, func(sh int) {
		docs := ix.docs[sh]
		local := selectMatches(tabs[sh], q, threshold, k, len(docs))
		for i := range local {
			local[i].Index = int(docs[local[i].Index])
		}
		lists[sh] = local
	})
	return mergeMatches(lists, k)
}

// mergeMatches k-way merges sorted match lists under the global match order
// (score desc, index asc) with a heap of list heads. k > 0 stops after k
// results. Because the order is total (no two matches share score and
// index), the merge is deterministic and reproduces exactly the list a
// global sort would.
func mergeMatches(lists [][]Match, k int) []Match {
	type head struct{ list, pos int }
	better := func(a, b Match) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Index < b.Index
	}
	heads := make([]head, 0, len(lists))
	total := 0
	for li, l := range lists {
		total += len(l)
		if len(l) > 0 {
			heads = append(heads, head{list: li, pos: 0})
		}
	}
	if total == 0 {
		return nil
	}
	at := func(h head) Match { return lists[h.list][h.pos] }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(heads) && better(at(heads[l]), at(heads[best])) {
				best = l
			}
			if r < len(heads) && better(at(heads[r]), at(heads[best])) {
				best = r
			}
			if best == i {
				return
			}
			heads[i], heads[best] = heads[best], heads[i]
			i = best
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	want := total
	if k > 0 && k < want {
		want = k
	}
	out := make([]Match, 0, want)
	for len(heads) > 0 && len(out) < want {
		h := heads[0]
		out = append(out, at(h))
		if h.pos+1 < len(lists[h.list]) {
			heads[0].pos++
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(0)
	}
	return out
}
