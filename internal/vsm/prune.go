// Weight tables and selection for Stage-II retrieval: the accumulator, the
// bounded top-k heap, and MaxScore-style candidate elimination over
// impact-ordered weights (DESIGN.md §14), shared by both scoring backends.
//
// Every term's weight list is stored twice — ascending document order
// (exact rescoring and exhaustive accumulation) and descending contribution
// order (the pruned walk). Per-term upper bounds let the walk skip postings
// that provably cannot lift a document past the current k-th score or the
// recommendation threshold. The pruned path is a *candidate generator*:
// any document it emits is rescored by the exact exhaustive accumulation
// (ascending term-id order, the same float operations in the same order),
// so pruning decides only WHICH documents get scored, never what score
// they get — results are Float64bits-identical to exhaustive scoring, for
// both the TF-IDF/cosine and BM25 backends, at any shard count.
//
// The exactness argument rests on one float lemma: for non-negative
// values summed sequentially in a fixed order, replacing each addend by a
// per-slot upper bound (and absent addends by their exact zero) never
// decreases any rounded partial sum, because IEEE rounding is monotone.
// Bounds are therefore accumulated in ascending term-id order — the same
// order exhaustive scoring uses — which makes bound >= true score hold
// exactly in floating point, with no epsilon slack. Whenever the bound
// math cannot guarantee exactness or cannot win (thresholds that admit
// zero-score documents, tiny shards, non-finite bounds), the query falls
// back to the exhaustive path and the fallback is counted.
package vsm

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Pruning observability (surfaced on /metricz as vsm_prune_*):
// queries that took the pruned path, postings the walk never touched, and
// prune-eligible queries that fell back to exhaustive scoring.
var (
	pruneQueries   = obs.Default().Counter("vsm_prune_queries_total")
	pruneSkipped   = obs.Default().Counter("vsm_prune_postings_skipped_total")
	pruneFallbacks = obs.Default().Counter("vsm_prune_fallbacks_total")
)

// minPruneDocs is the shard size below which pruning is not attempted:
// the bound bookkeeping costs more than exhaustively scoring a handful of
// documents, so tiny corpora (and tiny shards) take the exhaustive path.
const minPruneDocs = 32

// seenPool recycles the per-query visited-document bitmaps so the pruned
// path does not churn an O(n) allocation per query. Buffers come back
// cleared (the put side zeroes only the prefix it used).
var seenPool = sync.Pool{New: func() any { return new([]bool) }}

// getSeen returns a cleared []bool of length n from the pool.
func getSeen(n int) *[]bool {
	p := seenPool.Get().(*[]bool)
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	*p = (*p)[:n]
	return p
}

// putSeen clears and recycles a bitmap obtained from getSeen.
func putSeen(p *[]bool) {
	clear(*p)
	seenPool.Put(p)
}

// pruningKey marks a context with an explicit pruning decision.
type pruningKey struct{}

// WithPruning marks ctx with an explicit pruning decision for Stage-II
// retrieval. Pruned and exhaustive scoring produce Float64bits-identical
// results — the toggle exists as an operational escape hatch and as the
// differential-testing lever, not as a semantic choice.
func WithPruning(ctx context.Context, on bool) context.Context {
	return context.WithValue(ctx, pruningKey{}, on)
}

// Pruning reports the pruning decision carried by ctx and whether one was
// explicitly set (on defaults to true when unset).
func Pruning(ctx context.Context) (on, set bool) {
	v, ok := ctx.Value(pruningKey{}).(bool)
	if !ok {
		return true, false
	}
	return v, true
}

// PruningOn reports whether pruning is enabled on ctx (default true).
func PruningOn(ctx context.Context) bool {
	on, _ := Pruning(ctx)
	return on
}

// pruneList is one term's postings in one shard under one scoring backend,
// in two orders: ascending local document order (docs/w — accumulated
// exhaustively and binary-searched during exact rescoring) and descending
// weight order (impDocs/impW, ties by ascending document — the
// impact-ordered walk). w holds the per-posting score contribution before
// the query-side multiplier: the normalized TF-IDF weight for the cosine
// backend, the full precomputed BM25 contribution for BM25. maxW is w's
// maximum (0 for an empty list). Zero weights are not stored.
type pruneList struct {
	docs    []int32
	w       []float64
	impDocs []int32
	impW    []float64
	maxW    float64
}

// buildTables lays a backend's per-document weight rows out as one weight
// table per shard. row returns a document's (term id, weight) entries in
// ascending term-id order; documents are visited in ascending local order,
// so every list comes out in ascending document order.
func (ix *Index) buildTables(row func(g int32) []entry) [][]pruneList {
	tabs := make([][]pruneList, len(ix.docs))
	for sh, docs := range ix.docs {
		rows := make([][]entry, len(docs))
		counts := make([]int, len(ix.idf))
		for d, g := range docs {
			rows[d] = row(g)
			for _, e := range rows[d] {
				if e.weight != 0 {
					counts[e.term]++
				}
			}
		}
		tab := make([]pruneList, len(ix.idf))
		for t, c := range counts {
			tab[t].docs = make([]int32, 0, c)
			tab[t].w = make([]float64, 0, c)
		}
		for d, r := range rows {
			for _, e := range r {
				if e.weight != 0 {
					pl := &tab[e.term]
					pl.docs = append(pl.docs, int32(d))
					pl.w = append(pl.w, e.weight)
				}
			}
		}
		for t := range tab {
			tab[t].buildImpactOrder()
		}
		tabs[sh] = tab
	}
	return tabs
}

// buildImpactOrder fills a pruneList's impact-ordered arrays (and maxW)
// from its document-ordered ones.
func (pl *pruneList) buildImpactOrder() {
	n := len(pl.docs)
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	slices.SortFunc(ord, func(a, b int) int {
		if c := cmp.Compare(pl.w[b], pl.w[a]); c != 0 {
			return c
		}
		return cmp.Compare(pl.docs[a], pl.docs[b])
	})
	pl.impDocs = make([]int32, n)
	pl.impW = make([]float64, n)
	for i, j := range ord {
		pl.impDocs[i] = pl.docs[j]
		pl.impW[i] = pl.w[j]
	}
	if n > 0 {
		pl.maxW = pl.impW[0]
	}
}

// accumulate adds one shard's contributions q·w to scores, query terms in
// ascending id order — the one accumulation order every scoring path
// (dense, exhaustive, pruned rescoring) shares, which is what makes them
// bit-identical. remap maps local documents to score slots (nil: local).
func accumulate(scores []float64, remap []int32, tab []pruneList, q []entry) {
	for _, e := range q {
		pl := &tab[e.term]
		if remap == nil {
			for i, d := range pl.docs {
				scores[d] += e.weight * pl.w[i]
			}
			continue
		}
		for i, d := range pl.docs {
			scores[remap[d]] += e.weight * pl.w[i]
		}
	}
}

// topK collects admitted matches: all of them when k <= 0, otherwise the k
// best under the total match order (score desc, index asc) in a bounded
// min-heap whose root is the weakest kept match. The order is total, so
// bounded selection equals sort-then-truncate.
type topK struct {
	k    int
	heap []Match
}

// worse reports whether a ranks strictly below b in the match order.
func worse(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Index > b.Index
}

// full reports whether a bounded heap holds k matches, so a new match must
// beat the root to enter.
func (t *topK) full() bool { return t.k > 0 && len(t.heap) == t.k }

func (t *topK) offer(m Match) {
	h := t.heap
	switch {
	case t.k <= 0 || len(h) < t.k:
		h = append(h, m)
		for i := len(h) - 1; t.k > 0 && i > 0; {
			p := (i - 1) / 2
			if !worse(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	case worse(m, h[0]):
		return
	default:
		h[0] = m
		for i := 0; ; {
			l, r, w := 2*i+1, 2*i+2, i
			if l < len(h) && worse(h[l], h[w]) {
				w = l
			}
			if r < len(h) && worse(h[r], h[w]) {
				w = r
			}
			if w == i {
				break
			}
			h[i], h[w] = h[w], h[i]
			i = w
		}
	}
	t.heap = h
}

// sorted returns the collected matches best first.
func (t *topK) sorted() []Match {
	sortMatches(t.heap)
	return t.heap
}

// selectMatches is one shard's selection: every document scoring at or
// above threshold, best first, truncated to k when k > 0, in local
// ordinals. The pruned engine runs when pruning is requested and the gate
// allows, exhaustive accumulation otherwise; results are
// Float64bits-identical either way.
func selectMatches(prune bool, tab []pruneList, q []entry, threshold float64, k, n int) []Match {
	if prune {
		// thresholds at or below zero admit zero-score documents, which
		// appear in no query term's postings — candidate generation cannot
		// see them, so those queries are exhaustive by construction
		if threshold > 0 && n >= minPruneDocs {
			if out, skipped, ok := pruneSelect(tab, q, threshold, k, n); ok {
				pruneQueries.Inc()
				pruneSkipped.Add(skipped)
				return out
			}
		}
		pruneFallbacks.Inc()
	}
	scores := make([]float64, n)
	accumulate(scores, nil, tab, q)
	top := topK{k: k}
	for d, s := range scores {
		if s >= threshold {
			top.offer(Match{Index: d, Score: s})
		}
	}
	return top.sorted()
}

// pruneSelect is the MaxScore selection engine shared by both backends. It
// returns the matches exhaustive scoring would produce — every document
// scoring at or above threshold, best first, truncated to k when k > 0 —
// plus the number of postings the walk skipped. ok=false means the bound
// math was unusable (non-finite or negative bounds) and the caller must
// fall back.
//
// q must be sorted by ascending term id; n is the shard's document count.
// The caller must guarantee threshold > 0, so every admissible document
// appears in some query term's postings.
func pruneSelect(tab []pruneList, q []entry, threshold float64, k, n int) (out []Match, skipped int64, ok bool) {
	m := len(q)
	if m == 0 {
		return nil, 0, true
	}
	// per-term query upper bounds: ub[i] = fl(mult*maxW) dominates every
	// contribution fl(mult*w) of term i (float multiply is monotone for
	// non-negative operands)
	ub := make([]float64, m)
	for i, e := range q {
		ub[i] = e.weight * tab[e.term].maxW
		if math.IsNaN(ub[i]) || math.IsInf(ub[i], 0) || ub[i] < 0 || e.weight < 0 {
			return nil, 0, false
		}
	}
	if math.IsNaN(threshold) {
		return nil, 0, false
	}
	// pi: term positions in descending-ub order (ties by ascending id) —
	// the processing order; high-impact terms first fill the heap fast
	pi := make([]int, m)
	for i := range pi {
		pi[i] = i
	}
	sort.Slice(pi, func(a, b int) bool {
		if ub[pi[a]] != ub[pi[b]] {
			return ub[pi[a]] > ub[pi[b]]
		}
		return q[pi[a]].term < q[pi[b]].term
	})
	// inSuffix[i] tracks whether term i (by position in q) is in the
	// not-yet-processed suffix pi[s:]; bound sums iterate terms in index
	// order, which IS ascending id order — the exhaustive accumulation
	// order the float monotonicity lemma requires.
	inSuffix := make([]bool, m)
	for i := range inSuffix {
		inSuffix[i] = true
	}
	// suffixBound(sub, c): the ascending-id-order float sum of ub over the
	// suffix, with position sub's slot replaced by c. A document whose
	// matched terms all lie in the suffix, with contribution exactly c at
	// slot sub, scores at most this bound — exactly, in floats.
	suffixBound := func(sub int, c float64) float64 {
		var sum float64
		for i := 0; i < m; i++ {
			if !inSuffix[i] {
				continue
			}
			if i == sub {
				sum += c
			} else {
				sum += ub[i]
			}
		}
		return sum
	}
	top := topK{k: k}
	// canSkip reports whether a document bounded by b can be eliminated
	// without scoring it: strictly below the admission threshold, or — once
	// the heap is full — strictly below the k-th score. Strict-< handles
	// k-th-score ties exactly: a document whose bound EQUALS the root score
	// could still win on the index tiebreak, so it is always scored. The
	// heap root only rises, so a skip decided now stays valid later.
	canSkip := func(b float64) bool {
		return b < threshold || top.full() && b < top.heap[0].Score
	}
	// exact rescore: the same per-term contributions summed in the same
	// ascending term-id order as accumulate (mult*w, the identical
	// product). The walk already knows the contribution of the term it is
	// walking (own, at term position pos), so that slot skips the
	// posting-list search.
	rescore := func(d int32, pos int, own float64) float64 {
		var s float64
		for i, e := range q {
			if i == pos {
				s += own
				continue
			}
			lst := &tab[e.term]
			lo, hi := 0, len(lst.docs)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if lst.docs[mid] < d {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(lst.docs) && lst.docs[lo] == d {
				s += e.weight * lst.w[lo]
			}
		}
		return s
	}

	seenp := getSeen(n)
	defer putSeen(seenp)
	seen := *seenp
	for s := 0; s < m; s++ {
		pos := pi[s]
		// whole-suffix elimination: every document not yet seen whose
		// matched terms all lie in pi[s:] scores at most the suffix bound;
		// documents already emitted are rescored exactly regardless
		if canSkip(suffixBound(-1, 0)) {
			for r := s; r < m; r++ {
				skipped += int64(len(tab[q[pi[r]].term].impW))
			}
			break
		}
		lst := &tab[q[pos].term]
		mult := q[pos].weight
		// impact cutoff: the walkable prefix of this term's impact-ordered
		// list is exactly the postings whose substituted suffix bound is
		// not skippable — the bound is monotone in w and the list is sorted
		// by descending w, so the prefix is contiguous and binary-searchable.
		// The cutoff re-tightens periodically as the heap root rises.
		j, cut := 0, len(lst.impW)
		recalc := func() {
			cut = j + sort.Search(cut-j, func(x int) bool {
				return canSkip(suffixBound(pos, mult*lst.impW[j+x]))
			})
		}
		recalc()
		for j < cut {
			d := lst.impDocs[j]
			own := mult * lst.impW[j]
			j++
			if seen[d] {
				continue
			}
			seen[d] = true
			if mt := (Match{Index: int(d), Score: rescore(d, pos, own)}); mt.Score >= threshold {
				was := top.full()
				top.offer(mt)
				if !was && top.full() {
					// the heap just filled: the skip bar jumps from the
					// admission threshold to the k-th score, so re-tighten
					// immediately instead of waiting out the stride
					recalc()
					continue
				}
			}
			if j&7 == 0 {
				recalc()
			}
		}
		skipped += int64(len(lst.impW) - j)
		inSuffix[pos] = false
	}
	return top.sorted(), skipped, true
}
