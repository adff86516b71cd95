// Weight tables and selection for Stage-II retrieval: the accumulator and
// the bounded top-k heap shared by both scoring backends (DESIGN.md §14).
//
// Each term's weight list holds its postings in ascending local document
// order. Selection is exhaustive: a shard accumulates every query term's
// contributions into a dense score buffer in ascending term-id order — the
// one float summation order every path shares, which is what makes scores
// Float64bits-identical at every shard count — and then keeps every
// document at or above the threshold.
package vsm

import "sync"

// weightList is one term's postings in one shard under one scoring backend,
// in ascending local document order. w holds the per-posting score
// contribution before the query-side multiplier: the normalized TF-IDF
// weight for the cosine backend, the full precomputed BM25 contribution for
// BM25. Zero weights are not stored.
type weightList struct {
	docs []int32
	w    []float64
}

// buildTables lays a backend's per-document weight rows out as one weight
// table per shard. row returns a document's (term id, weight) entries in
// ascending term-id order; documents are visited in ascending local order,
// so every list comes out in ascending document order.
func (ix *Index) buildTables(row func(g int32) []entry) [][]weightList {
	tabs := make([][]weightList, len(ix.docs))
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
		tab := make([]weightList, len(ix.idf))
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
		tabs[sh] = tab
	}
	return tabs
}

// accumulate adds one shard's contributions q·w to scores, query terms in
// ascending id order — the one accumulation order every scoring path
// shares, which is what makes them bit-identical. remap maps local
// documents to score slots (nil: local).
func accumulate(scores []float64, remap []int32, tab []weightList, q []entry) {
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

// scorePool recycles the per-shard dense score buffers selectMatches
// accumulates into, so a query does not allocate O(shard size) scratch.
var scorePool = sync.Pool{New: func() any { return new([]float64) }}

// selectMatches is one shard's selection: every document scoring at or
// above threshold, best first, truncated to k when k > 0, in local
// ordinals. n is the shard's document count.
func selectMatches(tab []weightList, q []entry, threshold float64, k, n int) []Match {
	buf := scorePool.Get().(*[]float64)
	defer scorePool.Put(buf)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	scores := (*buf)[:n]
	clear(scores)
	accumulate(scores, nil, tab, q)
	top := topK{k: k}
	for d, s := range scores {
		if s >= threshold {
			top.offer(Match{Index: d, Score: s})
		}
	}
	return top.sorted()
}
