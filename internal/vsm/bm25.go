package vsm

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/textproc"
)

// BM25 parameters (standard Robertson/Spärck-Jones defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// bm25Floor is BM25's admission threshold: the smallest positive float64,
// so "score >= bm25Floor" admits exactly the strictly positive scores.
const bm25Floor = math.SmallestNonzeroFloat64

// BM25 scores sentences with Okapi BM25 over the same index as the TF-IDF
// backend it derives from: one weight table per shard holding each
// posting's full contribution idf·tf·(k1+1)/(tf+norm) under the global
// document frequencies and length norms, so a query sums precomputed
// contributions through the shared accumulator. It is the retrieval
// ablation against the paper's TF-IDF/VSM choice (Eqs. 1-2), selectable per
// query in the serving layer. BM25 scores are unbounded and NOT comparable
// with cosine similarities; compare them only within this backend.
//
// Unlike the cosine backend, BM25 keeps contributions from zero-IDF terms
// (terms appearing in every document): their BM25 IDF log(1 + 1/(2N+1)) is
// small but positive, matching the standard formulation.
type BM25 struct {
	ix *Index
	w  [][]weightList // per shard, per term id: BM25 contributions
}

// BM25 returns the BM25 view over this index, its weight tables built
// lazily on first use and cached (an Index is immutable after build, so the
// view is safe to share across goroutines).
func (ix *Index) BM25() *BM25 {
	ix.bm25Once.Do(func() {
		// document frequencies are exact integers and the total length
		// accumulates in global document order, so every idf, norm and
		// contribution carries the same bits at any shard count
		df := make([]float64, len(ix.idf))
		var total float64
		for _, tc := range ix.counted {
			total += float64(tc.total)
			for _, t := range tc.terms {
				df[ix.vocab[t]]++
			}
		}
		var avg float64
		if ix.n > 0 {
			avg = total / float64(ix.n)
		}
		n := float64(ix.n)
		idf := make([]float64, len(df))
		for t := range idf {
			idf[t] = math.Log((n-df[t]+0.5)/(df[t]+0.5) + 1)
		}
		ix.bm25 = &BM25{ix: ix, w: ix.buildTables(func(g int32) []entry {
			tc := ix.counted[g]
			norm := bm25K1
			if avg > 0 {
				norm = bm25K1 * (1 - bm25B + bm25B*float64(tc.total)/avg)
			}
			row := make([]entry, len(tc.terms))
			for i, t := range tc.terms {
				id, tf := ix.vocab[t], tc.counts[i]
				row[i] = entry{term: id, weight: idf[id] * tf * (bm25K1 + 1) / (tf + norm)}
			}
			return row
		})}
	})
	return ix.bm25
}

// BuildBM25 constructs a BM25 scorer over raw sentences — the standalone
// entry point for experiments; a serving layer uses Index.BM25 so both
// backends share one index.
func BuildBM25(sentences []string) *BM25 { return Build(sentences).BM25() }

// Backend implements Scorer.
func (b *BM25) Backend() string { return BackendBM25 }

// ScoreTerms returns the BM25 score of every sentence for a pre-normalized
// query term list. Duplicate query terms count once (the standard binary
// query model). Accumulation walks query terms in ascending term-id order,
// so identical queries produce bit-identical scores.
func (b *BM25) ScoreTerms(terms []string) []float64 {
	return b.ScoreTermsCtx(context.Background(), terms)
}

// ScoreTermsCtx implements Scorer: the shard fan-out under an optional
// "bm25.score" trace span, honoring serial scoring and per-shard fault
// draws like the cosine path.
func (b *BM25) ScoreTermsCtx(ctx context.Context, terms []string) []float64 {
	if parent := obs.SpanFrom(ctx); parent != nil {
		span := b.ix.startSpan(parent, "bm25.score", terms)
		defer span.Finish()
		ctx = obs.ContextWithSpan(ctx, span)
	}
	return b.ix.scores(ctx, b.w, b.query(terms))
}

// Scores returns the BM25 score of every sentence for raw query text.
func (b *BM25) Scores(query string) []float64 {
	return b.ScoreTerms(textproc.NormalizeTerms(query))
}

// TopK returns the k best-scoring sentences with positive score, best first
// (ties by ascending index); k <= 0 returns nothing.
func (b *BM25) TopK(query string, k int) []Match {
	return b.TopKCtx(context.Background(), query, k)
}

// TopKCtx is TopK under ctx's trace, serial-scoring and per-shard fault
// hints: each shard selects its own top k and the per-shard lists merge.
func (b *BM25) TopKCtx(ctx context.Context, query string, k int) []Match {
	if k <= 0 {
		return nil
	}
	q := b.query(textproc.NormalizeTerms(query))
	if len(q) == 0 {
		return nil
	}
	return b.ix.matches(ctx, b.w, q, bm25Floor, k)
}

// query resolves query terms to their sorted unique vocabulary ids, each
// with multiplier 1 — BM25's binary query model (duplicate terms count
// once) over precomputed contributions.
func (b *BM25) query(terms []string) []entry {
	seen := map[int]bool{}
	q := make([]entry, 0, len(terms))
	for _, t := range terms {
		if id, ok := b.ix.vocab[t]; ok && !seen[id] {
			seen[id] = true
			q = append(q, entry{term: id, weight: 1})
		}
	}
	slices.SortFunc(q, func(a, b entry) int { return cmp.Compare(a.term, b.term) })
	return q
}
