// Package vsm implements the Vector Space Model with TF-IDF weighting and
// cosine similarity used by Egeria's Stage II (knowledge recommendation),
// reproducing the paper's equations (1) and (2):
//
//	w(t,s)   = tf(t,s) * log(|S| / |{s' in S : t in s'}|)
//	sim(s,q) = (v_s . v_q) / (|v_s| |v_q|)
//
// It replaces the Gensim TF-IDF/VSM pipeline of the original implementation.
//
// One type, Index, serves every layout. It holds one global vocabulary and
// IDF table and partitions the sentences across shards (a monolithic index
// is the 1-shard case). A scoring backend is a per-posting weight table per
// shard: the normalized TF-IDF weight for the paper's cosine model, the
// precomputed Okapi contribution for BM25. Both backends share one
// accumulator and one bounded top-k selection, and every query fans out
// over the shards. An Index is immutable after build and safe for
// concurrent queries.
package vsm

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/doc"
	"repro/internal/obs"
	"repro/internal/textproc"
)

// Stage-II observability: query volume and scoring latency, reported into
// the default metrics registry (surfaced on /metricz as vsm_*).
var (
	queriesScored = obs.Default().Counter("vsm_queries_scored_total")
	scoreHist     = obs.Default().Histogram("vsm_score_micros")
)

// entry is one sparse vector component: a term id and its weight. A query
// is a list of entries in ascending term-id order, the weight being the
// query-side multiplier of the term's table weights.
type entry struct {
	term   int
	weight float64
}

// Index is a TF-IDF weighted vector space over a fixed sentence set,
// partitioned across one or more shards.
//
// Layout: documents are assigned to shards by hashing their stable
// doc.SentenceID (falling back to the document ordinal when no identity is
// available), so an incremental Rebuild keeps every surviving sentence in
// its original shard. Global statistics — vocabulary, document frequencies,
// IDF — are computed over the whole corpus, and each document's weights are
// a function of those statistics and the document alone, accumulated in
// ascending term-id order. Scores are therefore Float64bits-identical at
// every shard count.
type Index struct {
	vocab   map[string]int
	idf     []float64
	counted []*termCounts    // per document in global order, reused by Rebuild
	ids     []doc.SentenceID // per document: stable identity (shard assignment key)
	docs    [][]int32        // per shard: local position -> global ordinal, ascending
	vsm     [][]weightList   // per shard, per term id: normalized TF-IDF weights
	n       int

	bm25Once sync.Once // lazily-built BM25 weight tables
	bm25     *BM25
}

// Match is one retrieval result.
type Match struct {
	Index int     // sentence index within the index
	Score float64 // cosine similarity to the query
}

// DefaultThreshold is the similarity threshold the paper uses to recommend a
// sentence (§3.2: 0.15).
const DefaultThreshold = 0.15

// Build constructs an index over raw sentences, normalizing each with
// textproc.NormalizeTerms (tokenize, lowercase, stop/punct removal, Porter
// stemming).
func Build(sentences []string) *Index {
	terms := make([][]string, len(sentences))
	for i, s := range sentences {
		terms[i] = textproc.NormalizeTerms(s)
	}
	return BuildFromTerms(terms)
}

// BuildFromTerms constructs a single-shard index over pre-normalized term
// lists.
//
// Term ids are assigned in sorted term order, not first-appearance order.
// Because every weight accumulation (vector norms, dot products) runs in
// ascending term-id order, this makes scores a function of the document
// *set* alone: permuting the document order yields bit-identical cosine
// scores — the metamorphic property the Stage-II test suite checks.
func BuildFromTerms(termLists [][]string) *Index {
	return BuildShardedFromTerms(termLists, nil, 1)
}

// termCounts is one document's corpus-independent term statistics: its
// unique terms in sorted order with their raw frequencies, plus the total
// term count (the BM25 length norm). Immutable after countTerms, so Rebuild
// shares it between an index and its successor for kept sentences.
type termCounts struct {
	terms  []string  // unique terms, sorted
	counts []float64 // raw frequency, aligned with terms
	total  int32     // total term occurrences including duplicates
}

// countTerms tallies a term list into its counted form.
func countTerms(terms []string) *termCounts {
	tf := make(map[string]float64, len(terms))
	for _, t := range terms {
		tf[t]++
	}
	tc := &termCounts{
		terms:  make([]string, 0, len(tf)),
		counts: make([]float64, 0, len(tf)),
		total:  int32(len(terms)),
	}
	for t := range tf {
		tc.terms = append(tc.terms, t)
	}
	sort.Strings(tc.terms)
	for _, t := range tc.terms {
		tc.counts = append(tc.counts, tf[t])
	}
	return tc
}

// globalStats computes the corpus-wide retrieval statistics for a document
// set: term ids assigned in sorted term order and the IDF table log(n/df).
func globalStats(counted []*termCounts) (map[string]int, []float64) {
	// counted terms are unique per document already
	dfByTerm := map[string]int{}
	for _, tc := range counted {
		for _, t := range tc.terms {
			dfByTerm[t]++
		}
	}
	terms := make([]string, 0, len(dfByTerm))
	for t := range dfByTerm {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	vocab := make(map[string]int, len(terms))
	idf := make([]float64, len(terms))
	for id, t := range terms {
		vocab[t] = id
		idf[id] = math.Log(float64(len(counted)) / float64(dfByTerm[t]))
	}
	return vocab, idf
}

// vectorizeCounted converts a counted document into its L2-normalized
// TF-IDF vector, zero-weight (zero-IDF) terms included. The counted terms
// are sorted and vocab ids are assigned in sorted-term order, so the
// entries arrive in ascending term-id order without re-sorting, and the
// norm accumulates over the same weights in the same order as it always
// has — weights stay bit-identical.
func (ix *Index) vectorizeCounted(tc *termCounts) []entry {
	vec := make([]entry, 0, len(tc.terms))
	for i, t := range tc.terms {
		id := ix.vocab[t] // during a build every document term is in vocab
		vec = append(vec, entry{term: id, weight: tc.counts[i] * ix.idf[id]})
	}
	normalize(vec)
	return vec
}

// normalize scales a vector to unit L2 norm in place, accumulating the norm
// in entry order (a zero vector stays zero).
func normalize(vec []entry) {
	var norm float64
	for i := range vec {
		norm += vec[i].weight * vec[i].weight
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range vec {
			vec[i].weight /= norm
		}
	}
}

// AddedDoc is one new sentence handed to Rebuild: its position in the
// successor document, its normalized term list, and its stable identity,
// which a sharded layout hashes to keep shard assignment stable across
// edits.
type AddedDoc struct {
	Pos   int
	Terms []string
	ID    doc.SentenceID
}

// Rebuild constructs the successor index after a document edit, keeping the
// shard count: kept pairs map this index's sentences (Old position) to their
// new positions, reusing their per-document term statistics and identities
// verbatim, so every kept sentence stays in its shard; added carries the
// term lists of new sentences at their new positions. Together they must
// tile the successor document exactly — every position in [0, kept+added)
// assigned once.
//
// Global statistics — document frequencies, IDF, and therefore every weight
// — are recomputed from the merged set: IDF is corpus-wide, so one edit can
// shift every weight in the index. What Rebuild skips is the work that does
// not depend on the rest of the corpus: term counting here, and
// tokenization, stemming, and annotation upstream. The result is
// Float64bits-identical to a cold build over the successor's full term
// lists (see TestRebuildBitIdentical) because it *is* one.
func (ix *Index) Rebuild(kept []doc.Kept, added []AddedDoc) (*Index, error) {
	counted, ids, err := tileCounted(ix.counted, ix.ids, kept, added)
	if err != nil {
		return nil, err
	}
	return buildSharded(counted, ids, len(ix.docs)), nil
}

// tileCounted validates and materializes the successor document of an edit:
// kept pairs reuse the previous counted statistics and identity, added
// positions are counted fresh. The pairs must tile [0, kept+added) exactly —
// every position assigned once.
func tileCounted(prevCounted []*termCounts, prevIDs []doc.SentenceID, kept []doc.Kept, added []AddedDoc) ([]*termCounts, []doc.SentenceID, error) {
	n := len(kept) + len(added)
	counted := make([]*termCounts, n)
	ids := make([]doc.SentenceID, n)
	place := func(pos int, tc *termCounts) error {
		if pos < 0 || pos >= n {
			return fmt.Errorf("vsm: rebuild position %d outside [0,%d)", pos, n)
		}
		if counted[pos] != nil {
			return fmt.Errorf("vsm: rebuild position %d assigned twice", pos)
		}
		counted[pos] = tc
		return nil
	}
	for _, k := range kept {
		if k.Old < 0 || k.Old >= len(prevCounted) {
			return nil, nil, fmt.Errorf("vsm: rebuild kept old position %d outside [0,%d)", k.Old, len(prevCounted))
		}
		if err := place(k.New, prevCounted[k.Old]); err != nil {
			return nil, nil, err
		}
		ids[k.New] = prevIDs[k.Old]
	}
	for _, a := range added {
		if err := place(a.Pos, countTerms(a.Terms)); err != nil {
			return nil, nil, err
		}
		ids[a.Pos] = a.ID
	}
	return counted, ids, nil
}

// vectorize converts a term list into a normalized sparse TF-IDF query
// vector, dropping zero-weight terms. Terms outside the vocabulary are
// ignored.
func (ix *Index) vectorize(terms []string) []entry {
	tf := map[int]float64{}
	for _, t := range terms {
		if id, ok := ix.vocab[t]; ok {
			tf[id]++
		}
	}
	vec := make([]entry, 0, len(tf))
	for id, f := range tf {
		if w := f * ix.idf[id]; w != 0 {
			vec = append(vec, entry{term: id, weight: w})
		}
	}
	// sort before accumulating the norm: map iteration order is random, and
	// summing in term order keeps vectorization bit-deterministic across
	// calls (identical queries must produce identical vectors and scores)
	slices.SortFunc(vec, func(a, b entry) int { return cmp.Compare(a.term, b.term) })
	normalize(vec)
	return vec
}

// Len returns the number of sentences in the index.
func (ix *Index) Len() int { return ix.n }

// VocabSize returns the number of distinct terms.
func (ix *Index) VocabSize() int { return len(ix.vocab) }

// IDF returns the inverse document frequency of a term (0 if unknown).
func (ix *Index) IDF(term string) float64 {
	if id, ok := ix.vocab[term]; ok {
		return ix.idf[id]
	}
	return 0
}

// Query returns every sentence whose similarity to the query is at least
// threshold, sorted by descending score (ties by ascending index). A query
// with no weighted in-vocabulary term matches nothing; otherwise a
// threshold <= 0 admits zero-score documents, so every sentence is
// returned.
func (ix *Index) Query(query string, threshold float64) []Match {
	return ix.QueryCtx(context.Background(), query, threshold)
}

// QueryCtx is Query under ctx's trace, serial-scoring and per-shard fault
// hints.
func (ix *Index) QueryCtx(ctx context.Context, query string, threshold float64) []Match {
	qv := ix.vectorize(textproc.NormalizeTerms(query))
	if len(qv) == 0 {
		return nil
	}
	return ix.matches(ctx, ix.vsm, qv, threshold, 0)
}

// QueryAll computes the similarity of every sentence to the query and
// returns the full score slice (one per sentence).
func (ix *Index) QueryAll(query string) []float64 {
	return ix.QueryAllTerms(textproc.NormalizeTerms(query))
}

// QueryAllTerms is QueryAll over a pre-normalized query term list — the
// annotation-fed path that lets a serving layer normalize a query once and
// reuse the terms for cache keying and retrieval.
func (ix *Index) QueryAllTerms(terms []string) []float64 {
	return ix.QueryAllTermsCtx(context.Background(), terms)
}

// QueryAllTermsCtx is QueryAllTerms under a trace: when the context carries
// a sampled span, the scoring pass is recorded as a "vsm.score" child span
// with the query, index and shard sizes as attributes, and each shard's
// pass nests under it as a "vsm.shard" child. A context marked with
// WithSerialScoring keeps the whole fan-out on the calling goroutine
// (scores are bit-identical either way; see TestSerialScoringBitIdentical).
func (ix *Index) QueryAllTermsCtx(ctx context.Context, terms []string) []float64 {
	if parent := obs.SpanFrom(ctx); parent != nil {
		span := ix.startSpan(parent, "vsm.score", terms)
		if SerialScoring(ctx) {
			span.SetAttr("mode", "serial")
		}
		defer span.Finish()
		ctx = obs.ContextWithSpan(ctx, span)
	}
	defer ix.observe(time.Now())
	return ix.scores(ctx, ix.vsm, ix.vectorize(terms))
}

// TopK returns the k best matches at or above threshold (nothing for
// k <= 0). Ties at the threshold boundary are kept — the cut happens on
// count, not on score — and ties within the list resolve by ascending
// sentence index, so the kept prefix is deterministic.
func (ix *Index) TopK(query string, k int, threshold float64) []Match {
	return ix.TopKCtx(context.Background(), query, k, threshold)
}

// TopKCtx is TopK under ctx's trace, serial-scoring and per-shard fault
// hints. Each shard selects its own top k through a size-k heap; the global
// top k is a subset of the union of per-shard top ks, so the merged prefix
// is exactly Query truncated to k, including tie order.
func (ix *Index) TopKCtx(ctx context.Context, query string, k int, threshold float64) []Match {
	if k <= 0 {
		return nil
	}
	qv := ix.vectorize(textproc.NormalizeTerms(query))
	if len(qv) == 0 {
		return nil
	}
	return ix.matches(ctx, ix.vsm, qv, threshold, k)
}

// MatchesTermsCtx returns every sentence scoring at or above threshold
// against pre-normalized query terms, best first — the serving-path form of
// Query. It honors tracing, serial scoring, per-shard fault draws (a failed
// shard contributes no matches), and the same score semantics as filtering
// QueryAllTerms: a threshold at or below zero admits zero-score sentences,
// so every sentence is returned.
func (ix *Index) MatchesTermsCtx(ctx context.Context, terms []string, threshold float64) []Match {
	if parent := obs.SpanFrom(ctx); parent != nil {
		span := ix.startSpan(parent, "vsm.score", terms)
		defer span.Finish()
		ctx = obs.ContextWithSpan(ctx, span)
	}
	defer ix.observe(time.Now())
	return ix.matches(ctx, ix.vsm, ix.vectorize(terms), threshold, 0)
}

// startSpan opens a scoring span under parent with the query and layout
// sizes as attributes.
func (ix *Index) startSpan(parent *obs.Span, name string, terms []string) *obs.Span {
	span := parent.StartChild(name)
	span.SetAttrInt("query_terms", len(terms))
	span.SetAttrInt("docs", ix.n)
	span.SetAttrInt("shards", len(ix.docs))
	return span
}

// observe records one cosine scoring pass that started at start.
func (ix *Index) observe(start time.Time) {
	scoreHist.ObserveDuration(time.Since(start))
	queriesScored.Inc()
	if len(ix.docs) > 1 {
		shardedQueries.Inc()
	}
}

func sortMatches(m []Match) {
	slices.SortFunc(m, func(a, b Match) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
}

// Retriever is the retrieval surface of an Index, for callers outside this
// module's packages (the perfbench module holds its indexes through it).
// *Index implements it at every shard count, with Float64bits-identical
// scores — the shard count is a performance topology, not a semantic one.
type Retriever interface {
	// Len returns the number of sentences indexed.
	Len() int
	// ShardCount reports the partition count (1 for a monolithic index).
	ShardCount() int
	// QueryAll scores every sentence against raw query text.
	QueryAll(query string) []float64
	// QueryAllTermsCtx scores every sentence against pre-normalized terms,
	// honoring tracing and serial-scoring hints on the context.
	QueryAllTermsCtx(ctx context.Context, terms []string) []float64
	// MatchesTermsCtx returns every sentence scoring at or above threshold
	// against pre-normalized terms, best first (score desc, index asc),
	// honoring tracing on the context. Results are Float64bits-identical to
	// filtering QueryAllTermsCtx's scores.
	MatchesTermsCtx(ctx context.Context, terms []string, threshold float64) []Match
	// Scorer returns the named scoring backend over this retriever.
	Scorer(backend string) (Scorer, error)
	// RebuildRetriever builds the successor retriever after a document edit,
	// preserving the layout (shard count, and each kept sentence's shard
	// assignment via its stable identity).
	RebuildRetriever(kept []doc.Kept, added []AddedDoc) (Retriever, error)
}

// RebuildRetriever is Rebuild under the Retriever interface.
func (ix *Index) RebuildRetriever(kept []doc.Kept, added []AddedDoc) (Retriever, error) {
	return ix.Rebuild(kept, added)
}
